//! [`Recorder`]: the one aggregating sink. It folds the event stream —
//! spans, counters, metrics — into a [`RecordReport`], to which an
//! allocation profile ([`AllocSnapshot`]) may be attached, and every
//! end-of-run view renders from that one report:
//!
//! - [`RecordReport::render_table`] — the per-stage table (count, total,
//!   p50/p90/p99/max, per-thread rows, metrics, counters, allocations);
//! - [`RecordReport::to_json`] — the profile document (schema
//!   [`PROFILE_SCHEMA_VERSION`]) the benchmark baseline and
//!   `verify-profile` read;
//! - [`RecordReport::collapsed_stacks`] and
//!   [`RecordReport::alloc_collapsed_stacks`] — latency- and
//!   bytes-weighted flamegraph input;
//! - [`RecordReport::prometheus`] and [`RecordReport::telemetry_json`] —
//!   the metric registry for machines;
//! - [`RecordReport::determinism_key`] — the thread-count-invariant
//!   digest of the run's aggregates.
//!
//! Only names registered in [`crate::names`] are aggregated; the rest are
//! counted in [`RecordReport::dropped`], so a typo shows instead of
//! minting a new series. The recorder times its own event handling and
//! reports it as the `obs.telemetry_overhead_ns` metric.
//!
//! Call paths come from the causal `(span, parent)` ids every span event
//! carries, not from per-thread nesting, so a span that runs on a pool
//! worker stitches under the span that submitted it. One mutex serves
//! all threads: a personalize emits on the order of a hundred events.
//! Like every sink, recording only observes — the pipeline's output is
//! bit-identical with or without a recorder installed.

use crate::alloc::AllocSnapshot;
use crate::histogram::LogHistogram;
use crate::names::{
    ALLOC_LARGEST_SINGLE_BYTES, ALLOC_PEAK_LIVE_BYTES, ALLOC_UNATTRIBUTED_BYTES, ALL_METRICS,
    ALL_SPANS, BATCH_SUBJECT_SECONDS, OBS_TELEMETRY_OVERHEAD_NS, SERVE_REQUEST_SECONDS,
};
use crate::sink::{human_duration, json_escape, json_number, Sink};
use crate::{Event, Stopwatch};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Schema stamp on [`RecordReport::to_json`] output; bump on any
/// incompatible shape change so downstream readers can refuse early.
pub const PROFILE_SCHEMA_VERSION: u64 = 1;

/// Metrics whose *values* are wall-clock or scheduling-dependent: their
/// sample counts are deterministic, their values are not, so
/// [`RecordReport::determinism_key`] covers only their counts. The
/// `alloc.*` entries depend on thread interleaving (peak overlap,
/// infrastructure allocation); the deterministic alloc totals arrive as
/// counters and are keyed in full.
const TIMING_METRICS: &[&str] = &[
    BATCH_SUBJECT_SECONDS,
    OBS_TELEMETRY_OVERHEAD_NS,
    ALLOC_PEAK_LIVE_BYTES,
    ALLOC_LARGEST_SINGLE_BYTES,
    ALLOC_UNATTRIBUTED_BYTES,
    SERVE_REQUEST_SECONDS,
];

/// The label samples delivered on the current thread are attributed to.
fn thread_label() -> String {
    match crate::pool_worker() {
        Some(index) => format!("worker-{index}"),
        None => "main".to_string(),
    }
}

/// Count, total and latency histogram of one slice of span samples.
#[derive(Debug, Default)]
struct Slice {
    count: u64,
    total_nanos: u128,
    hist: LogHistogram,
}

impl Slice {
    fn record(&mut self, nanos: u128) {
        self.count += 1;
        self.total_nanos += nanos;
        // Saturate rather than wrap: a >584-year span is already wrong.
        self.hist.record(u64::try_from(nanos).unwrap_or(u64::MAX));
    }
}

#[derive(Debug)]
struct StageAgg {
    /// Minimum nesting depth seen (table indentation).
    depth: usize,
    all: Slice,
    by_thread: BTreeMap<String, Slice>,
}

/// A span that started and has not ended yet.
#[derive(Debug)]
struct Open {
    /// `;`-joined names from the causal root to this span.
    path: String,
    /// Nanoseconds of already-closed direct children.
    child_nanos: u128,
}

#[derive(Debug, Default)]
struct State {
    /// Open spans by span id.
    open: BTreeMap<u64, Open>,
    stages: BTreeMap<&'static str, StageAgg>,
    paths: BTreeMap<String, PathProfile>,
    threads: BTreeMap<String, ThreadProfile>,
    counters: BTreeMap<&'static str, u64>,
    metrics: BTreeMap<&'static str, MetricAgg>,
    overhead_ns: u64,
    dropped: u64,
}

impl State {
    fn record(&mut self, event: &Event) {
        let registered = match event {
            Event::SpanStart { name, .. } | Event::SpanEnd { name, .. } => ALL_SPANS.contains(name),
            Event::Counter { name, .. } | Event::Metric { name, .. } => ALL_METRICS.contains(name),
        };
        if !registered {
            // A span is one sample: count its end, not its start.
            if !matches!(event, Event::SpanStart { .. }) {
                self.dropped += 1;
            }
            return;
        }
        match *event {
            Event::SpanStart { name, ids, .. } => {
                let path = match self.open.get(&ids.parent) {
                    Some(parent) => format!("{};{name}", parent.path),
                    None => name.to_string(),
                };
                self.open.insert(
                    ids.span,
                    Open {
                        path,
                        child_nanos: 0,
                    },
                );
            }
            Event::SpanEnd {
                name,
                depth,
                nanos,
                ids,
            } => {
                // An end without a start (recorder installed mid-span)
                // still counts, as a root with no known children.
                let open = self.open.remove(&ids.span).unwrap_or(Open {
                    path: name.to_string(),
                    child_nanos: 0,
                });
                if let Some(parent) = self.open.get_mut(&ids.parent) {
                    parent.child_nanos += nanos;
                }
                // Children on other threads may overlap each other, so
                // their sum can exceed the parent's wall time.
                let self_nanos = nanos.saturating_sub(open.child_nanos);
                let label = thread_label();
                let stage = self.stages.entry(name).or_insert_with(|| StageAgg {
                    depth,
                    all: Slice::default(),
                    by_thread: BTreeMap::new(),
                });
                stage.depth = stage.depth.min(depth);
                stage.all.record(nanos);
                stage
                    .by_thread
                    .entry(label.clone())
                    .or_default()
                    .record(nanos);
                let path = self
                    .paths
                    .entry(open.path.clone())
                    .or_insert_with(|| PathProfile {
                        path: open.path,
                        ..PathProfile::default()
                    });
                path.self_nanos += self_nanos;
                path.total_nanos += nanos;
                path.count += 1;
                let thread = self
                    .threads
                    .entry(label.clone())
                    .or_insert_with(|| ThreadProfile {
                        thread: label,
                        ..ThreadProfile::default()
                    });
                thread.busy_nanos += self_nanos;
                thread.spans += 1;
            }
            Event::Counter { name, delta } => *self.counters.entry(name).or_insert(0) += delta,
            Event::Metric { name, value, unit } => {
                let agg = self.metrics.entry(name).or_insert(MetricAgg {
                    count: 0,
                    sum: 0.0,
                    min: value,
                    max: value,
                    unit,
                });
                agg.count += 1;
                agg.sum += value;
                agg.min = agg.min.min(value);
                agg.max = agg.max.max(value);
            }
        }
    }
}

/// The aggregating [`Sink`]: install it like any sink
/// ([`crate::with_sink`], or inside a [`crate::sink::MultiSink`]), run
/// the workload, then take its [`Recorder::report`].
///
/// ```
/// use std::sync::Arc;
/// use uniq_obs::names::{SPAN_PERSONALIZE, SPAN_SESSION};
/// use uniq_obs::Recorder;
///
/// let recorder = Arc::new(Recorder::new());
/// uniq_obs::with_sink(recorder.clone(), || {
///     let _root = uniq_obs::span(SPAN_PERSONALIZE);
///     let _child = uniq_obs::span(SPAN_SESSION);
/// });
/// let report = recorder.report();
/// assert_eq!(report.stage(SPAN_SESSION).unwrap().count, 1);
/// assert_eq!(report.paths[1].path, "personalize;session");
/// ```
#[derive(Debug, Default)]
pub struct Recorder {
    state: Mutex<State>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Snapshots the aggregates. Stages are sorted by (depth, name),
    /// everything else by name — deterministic whatever the event arrival
    /// order. The recorder's own cost appears as the
    /// `obs.telemetry_overhead_ns` metric.
    pub fn report(&self) -> RecordReport {
        let state = self.state.lock().expect("recorder poisoned");
        let mut stages: Vec<StageProfile> = state
            .stages
            .iter()
            .map(|(name, agg)| StageProfile {
                name: (*name).to_string(),
                depth: agg.depth,
                count: agg.all.count,
                total_nanos: agg.all.total_nanos,
                min_nanos: agg.all.hist.min(),
                p50_nanos: agg.all.hist.percentile(50.0),
                p90_nanos: agg.all.hist.percentile(90.0),
                p99_nanos: agg.all.hist.percentile(99.0),
                max_nanos: agg.all.hist.max(),
                threads: agg
                    .by_thread
                    .iter()
                    .map(|(label, slice)| StageThreadRow {
                        thread: label.clone(),
                        count: slice.count,
                        total_nanos: slice.total_nanos,
                        p50_nanos: slice.hist.percentile(50.0),
                    })
                    .collect(),
            })
            .collect();
        stages.sort_by(|a, b| a.depth.cmp(&b.depth).then_with(|| a.name.cmp(&b.name)));
        let mut metrics: BTreeMap<String, MetricAgg> = state
            .metrics
            .iter()
            .map(|(name, agg)| (name.to_string(), *agg))
            .collect();
        let overhead = state.overhead_ns as f64;
        metrics.insert(
            OBS_TELEMETRY_OVERHEAD_NS.to_string(),
            MetricAgg {
                count: 1,
                sum: overhead,
                min: overhead,
                max: overhead,
                unit: "ns",
            },
        );
        RecordReport {
            stages,
            threads: state.threads.values().cloned().collect(),
            paths: state.paths.values().cloned().collect(),
            counters: state
                .counters
                .iter()
                .map(|(name, total)| (name.to_string(), *total))
                .collect(),
            metrics,
            overhead_ns: state.overhead_ns,
            dropped: state.dropped,
            alloc: None,
        }
    }
}

impl Sink for Recorder {
    fn on_event(&self, event: &Event) {
        let sw = Stopwatch::start();
        let mut state = self.state.lock().expect("recorder poisoned");
        state.record(event);
        state.overhead_ns += (sw.elapsed_seconds() * 1e9) as u64;
    }
}

/// Per-thread latency slice of one stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageThreadRow {
    /// Attribution label: `main` or `worker-<i>`.
    pub thread: String,
    /// Samples delivered on this thread.
    pub count: u64,
    /// Total nanoseconds of those samples.
    pub total_nanos: u128,
    /// Median nanoseconds of those samples.
    pub p50_nanos: u64,
}

/// Latency statistics for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct StageProfile {
    /// Span name (see [`crate::names`]).
    pub name: String,
    /// Minimum nesting depth observed (indentation hint).
    pub depth: usize,
    /// Number of completed spans.
    pub count: u64,
    /// Total wall nanoseconds across all spans.
    pub total_nanos: u128,
    /// Fastest span, nanoseconds (exact).
    pub min_nanos: u64,
    /// Median span, nanoseconds (log-bucketed, ≤ ~0.4% relative error).
    pub p50_nanos: u64,
    /// 90th-percentile span, nanoseconds.
    pub p90_nanos: u64,
    /// 99th-percentile span, nanoseconds.
    pub p99_nanos: u64,
    /// Slowest span, nanoseconds (exact).
    pub max_nanos: u64,
    /// Per-thread breakdown, sorted by label.
    pub threads: Vec<StageThreadRow>,
}

/// Busy time of one attribution label.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreadProfile {
    /// Attribution label: `main` or `worker-<i>`.
    pub thread: String,
    /// Sum of the self times of spans closed on this thread.
    pub busy_nanos: u128,
    /// Spans closed on this thread.
    pub spans: u64,
}

/// Self and total time of one causal call path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PathProfile {
    /// Root-to-leaf span names joined with `;` (collapsed-stack syntax).
    pub path: String,
    /// Nanoseconds in this path excluding child spans.
    pub self_nanos: u128,
    /// Nanoseconds in this path including child spans.
    pub total_nanos: u128,
    /// Times the leaf span closed on this path.
    pub count: u64,
}

/// Streaming aggregate of one metric series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricAgg {
    /// Number of samples.
    pub count: u64,
    /// Sum of the samples (its low bits depend on arrival order).
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Unit label of the first sample.
    pub unit: &'static str,
}

impl MetricAgg {
    /// Mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Everything one recorded run produced (see [`Recorder::report`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordReport {
    /// Per-stage latency statistics, sorted by (depth, name).
    pub stages: Vec<StageProfile>,
    /// Per-thread busy time, sorted by label.
    pub threads: Vec<ThreadProfile>,
    /// Per-call-path self time, sorted by path.
    pub paths: Vec<PathProfile>,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Metric aggregates by name, `obs.telemetry_overhead_ns` included.
    pub metrics: BTreeMap<String, MetricAgg>,
    /// Nanoseconds the recorder spent handling events.
    pub overhead_ns: u64,
    /// Events discarded because their name is not registered.
    pub dropped: u64,
    /// The run's allocation profile, when one was measured (see
    /// [`RecordReport::attach_alloc`]).
    pub alloc: Option<AllocSnapshot>,
}

impl RecordReport {
    /// Looks up one stage by span name.
    pub fn stage(&self, name: &str) -> Option<&StageProfile> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Attaches the allocation profile of the same run: the table grows
    /// allocs/alloc-b columns and the allocation table, the JSON an
    /// `"alloc"` section.
    pub fn attach_alloc(&mut self, snapshot: AllocSnapshot) {
        self.alloc = Some(snapshot);
    }

    /// The human-readable report:
    ///
    /// ```text
    /// per-stage wall clock:
    ///   stage                           count      total        p50        p90        p99        max
    ///   personalize                         1      2.31s      2.31s      2.31s      2.31s      2.31s
    ///     session                           1    812.4ms    812.4ms    812.4ms    812.4ms    812.4ms
    ///       channel.estimate               12     40.1ms      3.3ms      3.6ms      3.8ms      3.8ms
    ///         [main]                        8     26.7ms      3.3ms
    ///         [worker-0]                    4     13.4ms      3.4ms
    /// threads:
    ///   main        busy 2.29s over 22 spans
    /// metrics:
    ///   fusion.mean_residual_deg       3.4200 deg
    /// counters:
    ///   session.stops                  12
    /// ```
    ///
    /// Per-thread subrows appear only for stages that ran on more than
    /// one thread.
    pub fn render_table(&self) -> String {
        let mut out = String::from("per-stage wall clock:\n");
        out.push_str(&format!(
            "  {:<30} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "stage", "count", "total", "p50", "p90", "p99", "max"
        ));
        if self.alloc.is_some() {
            out.push_str(&format!(" {:>8} {:>12}", "allocs", "alloc-b"));
        }
        out.push('\n');
        for stage in &self.stages {
            out.push_str(&format!(
                "  {:<30} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10}",
                format!("{}{}", "  ".repeat(stage.depth), stage.name),
                stage.count,
                human_duration(stage.total_nanos),
                human_duration(u128::from(stage.p50_nanos)),
                human_duration(u128::from(stage.p90_nanos)),
                human_duration(u128::from(stage.p99_nanos)),
                human_duration(u128::from(stage.max_nanos)),
            ));
            if let Some(snap) = &self.alloc {
                match snap.stage(&stage.name) {
                    Some(a) => out.push_str(&format!(" {:>8} {:>12}", a.allocs, a.bytes)),
                    None => out.push_str(&format!(" {:>8} {:>12}", "-", "-")),
                }
            }
            out.push('\n');
            if stage.threads.len() > 1 {
                for row in &stage.threads {
                    out.push_str(&format!(
                        "  {:<30} {:>6} {:>10} {:>10}\n",
                        format!("{}[{}]", "  ".repeat(stage.depth + 1), row.thread),
                        row.count,
                        human_duration(row.total_nanos),
                        human_duration(u128::from(row.p50_nanos)),
                    ));
                }
            }
        }
        if !self.threads.is_empty() {
            out.push_str("threads:\n");
            for t in &self.threads {
                out.push_str(&format!(
                    "  {:<11} busy {} over {} span{}\n",
                    t.thread,
                    human_duration(t.busy_nanos),
                    t.spans,
                    if t.spans == 1 { "" } else { "s" },
                ));
            }
        }
        out.push_str("metrics:\n");
        for (name, m) in &self.metrics {
            if m.count == 1 {
                out.push_str(&format!("  {name:<30} {:.4} {}\n", m.min, m.unit));
            } else {
                out.push_str(&format!(
                    "  {name:<30} n={} mean {:.4} min {:.4} max {:.4} {}\n",
                    m.count,
                    m.mean(),
                    m.min,
                    m.max,
                    m.unit
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, total) in &self.counters {
                out.push_str(&format!("  {name:<30} {total}\n"));
            }
        }
        if self.dropped > 0 {
            out.push_str(&format!(
                "dropped: {} event(s) with unregistered names\n",
                self.dropped
            ));
        }
        if let Some(snap) = &self.alloc {
            out.push_str(&snap.render_table());
        }
        out
    }

    /// The profile document (schema [`PROFILE_SCHEMA_VERSION`]); parse it
    /// back with [`crate::json::Json::parse`]. Durations are integer
    /// nanoseconds. An attached allocation profile appears as the
    /// `"alloc"` object, exactly [`AllocSnapshot::to_json`].
    pub fn to_json(&self) -> String {
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|s| {
                let threads: Vec<String> = s
                    .threads
                    .iter()
                    .map(|t| {
                        format!(
                            "{{\"thread\": \"{}\", \"count\": {}, \"total_ns\": {}, \"p50_ns\": {}}}",
                            json_escape(&t.thread),
                            t.count,
                            t.total_nanos,
                            t.p50_nanos
                        )
                    })
                    .collect();
                format!(
                    "\n    {{\"name\": \"{}\", \"depth\": {}, \"count\": {}, \"total_ns\": {}, \
                     \"min_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}, \
                     \"threads\": [{}]}}",
                    json_escape(&s.name),
                    s.depth,
                    s.count,
                    s.total_nanos,
                    s.min_nanos,
                    s.p50_nanos,
                    s.p90_nanos,
                    s.p99_nanos,
                    s.max_nanos,
                    threads.join(", "),
                )
            })
            .collect();
        let threads: Vec<String> = self
            .threads
            .iter()
            .map(|t| {
                format!(
                    "\n    {{\"thread\": \"{}\", \"busy_ns\": {}, \"spans\": {}}}",
                    json_escape(&t.thread),
                    t.busy_nanos,
                    t.spans
                )
            })
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(name, total)| format!("\n    \"{}\": {total}", json_escape(name)))
            .collect();
        let mut out = format!(
            "{{\n  \"schema_version\": {PROFILE_SCHEMA_VERSION},\n  \"stages\": [{}\n  ],\n  \
             \"threads\": [{}\n  ],\n  \"counters\": {{{}\n  }}",
            stages.join(","),
            threads.join(","),
            counters.join(","),
        );
        if let Some(snap) = &self.alloc {
            out.push_str(",\n  \"alloc\": ");
            out.push_str(snap.to_json().trim_end());
        }
        out.push_str("\n}\n");
        out
    }

    /// Collapsed-stack lines (`span;child;leaf self_nanos`, one per call
    /// path), the input format of `flamegraph.pl` and compatible tools.
    pub fn collapsed_stacks(&self) -> String {
        self.paths
            .iter()
            .map(|p| format!("{} {}\n", p.path, p.self_nanos))
            .collect()
    }

    /// Bytes-weighted collapsed-stack lines: each stage's allocated bytes
    /// on the *hottest* call path ending in that stage (most samples, ties
    /// to the lexicographically smallest path); stages no path ends in get
    /// a bare `stage bytes` line, and infrastructure allocations an
    /// `(unattributed) bytes` line. Empty without an allocation profile.
    pub fn alloc_collapsed_stacks(&self) -> String {
        let Some(snap) = &self.alloc else {
            return String::new();
        };
        let mut out = String::new();
        for (stage, alloc) in &snap.stages {
            if alloc.bytes == 0 && alloc.allocs == 0 {
                continue;
            }
            let best = self
                .paths
                .iter()
                .filter(|p| p.path.rsplit(';').next() == Some(stage.as_str()))
                .max_by(|a, b| a.count.cmp(&b.count).then_with(|| b.path.cmp(&a.path)));
            let path = best.map(|p| p.path.as_str()).unwrap_or(stage.as_str());
            out.push_str(&format!("{path} {}\n", alloc.bytes));
        }
        if snap.unattributed.bytes > 0 {
            out.push_str(&format!("(unattributed) {}\n", snap.unattributed.bytes));
        }
        out
    }

    /// Prometheus-style exposition text: counters, metric summaries
    /// (quantile 0/1 = min/max), span latency summaries in nanoseconds,
    /// and the dropped-event counter.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        for (name, total) in &self.counters {
            let p = prom_name(name);
            out.push_str(&format!("# TYPE {p} counter\n{p} {total}\n"));
        }
        for (name, agg) in &self.metrics {
            let p = prom_name(name);
            out.push_str(&format!(
                "# TYPE {p} summary\n{p}{{quantile=\"0\"}} {}\n{p}{{quantile=\"1\"}} {}\n\
                 {p}_sum {}\n{p}_count {}\n",
                prom_number(agg.min),
                prom_number(agg.max),
                prom_number(agg.sum),
                agg.count,
            ));
        }
        for s in &self.stages {
            let p = format!("{}_ns", prom_name(&s.name));
            out.push_str(&format!(
                "# TYPE {p} summary\n{p}{{quantile=\"0.5\"}} {}\n{p}{{quantile=\"0.99\"}} {}\n\
                 {p}_sum {}\n{p}_count {}\n",
                s.p50_nanos, s.p99_nanos, s.total_nanos, s.count,
            ));
        }
        out.push_str(&format!(
            "# TYPE uniq_telemetry_dropped_events counter\nuniq_telemetry_dropped_events {}\n",
            self.dropped
        ));
        out
    }

    /// The metric registry as one JSON document (schema 1, stable key
    /// order).
    pub fn telemetry_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(name, total)| format!("\"{}\": {total}", json_escape(name)))
            .collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, agg)| {
                format!(
                    "\"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}}}",
                    json_escape(name),
                    agg.count,
                    json_number(agg.sum),
                    json_number(agg.min),
                    json_number(agg.max),
                )
            })
            .collect();
        let spans: Vec<String> = self
            .stages
            .iter()
            .map(|s| {
                format!(
                    "\"{}\": {{\"count\": {}, \"sum_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}}}",
                    json_escape(&s.name),
                    s.count,
                    s.total_nanos,
                    s.p50_nanos,
                    s.p99_nanos,
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": 1,\n  \"counters\": {{{}}},\n  \"metrics\": {{{}}},\n  \
             \"spans\": {{{}}},\n  \"overhead_ns\": {},\n  \"dropped\": {}\n}}\n",
            counters.join(", "),
            metrics.join(", "),
            spans.join(", "),
            self.overhead_ns,
            self.dropped
        )
    }

    /// A canonical string of every scheduling-independent aggregate:
    /// counter totals, span counts, and metric counts plus min/max bits.
    /// Sums are left out (their low bits follow arrival order), and
    /// wall-clock-valued metrics contribute counts only. Two runs of a
    /// seeded workload produce equal keys at any thread count.
    pub fn determinism_key(&self) -> String {
        let mut lines = Vec::new();
        for (name, total) in &self.counters {
            lines.push(format!("counter {name} total={total}"));
        }
        let spans: BTreeMap<&str, u64> = self
            .stages
            .iter()
            .map(|s| (s.name.as_str(), s.count))
            .collect();
        for (name, count) in spans {
            lines.push(format!("span {name} count={count}"));
        }
        for (name, agg) in &self.metrics {
            if TIMING_METRICS.contains(&name.as_str()) {
                lines.push(format!("metric {name} count={}", agg.count));
            } else {
                lines.push(format!(
                    "metric {name} count={} min={:016x} max={:016x}",
                    agg.count,
                    agg.min.to_bits(),
                    agg.max.to_bits()
                ));
            }
        }
        lines.join("\n")
    }
}

/// Maps a dotted registry name onto the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn prom_name(name: &str) -> String {
    let mapped: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("uniq_{mapped}")
}

/// Prometheus number formatting: `NaN` as Rust prints it, infinities
/// as `±Inf`.
fn prom_number(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::StageAlloc;
    use crate::json::Json;
    use crate::names::{
        FUSION_OBJECTIVE, SESSION_STOPS, SPAN_CHANNEL_ESTIMATE, SPAN_FUSION, SPAN_PERSONALIZE,
        SPAN_SESSION,
    };
    use crate::SpanIds;
    use std::sync::Arc;

    fn ids(span: u64, parent: u64) -> SpanIds {
        SpanIds {
            trace: 1,
            span,
            parent,
        }
    }

    fn start(name: &'static str, depth: usize, span: u64, parent: u64) -> Event {
        Event::SpanStart {
            name,
            depth,
            ids: ids(span, parent),
        }
    }

    fn end(name: &'static str, depth: usize, nanos: u128, span: u64, parent: u64) -> Event {
        Event::SpanEnd {
            name,
            depth,
            nanos,
            ids: ids(span, parent),
        }
    }

    /// personalize(1000) { session(300), session(100) } — the classic
    /// self-time split.
    fn nested() -> Recorder {
        let recorder = Recorder::new();
        for e in [
            start(SPAN_PERSONALIZE, 0, 1, 0),
            start(SPAN_SESSION, 1, 2, 1),
            end(SPAN_SESSION, 1, 300, 2, 1),
            start(SPAN_SESSION, 1, 3, 1),
            end(SPAN_SESSION, 1, 100, 3, 1),
            end(SPAN_PERSONALIZE, 0, 1000, 1, 0),
        ] {
            recorder.on_event(&e);
        }
        recorder
    }

    #[test]
    fn self_time_accounting() {
        let r = nested().report();
        let root = r.stage(SPAN_PERSONALIZE).unwrap();
        assert_eq!((root.count, root.total_nanos, root.depth), (1, 1000, 0));
        let s = r.stage(SPAN_SESSION).unwrap();
        assert_eq!(
            (s.count, s.total_nanos, s.min_nanos, s.max_nanos),
            (2, 400, 100, 300)
        );
        let by_path: BTreeMap<&str, &PathProfile> =
            r.paths.iter().map(|p| (p.path.as_str(), p)).collect();
        assert_eq!(by_path["personalize"].self_nanos, 600);
        assert_eq!(by_path["personalize"].total_nanos, 1000);
        assert_eq!(by_path["personalize;session"].self_nanos, 400);
        assert_eq!(by_path["personalize;session"].count, 2);
        assert_eq!(
            r.collapsed_stacks(),
            "personalize 600\npersonalize;session 400\n"
        );
        // One thread, busy = sum of self times = 1000: no double counting.
        assert_eq!(r.threads.len(), 1);
        assert_eq!(r.threads[0].thread, "main");
        assert_eq!(r.threads[0].busy_nanos, 1000);
        assert_eq!(r.threads[0].spans, 3);
    }

    #[test]
    fn paths_follow_causal_parents_not_arrival_order() {
        // Two children of one parent interleave (as on two workers); each
        // still lands under the parent, and an end without a start counts.
        let recorder = Recorder::new();
        for e in [
            end(SPAN_FUSION, 3, 50, 99, 98),
            start(SPAN_PERSONALIZE, 0, 1, 0),
            start(SPAN_SESSION, 1, 2, 1),
            start(SPAN_CHANNEL_ESTIMATE, 2, 3, 2),
            start(SPAN_CHANNEL_ESTIMATE, 2, 4, 2),
            end(SPAN_CHANNEL_ESTIMATE, 2, 10, 3, 2),
            end(SPAN_CHANNEL_ESTIMATE, 2, 20, 4, 2),
            end(SPAN_SESSION, 1, 40, 2, 1),
            end(SPAN_PERSONALIZE, 0, 100, 1, 0),
        ] {
            recorder.on_event(&e);
        }
        let r = recorder.report();
        let paths: Vec<&str> = r.paths.iter().map(|p| p.path.as_str()).collect();
        assert_eq!(
            paths,
            [
                "fusion",
                "personalize",
                "personalize;session",
                "personalize;session;channel.estimate"
            ]
        );
        assert_eq!(r.paths[3].count, 2);
        assert_eq!(r.paths[2].self_nanos, 10);
        assert_eq!(r.stage(SPAN_FUSION).unwrap().count, 1);
    }

    #[test]
    fn stages_sorted_by_depth_then_name() {
        let recorder = Recorder::new();
        for e in [
            start(SPAN_PERSONALIZE, 0, 1, 0),
            start(SPAN_SESSION, 1, 2, 1),
            end(SPAN_SESSION, 1, 10, 2, 1),
            start(SPAN_FUSION, 1, 3, 1),
            end(SPAN_FUSION, 1, 10, 3, 1),
            end(SPAN_PERSONALIZE, 0, 100, 1, 0),
        ] {
            recorder.on_event(&e);
        }
        let report = recorder.report();
        let names: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["personalize", "fusion", "session"]);
    }

    #[test]
    fn percentiles_from_many_samples() {
        let recorder = Recorder::new();
        recorder.on_event(&start(SPAN_PERSONALIZE, 0, 1, 0));
        for i in 1..=100u64 {
            recorder.on_event(&start(SPAN_SESSION, 1, 1 + i, 1));
            recorder.on_event(&end(SPAN_SESSION, 1, u128::from(i) * 1_000_000, 1 + i, 1));
        }
        recorder.on_event(&end(SPAN_PERSONALIZE, 0, 200_000_000, 1, 0));
        let s = recorder.report().stage(SPAN_SESSION).unwrap().clone();
        assert_eq!(s.count, 100);
        let tol = 1.0 / 200.0; // generous vs LogHistogram's 1/256 bound
        for (got, want) in [
            (s.p50_nanos, 50_000_000.0),
            (s.p90_nanos, 90_000_000.0),
            (s.p99_nanos, 99_000_000.0),
        ] {
            let err = (got as f64 - want).abs() / want;
            assert!(err <= tol, "{got} vs {want}: err {err}");
        }
        assert!(s.p50_nanos <= s.p90_nanos && s.p90_nanos <= s.p99_nanos);
        assert_eq!((s.min_nanos, s.max_nanos), (1_000_000, 100_000_000));
    }

    #[test]
    fn counters_metrics_and_overhead_reach_every_view() {
        let recorder = Arc::new(Recorder::new());
        crate::with_sink(recorder.clone(), || {
            {
                let _s = crate::span(SPAN_FUSION);
            }
            crate::counter(SESSION_STOPS, 3);
            crate::counter(SESSION_STOPS, 4);
            crate::metric(FUSION_OBJECTIVE, 4.0, "deg2");
            crate::metric(FUSION_OBJECTIVE, 2.5, "deg2");
        });
        let r = recorder.report();
        assert_eq!(r.counters[SESSION_STOPS], 7);
        assert_eq!(r.stage(SPAN_FUSION).unwrap().count, 1);
        let agg = r.metrics[FUSION_OBJECTIVE];
        assert_eq!(
            (agg.count, agg.min, agg.max, agg.mean()),
            (2, 2.5, 4.0, 3.25)
        );
        assert_eq!(r.dropped, 0);
        let overhead = r.metrics[OBS_TELEMETRY_OVERHEAD_NS];
        assert_eq!((overhead.count, overhead.max), (1, r.overhead_ns as f64));

        let text = r.prometheus();
        for needle in [
            "# TYPE uniq_session_stops counter",
            "uniq_session_stops 7",
            "uniq_fusion_objective_count 2",
            "uniq_fusion_objective{quantile=\"0\"} 2.5",
            "uniq_fusion_ns_count 1",
            "uniq_obs_telemetry_overhead_ns",
            "uniq_telemetry_dropped_events 0",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        let doc = Json::parse(&r.telemetry_json()).unwrap();
        let counters = doc.get("counters").unwrap();
        assert_eq!(counters.get(SESSION_STOPS).and_then(Json::as_u64), Some(7));
        let fusion = doc.get("spans").unwrap().get(SPAN_FUSION).unwrap();
        assert_eq!(fusion.get("count").and_then(Json::as_u64), Some(1));
        assert!(doc.get("overhead_ns").is_some());
    }

    #[test]
    fn unregistered_names_are_dropped_and_counted() {
        let recorder = Arc::new(Recorder::new());
        crate::with_sink(recorder.clone(), || {
            crate::counter("made.up_counter", 1);
            crate::metric("made.up_metric", 1.0, "");
            let _s = crate::span("made.up_span");
        });
        let r = recorder.report();
        assert!(r.counters.is_empty() && r.stages.is_empty() && r.paths.is_empty());
        // Only the self-overhead metric survives.
        assert_eq!(r.metrics.len(), 1);
        assert!(r.metrics.contains_key(OBS_TELEMETRY_OVERHEAD_NS));
        assert_eq!(r.dropped, 3);
        assert!(r.render_table().contains("dropped: 3"));
    }

    #[test]
    fn table_and_json_render_the_report() {
        let recorder = nested();
        recorder.on_event(&Event::Counter {
            name: SESSION_STOPS,
            delta: 7,
        });
        recorder.on_event(&Event::Metric {
            name: FUSION_OBJECTIVE,
            value: 2.5,
            unit: "deg2",
        });
        let report = recorder.report();
        let text = report.render_table();
        for needle in [
            "per-stage wall clock:",
            "p50",
            "p99",
            "  personalize",
            "    session",
            "threads:",
            "metrics:",
            "fusion.objective",
            "counters:",
            "session.stops",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(!text.contains("alloc-b"), "alloc columns must be opt-in");

        let doc = Json::parse(&report.to_json()).expect("self-emitted JSON");
        assert_eq!(
            doc.get("schema_version").unwrap().as_u64(),
            Some(PROFILE_SCHEMA_VERSION)
        );
        let stages = doc.get("stages").unwrap().as_array().unwrap();
        assert_eq!(stages.len(), 2);
        let root = &stages[0];
        assert_eq!(root.get("name").unwrap().as_str(), Some("personalize"));
        assert_eq!(root.get("total_ns").unwrap().as_u64(), Some(1000));
        assert!(root.get("p50_ns").unwrap().as_u64().is_some());
        let counters = doc.get("counters").unwrap();
        assert_eq!(counters.get(SESSION_STOPS).unwrap().as_u64(), Some(7));
        let threads = doc.get("threads").unwrap().as_array().unwrap();
        assert_eq!(threads[0].get("thread").unwrap().as_str(), Some("main"));
    }

    fn sample_alloc() -> AllocSnapshot {
        let mut snap = AllocSnapshot::default();
        snap.stages.insert(
            SPAN_SESSION.to_string(),
            StageAlloc {
                allocs: 3,
                bytes: 768,
                frees: 1,
                freed_bytes: 256,
                peak_live_bytes: 512,
                largest_bytes: 512,
            },
        );
        snap.stages.insert(
            SPAN_PERSONALIZE.to_string(),
            StageAlloc {
                allocs: 1,
                bytes: 64,
                ..Default::default()
            },
        );
        snap.unattributed.allocs = 2;
        snap.unattributed.bytes = 128;
        snap.peak_live_bytes = 640;
        snap
    }

    #[test]
    fn attached_alloc_shows_in_table_json_and_flame() {
        let mut report = nested().report();
        assert_eq!(report.alloc_collapsed_stacks(), "");
        let mut snap = sample_alloc();
        // A stage no path ends in: bare-line fallback.
        snap.stages.insert(
            "orphan.stage".to_string(),
            StageAlloc {
                allocs: 1,
                bytes: 32,
                ..Default::default()
            },
        );
        report.attach_alloc(snap);
        let table = report.render_table();
        for needle in ["alloc-b", "768", "per-stage allocations:", "(unattributed)"] {
            assert!(table.contains(needle), "missing {needle:?} in:\n{table}");
        }
        let doc = Json::parse(&report.to_json()).expect("self-emitted JSON");
        let alloc = doc.get("alloc").expect("alloc section present");
        assert_eq!(
            alloc.get("schema_version").unwrap().as_u64(),
            Some(crate::alloc::ALLOC_SCHEMA_VERSION)
        );
        assert_eq!(alloc.get("peak_live_bytes").unwrap().as_u64(), Some(640));
        let lines: Vec<String> = report
            .alloc_collapsed_stacks()
            .lines()
            .map(String::from)
            .collect();
        assert_eq!(
            lines,
            [
                "orphan.stage 32",
                "personalize 64",
                "personalize;session 768",
                "(unattributed) 128"
            ]
        );
    }

    #[test]
    fn determinism_key_ignores_threads_and_arrival_order() {
        let record = |pooled: bool| {
            let recorder = Arc::new(Recorder::new());
            crate::with_sink(recorder.clone(), || {
                let ctx = crate::capture();
                std::thread::scope(|s| {
                    for (lane, v) in [(0u64, 1.5), (1, 2.5)] {
                        let ctx = ctx.clone();
                        let work = move || {
                            ctx.run_indexed(lane, || {
                                if lane == 0 {
                                    crate::counter(SESSION_STOPS, 4);
                                }
                                crate::metric(FUSION_OBJECTIVE, v, "deg2");
                            })
                        };
                        if pooled {
                            s.spawn(work);
                        } else {
                            work();
                        }
                    }
                });
            });
            recorder.report().determinism_key()
        };
        assert_eq!(record(false), record(true));
    }

    #[test]
    fn worker_samples_get_worker_labels() {
        let recorder = Arc::new(Recorder::new());
        crate::with_sink(recorder.clone(), || {
            let _root = crate::span(SPAN_PERSONALIZE);
            let ctx = crate::capture();
            std::thread::scope(|s| {
                for lane in 0..2u64 {
                    let ctx = ctx.clone();
                    s.spawn(move || {
                        crate::mark_pool_worker(lane as usize);
                        ctx.run_indexed(lane, || {
                            let _span = crate::span(SPAN_SESSION);
                        })
                    });
                }
            });
        });
        let r = recorder.report();
        let session = r.stage(SPAN_SESSION).unwrap();
        let labels: Vec<&str> = session.threads.iter().map(|t| t.thread.as_str()).collect();
        assert_eq!(labels, ["worker-0", "worker-1"]);
        // Worker spans stitch under the submitting span.
        assert!(r
            .paths
            .iter()
            .any(|p| p.path == "personalize;session" && p.count == 2));
    }
}
