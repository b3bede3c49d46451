//! Allocation-profile data: the per-stage [`AllocSnapshot`] that
//! `uniq-memprof`'s counting allocator produces and the recorder folds
//! into its report.
//!
//! Per-stage allocation count and bytes are a pure function of the
//! workload — bit-identical across runs and thread counts — and are the
//! hard-gate columns. Peak-live bytes depend on which stages overlap in
//! time, and frees may be charged to a different stage than the
//! allocation, so those columns are warn-tier evidence only.

use crate::sink::json_escape;
use std::collections::BTreeMap;

/// Schema stamp on [`AllocSnapshot::to_json`] output; bump on any
/// incompatible shape change so downstream readers can refuse early.
pub const ALLOC_SCHEMA_VERSION: u64 = 1;

/// Allocation statistics for one stage (or one synthetic row).
///
/// `allocs`/`bytes` are the deterministic hard-gate columns; the rest are
/// warn-tier (see the module docs for why).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageAlloc {
    /// Number of allocations charged to this stage.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
    /// Frees charged to this stage (the freeing thread's stage, which may
    /// differ from the allocating stage).
    pub frees: u64,
    /// Bytes released by those frees.
    pub freed_bytes: u64,
    /// Peak of this stage's attributed live bytes (allocated − freed; may
    /// ride on cross-stage frees, hence signed underneath). Warn-tier.
    pub peak_live_bytes: i64,
    /// Largest single allocation charged to this stage, bytes.
    pub largest_bytes: u64,
}

impl StageAlloc {
    /// Associative, commutative merge: sums for the flow counters, maxima
    /// for the peaks (the fold behind [`AllocSnapshot::total`]; its algebra
    /// is pinned by uniq-memprof's property tests).
    pub fn merged(&self, other: &StageAlloc) -> StageAlloc {
        StageAlloc {
            allocs: self.allocs + other.allocs,
            bytes: self.bytes + other.bytes,
            frees: self.frees + other.frees,
            freed_bytes: self.freed_bytes + other.freed_bytes,
            peak_live_bytes: self.peak_live_bytes.max(other.peak_live_bytes),
            largest_bytes: self.largest_bytes.max(other.largest_bytes),
        }
    }
}

/// A merged snapshot of the allocation profiler's counters
/// (`uniq_memprof::snapshot`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Per-stage statistics, keyed by span name.
    pub stages: BTreeMap<String, StageAlloc>,
    /// Allocations made with no open span or under suspended attribution
    /// (observability/pool infrastructure, harness threads). No gate
    /// compares this row.
    pub unattributed: StageAlloc,
    /// Allocations whose stage could not be slotted (name-table overflow;
    /// zero in any sane configuration).
    pub overflow: StageAlloc,
    /// Process-wide peak of live heap bytes while recording (not the sum
    /// of per-stage peaks). Warn-tier.
    pub peak_live_bytes: i64,
}

impl AllocSnapshot {
    /// Looks up one stage by span name.
    pub fn stage(&self, name: &str) -> Option<&StageAlloc> {
        self.stages.get(name)
    }

    /// The deterministic totals across attributed stages (sum of
    /// count/bytes/frees; max of largest). Excludes the unattributed and
    /// overflow rows by construction.
    pub fn total(&self) -> StageAlloc {
        let mut out = StageAlloc::default();
        for stats in self.stages.values() {
            out = out.merged(stats);
        }
        out
    }

    /// Emits the snapshot's summary into the active `uniq-obs` sink under
    /// the registered `alloc.*` names (wrapped in the
    /// [`crate::names::SPAN_ALLOC_SNAPSHOT`] span), so allocation
    /// aggregates flow into the recorder, its Prometheus view, and
    /// JSONL traces exactly like every other plane.
    pub fn emit_obs_summary(&self) {
        use crate::names;
        let _span = crate::span(names::SPAN_ALLOC_SNAPSHOT);
        let total = self.total();
        crate::counter(names::ALLOC_TOTAL_COUNT, total.allocs);
        crate::counter(names::ALLOC_TOTAL_BYTES, total.bytes);
        crate::counter(names::ALLOC_TOTAL_FREES, total.frees);
        crate::metric(
            names::ALLOC_PEAK_LIVE_BYTES,
            self.peak_live_bytes.max(0) as f64,
            "bytes",
        );
        crate::metric(
            names::ALLOC_LARGEST_SINGLE_BYTES,
            total.largest_bytes as f64,
            "bytes",
        );
        crate::metric(
            names::ALLOC_UNATTRIBUTED_BYTES,
            self.unattributed.bytes as f64,
            "bytes",
        );
    }

    /// Human-readable per-stage table, matching the recorder's latency
    /// table:
    ///
    /// ```text
    /// per-stage allocations:
    ///   stage                          allocs      bytes      frees  peak-live    largest
    ///   personalize                        12      18432         10      16384       8192
    ///   ...
    ///   (unattributed)                    340     122880        338      65536       4096
    /// peak live: 1.2 MB
    /// ```
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("per-stage allocations:\n");
        out.push_str(&format!(
            "  {:<30} {:>8} {:>12} {:>8} {:>12} {:>10}\n",
            "stage", "allocs", "bytes", "frees", "peak-live", "largest"
        ));
        let mut row = |label: &str, s: &StageAlloc| {
            out.push_str(&format!(
                "  {:<30} {:>8} {:>12} {:>8} {:>12} {:>10}\n",
                label, s.allocs, s.bytes, s.frees, s.peak_live_bytes, s.largest_bytes
            ));
        };
        for (name, stats) in &self.stages {
            row(name, stats);
        }
        if self.unattributed != StageAlloc::default() {
            row("(unattributed)", &self.unattributed);
        }
        if self.overflow != StageAlloc::default() {
            row("(overflow)", &self.overflow);
        }
        out.push_str(&format!("peak live: {} bytes\n", self.peak_live_bytes));
        out
    }

    /// Machine-readable JSON (schema [`ALLOC_SCHEMA_VERSION`]); parse it
    /// back with [`crate::json::Json::parse`].
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"schema_version\": {ALLOC_SCHEMA_VERSION},\n  \"stages\": ["
        ));
        let stage_json = |name: &str, s: &StageAlloc| {
            format!(
                "\n    {{\"name\": \"{}\", \"allocs\": {}, \"bytes\": {}, \"frees\": {}, \
                 \"freed_bytes\": {}, \"peak_live_bytes\": {}, \"largest_bytes\": {}}}",
                json_escape(name),
                s.allocs,
                s.bytes,
                s.frees,
                s.freed_bytes,
                s.peak_live_bytes,
                s.largest_bytes
            )
        };
        for (i, (name, stats)) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&stage_json(name, stats));
        }
        out.push_str("\n  ],");
        out.push_str(&format!(
            "\n  \"unattributed\": {},",
            stage_json("(unattributed)", &self.unattributed).trim_start_matches(['\n', ' '])
        ));
        out.push_str(&format!(
            "\n  \"overflow\": {},",
            stage_json("(overflow)", &self.overflow).trim_start_matches(['\n', ' '])
        ));
        out.push_str(&format!(
            "\n  \"peak_live_bytes\": {}\n}}\n",
            self.peak_live_bytes
        ));
        out
    }

    /// CSV export (one row per stage plus the synthetic rows), the format
    /// the `alloc-profile` experiment writes to `bench_results/`.
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("stage,allocs,bytes,frees,freed_bytes,peak_live_bytes,largest_bytes\n");
        let mut row = |label: &str, s: &StageAlloc| {
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                label,
                s.allocs,
                s.bytes,
                s.frees,
                s.freed_bytes,
                s.peak_live_bytes,
                s.largest_bytes
            ));
        };
        for (name, stats) in &self.stages {
            row(name, stats);
        }
        row("(unattributed)", &self.unattributed);
        row("(overflow)", &self.overflow);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_through_json_parser() {
        let mut snap = AllocSnapshot::default();
        snap.stages.insert(
            "fusion".to_string(),
            StageAlloc {
                allocs: 4,
                bytes: 4096,
                frees: 2,
                freed_bytes: 2048,
                peak_live_bytes: 2048,
                largest_bytes: 1024,
            },
        );
        snap.peak_live_bytes = 9000;
        let doc = crate::json::Json::parse(&snap.to_json()).expect("self-emitted JSON");
        assert_eq!(
            doc.get("schema_version").unwrap().as_u64(),
            Some(ALLOC_SCHEMA_VERSION)
        );
        let stages = doc.get("stages").unwrap().as_array().unwrap();
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].get("name").unwrap().as_str(), Some("fusion"));
        assert_eq!(stages[0].get("bytes").unwrap().as_u64(), Some(4096));
        assert_eq!(doc.get("peak_live_bytes").unwrap().as_u64(), Some(9000));
        assert!(doc.get("unattributed").is_some());
    }

    #[test]
    fn csv_and_table_render_every_stage() {
        let mut snap = AllocSnapshot::default();
        snap.stages
            .insert("session".to_string(), StageAlloc::default());
        snap.stages.insert(
            "fusion".to_string(),
            StageAlloc {
                allocs: 1,
                bytes: 64,
                ..StageAlloc::default()
            },
        );
        let csv = snap.to_csv();
        assert!(csv.starts_with("stage,allocs,bytes"));
        assert!(csv.contains("fusion,1,64"));
        assert!(csv.contains("(unattributed)"));
        let table = snap.render_table();
        assert!(table.contains("per-stage allocations:"));
        assert!(table.contains("fusion"));
    }
}
