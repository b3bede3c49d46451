//! Benchmark baselines: a pinned, deterministic workload matrix whose
//! performance *and* quality numbers are checked into the repo as
//! `BENCH_BASELINE.json`, plus the comparator that turns a fresh run
//! into a CI verdict.
//!
//! The contract (enforced by `scripts/ci.sh` via the `baseline` binary):
//!
//! - **Quality drift is a hard failure.** Localization medians, AoA
//!   error, HRIR similarity, and the batch output fingerprints are pure
//!   functions of the pinned seeds; any relative drift beyond
//!   [`DEFAULT_QUALITY_TOL`] (fingerprints: any drift at all) exits
//!   non-zero.
//! - **Performance drift is a warning** unless `--strict`: wall-clock
//!   numbers depend on the machine, so the default tolerance
//!   ([`DEFAULT_PERF_TOL`]) is generous and advisory.
//!
//! Refresh the checked-in file after an intentional change with
//! `cargo run --release -p uniq-bench --bin baseline -- bless`.

use std::sync::Arc;
use uniq_core::batch::{hrtf_fingerprint, personalize_batch, BatchOutcome};
use uniq_core::config::UniqConfig;
use uniq_core::pipeline::{personalize_with_retry, PersonalizationResult};
use uniq_dsp::stats::median;
use uniq_geometry::vec2::angle_diff_deg;
use uniq_obs::json::Json;
use uniq_obs::sink::{json_escape, json_number};
use uniq_obs::Recorder;
use uniq_obs::Stopwatch;
use uniq_subjects::Subject;

/// Schema stamp on `BENCH_BASELINE.json` (bump on shape changes).
/// v2 added the `alloc` section (per-stage allocation gates); v3 the
/// `serve` section (server response-fingerprint and admission gates).
pub const BASELINE_SCHEMA_VERSION: u64 = 3;

/// Default relative tolerance for quality numbers: tight, because they
/// are deterministic functions of the seeds — the slack only absorbs
/// float-environment differences, not behavior changes.
pub const DEFAULT_QUALITY_TOL: f64 = 0.02;

/// Default relative tolerance for performance numbers: wall time varies
/// with the machine and its load, so only call out large swings.
pub const DEFAULT_PERF_TOL: f64 = 0.5;

/// The checked-in baseline file, relative to the workspace root.
pub const BASELINE_FILE: &str = "BENCH_BASELINE.json";

/// The pinned workload matrix. [`BaselineSpec::pinned`] is what CI and
/// the checked-in baseline use; tests shrink it.
#[derive(Debug, Clone)]
pub struct BaselineSpec {
    /// Seed of the single-subject personalization runs.
    pub seed: u64,
    /// Subjects (seeds `seed..seed+n`) in the batch runs.
    pub batch_subjects: u64,
    /// Pool sizes the batch and personalize runs are measured at.
    pub thread_counts: Vec<usize>,
    /// Output grid step, degrees (coarse: this is a regression gate, not
    /// an evaluation).
    pub grid_step_deg: f64,
    /// Simulated measurement SNR, dB.
    pub snr_db: f64,
    /// Source angles of the known-source AoA sweep, degrees.
    pub aoa_angles: Vec<f64>,
    /// Angles where personalized HRIRs are correlated against the
    /// subject's ground truth, degrees.
    pub sim_angles: Vec<f64>,
    /// Pool sizes the allocation profile is measured at; per-stage alloc
    /// count/bytes must be bit-identical across all of them (the hard
    /// memory gate). Only used when the `uniq-memprof` counting allocator
    /// is installed in the running binary.
    pub alloc_threads: Vec<usize>,
    /// Shard workers of the serve workload's in-process server.
    pub serve_shards: usize,
    /// Subjects the serve workload requests — each twice (repeat ratio
    /// 1.0), so cache hits are pinned to exactly this count.
    pub serve_subjects: u64,
}

impl BaselineSpec {
    /// The workload matrix behind the checked-in `BENCH_BASELINE.json`.
    pub fn pinned() -> Self {
        BaselineSpec {
            seed: 6,
            batch_subjects: 4,
            thread_counts: vec![1, 4],
            grid_step_deg: 15.0,
            snr_db: 45.0,
            aoa_angles: vec![20.0, 60.0, 100.0, 140.0],
            sim_angles: vec![0.0, 45.0, 90.0, 135.0, 180.0],
            alloc_threads: vec![1, 8],
            serve_shards: 2,
            serve_subjects: 2,
        }
    }

    /// A minimal matrix for unit tests (single thread count, one batch
    /// subject, short sweeps).
    pub fn quick() -> Self {
        BaselineSpec {
            seed: 6,
            batch_subjects: 1,
            thread_counts: vec![1],
            grid_step_deg: 15.0,
            snr_db: 45.0,
            aoa_angles: vec![60.0],
            sim_angles: vec![90.0],
            alloc_threads: vec![1, 2],
            serve_shards: 1,
            serve_subjects: 1,
        }
    }

    /// The pipeline configuration behind the pinned workload — public so
    /// golden tests can re-run the exact checked-in workload.
    pub fn config(&self, threads: usize) -> UniqConfig {
        UniqConfig {
            in_room: false,
            grid_step_deg: self.grid_step_deg,
            snr_db: self.snr_db,
            threads,
            ..UniqConfig::default()
        }
    }
}

/// Personalizes the spec's pinned subject (single-threaded, the
/// fingerprinted configuration) and persists the result into the
/// content-addressed store at `dir` — so the checked-in baseline's HRTF
/// exists as an on-disk `.uhrtf` artifact, and re-running on the same
/// code is a pure dedup hit.
pub fn persist_to_store(
    spec: &BaselineSpec,
    dir: &std::path::Path,
) -> Result<(uniq_store::PutOutcome, u64), String> {
    let cfg = spec.config(1);
    let subject = Subject::from_seed(spec.seed);
    let result = personalize_with_retry(&subject, &cfg, spec.seed, 3)
        .map_err(|e| format!("personalization failed: {e}"))?;
    let artifact =
        uniq_store::HrtfArtifact::from_result(spec.seed, &result, cfg.content_hash(), None);
    let store = uniq_store::Store::open(dir).map_err(|e| e.to_string())?;
    let outcome = store.put(&artifact).map_err(|e| e.to_string())?;
    Ok((outcome, artifact.subject_fingerprint))
}

/// Wraps a single personalization result so
/// [`uniq_core::batch::hrtf_fingerprint`] can digest it: every HRIR bit,
/// localization estimate, and the radius fold into one number.
fn result_fingerprint(seed: u64, result: &PersonalizationResult) -> u64 {
    hrtf_fingerprint(&[BatchOutcome {
        seed,
        result: Ok(result.clone()),
        seconds: 0.0,
    }])
}

fn median_localization_error(result: &PersonalizationResult) -> (f64, f64) {
    let errs: Vec<f64> = result
        .localization
        .iter()
        .map(|(t, e)| angle_diff_deg(*t, *e))
        .collect();
    (median(&errs), uniq_dsp::stats::percentile(&errs, 90.0))
}

/// Known-source AoA error sweep over the personalized table.
fn aoa_errors(result: &PersonalizationResult, spec: &BaselineSpec, cfg: &UniqConfig) -> Vec<f64> {
    let table = &result.hrtf;
    spec.aoa_angles
        .iter()
        .map(|&theta| {
            let sig = uniq_acoustics::signals::generate(
                uniq_acoustics::signals::SignalKind::WhiteNoise,
                0.4,
                table.sample_rate(),
                spec.seed,
            );
            let rendered = table.synthesize(&sig, theta, true);
            let rec = uniq_acoustics::measure::BinauralRecording {
                left: rendered.left,
                right: rendered.right,
            };
            let est = uniq_core::aoa::estimate_known_source(&rec, &sig, table.far(), cfg);
            angle_diff_deg(est, theta)
        })
        .collect()
}

/// Mean peak-normalized correlation between the personalized far-field
/// HRIRs and the subject's ground truth at the spec's angles (both ears
/// averaged).
fn hrir_similarity(
    subject: &Subject,
    result: &PersonalizationResult,
    spec: &BaselineSpec,
    cfg: &UniqConfig,
) -> f64 {
    let truth = subject.ground_truth(cfg.render, &spec.sim_angles);
    let mut sum = 0.0;
    for (k, &angle) in spec.sim_angles.iter().enumerate() {
        let est = result.hrtf.far().nearest(angle).0;
        let (l, r) = est.similarity(&truth.irs()[k]);
        sum += (l + r) / 2.0;
    }
    sum / spec.sim_angles.len() as f64
}

/// Measures the allocation profile of the spec's personalize workload at
/// `threads`: one unmeasured run first (prewarming the pool and lazy
/// tables), then the measured run under a
/// [`uniq_obs::sink::NoopSink`] so spans stay enabled for stage
/// attribution even without another sink. Meaningful only when the
/// `uniq-memprof` counting allocator is installed in the running binary
/// (the snapshot is empty otherwise). Counters are process-global — the
/// caller serializes gate-grade measurements.
pub fn alloc_profile(spec: &BaselineSpec, threads: usize) -> uniq_memprof::AllocSnapshot {
    let cfg = spec.config(threads);
    let subject = Subject::from_seed(spec.seed);
    let sink = Arc::new(uniq_obs::sink::NoopSink);
    uniq_obs::with_sink(sink, || {
        personalize_with_retry(&subject, &cfg, spec.seed, 3).expect("baseline personalize failed");
        let (_, snap) = uniq_memprof::measure(|| {
            personalize_with_retry(&subject, &cfg, spec.seed, 3)
                .expect("baseline personalize failed")
        });
        snap
    })
}

/// Measures the allocation profile at each of `spec.alloc_threads` and
/// evaluates the thread-invariance predicate, with *steady-state
/// settlement*: if the first pass diverges, the whole matrix is measured
/// once more in the same process and the second pass is the verdict.
///
/// The settlement exists because process-lifetime lazy initialization —
/// a pool queue growing to its high-water mark, a thread-local stack's
/// first growth past its initial capacity — can allocate exactly once on
/// a scheduling-dependent path, and *which* measured run pays that
/// one-time cost is scheduler noise, not workload. A second pass cannot
/// pay it again, so the gate measures the steady state it documents; a
/// genuine regression (an allocation whose per-stage count varies with
/// the thread count) diverges on every pass and still fails hard.
pub fn alloc_profile_matrix(
    spec: &BaselineSpec,
) -> (Vec<(usize, uniq_memprof::AllocSnapshot)>, bool) {
    let measure = || -> Vec<(usize, uniq_memprof::AllocSnapshot)> {
        spec.alloc_threads
            .iter()
            .map(|&t| (t, alloc_profile(spec, t)))
            .collect()
    };
    let settled = |snaps: &[(usize, uniq_memprof::AllocSnapshot)]| {
        snaps.iter().all(|(_, s)| alloc_invariant(&snaps[0].1, s))
    };
    let mut snaps = measure();
    let mut invariant = settled(&snaps);
    if !invariant {
        snaps = measure();
        invariant = settled(&snaps);
    }
    (snaps, invariant)
}

/// Whether two snapshots agree bit-for-bit on the deterministic columns
/// (per-stage allocation count and bytes) — the thread-invariance
/// predicate behind the hard memory gate. Frees, peaks, and the
/// unattributed row are deliberately excluded (scheduling-dependent).
pub fn alloc_invariant(a: &uniq_memprof::AllocSnapshot, b: &uniq_memprof::AllocSnapshot) -> bool {
    a.stages.len() == b.stages.len()
        && a.stages
            .iter()
            .zip(&b.stages)
            .all(|((ka, sa), (kb, sb))| ka == kb && sa.allocs == sb.allocs && sa.bytes == sb.bytes)
}

/// Renders the baseline document's `alloc` section from the snapshots
/// measured at each of `spec.alloc_threads` (first snapshot provides the
/// recorded numbers; `thread_invariant` reports the in-run cross-thread
/// hard gate).
fn alloc_section_json(
    spec: &BaselineSpec,
    snaps: &[(usize, uniq_memprof::AllocSnapshot)],
    invariant: bool,
) -> String {
    let first = &snaps[0].1;
    let total = first.total();
    let stages = first
        .stages
        .iter()
        .map(|(name, s)| {
            format!(
                "{{\"name\": \"{}\", \"allocs\": {}, \"bytes\": {}, \"peak_live_bytes\": {}}}",
                json_escape(name),
                s.allocs,
                s.bytes,
                s.peak_live_bytes
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\n    \"thread_counts\": [{}],\n    \"thread_invariant\": {},\n    \
         \"total_allocs\": {},\n    \"total_bytes\": {},\n    \"peak_live_bytes\": {},\n    \
         \"stages\": [{}]\n  }}",
        spec.alloc_threads
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        invariant,
        total.allocs,
        total.bytes,
        first.peak_live_bytes,
        stages,
    )
}

/// Runs the pinned serve workload — an in-process sharded server over a
/// scratch result store, driven by the deterministic closed-loop load
/// generator at repeat ratio 1.0 (every subject requested twice, so the
/// second hit of each is a store lookup) — and renders the document's
/// `serve` section. Fingerprint, request, cache-hit, and shed counts are
/// exact functions of the spec; throughput and latency are wall clock.
fn serve_section_json(spec: &BaselineSpec) -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    // Unique per call: the quick test runs two baselines in one process
    // and each must start from a cold store.
    static CALL: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir().join(format!(
        "uniq_baseline_serve_{}_{}",
        std::process::id(),
        CALL.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = std::fs::remove_dir_all(&root);
    let cfg = uniq_serve::ServeConfig {
        shards: spec.serve_shards,
        base: spec.config(1),
        store_dir: Some(root.clone()),
        ..Default::default()
    };
    let server =
        uniq_serve::Server::start("127.0.0.1:0", cfg).expect("start baseline serve workload");
    let lg = uniq_serve::LoadgenConfig {
        addr: server.local_addr().to_string(),
        subjects: spec.serve_subjects,
        seed_base: spec.seed,
        clients: spec.serve_shards,
        repeat: 1.0,
        ..Default::default()
    };
    let report = uniq_serve::loadgen::run(&lg).expect("baseline loadgen failed");
    let drain = server.shutdown();
    let _ = std::fs::remove_dir_all(&root);

    assert_eq!(
        report.fingerprint_conflicts, 0,
        "baseline serve workload returned conflicting fingerprints"
    );
    let fingerprint = uniq_serve::fold_fingerprints(&drain.fingerprints);
    assert_eq!(
        fingerprint,
        uniq_serve::fold_fingerprints(&report.fingerprints),
        "server and load generator disagree on the population fingerprint"
    );
    format!(
        "{{\n    \"shards\": {},\n    \"subjects\": {},\n    \
         \"fingerprint\": \"{:#018x}\",\n    \"requests\": {},\n    \
         \"cache_hits\": {},\n    \"shed\": {},\n    \
         \"subjects_per_second\": {},\n    \"p50_ms\": {},\n    \"p99_ms\": {}\n  }}",
        spec.serve_shards,
        spec.serve_subjects,
        fingerprint,
        drain.stats.requests,
        drain.stats.cache_hits,
        drain.stats.shed,
        json_number(report.subjects_per_second),
        json_number(report.p50_ms),
        json_number(report.p99_ms),
    )
}

/// Runs the workload matrix and renders the baseline document. Quality
/// numbers are pure functions of the spec's seeds; perf numbers are
/// wall-clock measurements of this machine. The `alloc` section appears
/// only when the `uniq-memprof` counting allocator is installed (the
/// `baseline` and `uniq` binaries install it; in-process test harnesses
/// usually do not).
pub fn run_baseline(spec: &BaselineSpec) -> String {
    let mut quality: Vec<(String, String)> = Vec::new();
    let mut perf: Vec<(String, String)> = Vec::new();

    // --- personalize at each pool size, the first under the recorder.
    let subject = Subject::from_seed(spec.seed);
    let mut first_result: Option<PersonalizationResult> = None;
    let mut stages_json = String::from("[]");
    let mut fingerprints = Vec::new();
    for (i, &threads) in spec.thread_counts.iter().enumerate() {
        let cfg = spec.config(threads);
        let sw = Stopwatch::start();
        let result = if i == 0 {
            let profile = Arc::new(Recorder::new());
            let result = uniq_obs::with_sink(profile.clone(), || {
                personalize_with_retry(&subject, &cfg, spec.seed, 3)
            })
            .expect("baseline personalize failed");
            let report = profile.report();
            stages_json = format!(
                "[{}]",
                report
                    .stages
                    .iter()
                    .map(|s| format!(
                        "{{\"name\": \"{}\", \"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}}}",
                        json_escape(&s.name),
                        s.count,
                        s.p50_nanos,
                        s.p99_nanos
                    ))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            result
        } else {
            personalize_with_retry(&subject, &cfg, spec.seed, 3)
                .expect("baseline personalize failed")
        };
        perf.push((
            format!("personalize_seconds_t{threads}"),
            json_number(sw.elapsed_seconds()),
        ));
        fingerprints.push(result_fingerprint(spec.seed, &result));
        if first_result.is_none() {
            first_result = Some(result);
        }
    }
    // thread_counts is never empty, so the loop above ran at least once
    let result = first_result.expect("at least one thread count");
    let deterministic = fingerprints.iter().all(|&f| f == fingerprints[0]);
    quality.push((
        "personalize_fingerprint".into(),
        format!("\"{:#018x}\"", fingerprints[0]),
    ));
    quality.push((
        "personalize_thread_invariant".into(),
        deterministic.to_string(),
    ));

    let (loc_median, loc_p90) = median_localization_error(&result);
    quality.push(("localization_median_deg".into(), json_number(loc_median)));
    quality.push(("localization_p90_deg".into(), json_number(loc_p90)));
    quality.push((
        "fusion_mean_residual_deg".into(),
        json_number(result.fusion.mean_residual_deg),
    ));
    quality.push(("radius_m".into(), json_number(result.radius_m)));
    quality.push(("attempts".into(), result.attempts.to_string()));

    let cfg_eval = spec.config(1);
    let aoa = aoa_errors(&result, spec, &cfg_eval);
    quality.push(("aoa_known_median_deg".into(), json_number(median(&aoa))));
    quality.push((
        "hrir_similarity_mean".into(),
        json_number(hrir_similarity(&subject, &result, spec, &cfg_eval)),
    ));

    // --- batch throughput and output fingerprint per pool size.
    let seeds: Vec<u64> = (0..spec.batch_subjects)
        .map(|i| spec.seed.wrapping_add(i))
        .collect();
    let batch_cfg = spec.config(1); // subject-level parallelism only
    for &threads in &spec.thread_counts {
        let sw = Stopwatch::start();
        let outcomes = personalize_batch(&seeds, &batch_cfg, threads, 3);
        let secs = sw.elapsed_seconds();
        perf.push((
            format!("batch_subjects_per_second_t{threads}"),
            json_number(outcomes.len() as f64 / secs.max(1e-12)),
        ));
        quality.push((
            format!("batch_fingerprint_t{threads}"),
            format!("\"{:#018x}\"", hrtf_fingerprint(&outcomes)),
        ));
    }

    // --- allocation profile, measured at each alloc thread count. Gated
    // on the counting allocator actually being installed: without it the
    // snapshots would be all-zero and the gate meaningless.
    let alloc_section = if uniq_memprof::installed() {
        let (snaps, invariant) = alloc_profile_matrix(spec);
        format!(
            ",\n  \"alloc\": {}",
            alloc_section_json(spec, &snaps, invariant)
        )
    } else {
        String::new()
    };

    // --- the serve workload: sharded server + closed-loop load over a
    // scratch store (see serve_section_json).
    let serve_section = serve_section_json(spec);

    let fields = |pairs: &[(String, String)]| {
        pairs
            .iter()
            .map(|(k, v)| format!("    \"{}\": {}", json_escape(k), v))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    format!(
        "{{\n  \"schema_version\": {BASELINE_SCHEMA_VERSION},\n  \"meta\": {{\n    \
         \"seed\": {},\n    \"batch_subjects\": {},\n    \"thread_counts\": [{}],\n    \
         \"grid_step_deg\": {},\n    \"snr_db\": {},\n    \"build\": \"{}\"\n  }},\n  \
         \"quality\": {{\n{}\n  }},\n  \"perf\": {{\n{},\n    \"stages\": {}\n  }}{},\n  \
         \"serve\": {}\n}}\n",
        spec.seed,
        spec.batch_subjects,
        spec.thread_counts
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        json_number(spec.grid_step_deg),
        json_number(spec.snr_db),
        json_escape(&crate::build_id()),
        fields(&quality),
        fields(&perf),
        stages_json,
        alloc_section,
        serve_section,
    )
}

/// The comparator's verdict: hard failures (quality) and advisory
/// warnings (performance).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CompareReport {
    /// Quality regressions — any entry fails CI.
    pub quality_failures: Vec<String>,
    /// Performance swings — advisory unless `--strict`.
    pub perf_warnings: Vec<String>,
}

impl CompareReport {
    /// Whether the comparison passes at the given strictness.
    pub fn passes(&self, strict: bool) -> bool {
        self.quality_failures.is_empty() && (!strict || self.perf_warnings.is_empty())
    }
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-12)
}

/// Compares every `section` member of `fresh` against `baseline`:
/// numbers by relative difference against `tol`, everything else
/// (strings, booleans) exactly. Missing members are always findings.
fn compare_section(
    baseline: &Json,
    fresh: &Json,
    section: &str,
    tol: f64,
    findings: &mut Vec<String>,
) {
    let Some(members) = baseline.as_object() else {
        findings.push(format!("baseline {section} is not an object"));
        return;
    };
    for (key, expected) in members {
        if key == "stages" {
            continue; // handled by compare_stages
        }
        let Some(got) = fresh.get(key) else {
            findings.push(format!("{section}.{key}: missing from fresh run"));
            continue;
        };
        match (expected, got) {
            (Json::Num(e), Json::Num(g)) => {
                let d = rel_diff(*e, *g);
                if d > tol {
                    findings.push(format!(
                        "{section}.{key}: baseline {e} vs fresh {g} (relative diff {d:.3} > {tol})"
                    ));
                }
            }
            (e, g) if e == g => {}
            (e, g) => findings.push(format!("{section}.{key}: baseline {e:?} vs fresh {g:?}")),
        }
    }
}

fn compare_stages(baseline: &Json, fresh: &Json, tol: f64, report: &mut CompareReport) {
    let base_stages = baseline
        .get("stages")
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    let fresh_stages = fresh.get("stages").and_then(Json::as_array).unwrap_or(&[]);
    for stage in base_stages {
        let Some(name) = stage.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(other) = fresh_stages
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
        else {
            // A stage that vanished is an instrumentation regression,
            // not a timing swing.
            report
                .quality_failures
                .push(format!("perf.stages.{name}: missing from fresh run"));
            continue;
        };
        for field in ["p50_ns", "p99_ns"] {
            let (Some(e), Some(g)) = (
                stage.get(field).and_then(Json::as_f64),
                other.get(field).and_then(Json::as_f64),
            ) else {
                continue;
            };
            let d = rel_diff(e, g);
            if d > tol {
                report.perf_warnings.push(format!(
                    "perf.stages.{name}.{field}: baseline {e} vs fresh {g} \
                     (relative diff {d:.3} > {tol})"
                ));
            }
        }
    }
}

/// The two-tier memory gate over the documents' `alloc` sections:
///
/// - **Hard** (quality failures): per-stage and total alloc count/bytes
///   must match *bit-identically* — they are pure functions of the
///   workload — and `thread_invariant` must hold in the fresh run. A
///   baseline with an alloc section also demands one from the fresh run.
/// - **Warn** (perf warnings, promoted by `--strict`): peak-live growth
///   beyond `perf_tol` — peak overlap is scheduling-dependent, so only
///   growth is flagged and only as advisory.
///
/// A baseline without an alloc section skips the gate entirely (documents
/// produced without the counting allocator installed).
fn compare_alloc(baseline: &Json, fresh: &Json, perf_tol: f64, report: &mut CompareReport) {
    let Some(base) = baseline.get("alloc") else {
        return;
    };
    let Some(got) = fresh.get("alloc") else {
        report.quality_failures.push(
            "alloc: section missing from fresh run (counting allocator not installed?)".into(),
        );
        return;
    };
    if got.get("thread_invariant") != Some(&Json::Bool(true)) {
        report.quality_failures.push(
            "alloc.thread_invariant: fresh run's per-stage allocations vary with the thread count"
                .into(),
        );
    }
    for key in ["total_allocs", "total_bytes"] {
        let (e, g) = (
            base.get(key).and_then(Json::as_u64),
            got.get(key).and_then(Json::as_u64),
        );
        if e != g {
            report
                .quality_failures
                .push(format!("alloc.{key}: baseline {e:?} vs fresh {g:?}"));
        }
    }
    let base_stages = base.get("stages").and_then(Json::as_array).unwrap_or(&[]);
    let fresh_stages = got.get("stages").and_then(Json::as_array).unwrap_or(&[]);
    for stage in base_stages {
        let Some(name) = stage.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(other) = fresh_stages
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
        else {
            report
                .quality_failures
                .push(format!("alloc.stages.{name}: missing from fresh run"));
            continue;
        };
        for field in ["allocs", "bytes"] {
            let (e, g) = (
                stage.get(field).and_then(Json::as_u64),
                other.get(field).and_then(Json::as_u64),
            );
            if e != g {
                report.quality_failures.push(format!(
                    "alloc.stages.{name}.{field}: baseline {e:?} vs fresh {g:?}"
                ));
            }
        }
    }
    if let (Some(e), Some(g)) = (
        base.get("peak_live_bytes").and_then(Json::as_f64),
        got.get("peak_live_bytes").and_then(Json::as_f64),
    ) {
        if e > 0.0 && g > e * (1.0 + perf_tol) {
            report.perf_warnings.push(format!(
                "alloc.peak_live_bytes: baseline {e} vs fresh {g} (growth beyond {perf_tol})"
            ));
        }
    }
}

/// The serve gate over the documents' `serve` sections:
///
/// - **Hard** (quality failures): the population fingerprint and the
///   request / cache-hit / shed counts must match *exactly* — they are
///   pure functions of the pinned workload, so any drift means the
///   server changed behavior (different results, a cache that stopped
///   hitting, spurious shedding).
/// - **Warn** (perf warnings, promoted by `--strict`): throughput and
///   latency drift beyond `perf_tol` — wall clock is machine-dependent.
///
/// A baseline without a serve section skips the gate (pre-v3 documents).
fn compare_serve(baseline: &Json, fresh: &Json, perf_tol: f64, report: &mut CompareReport) {
    let Some(base) = baseline.get("serve") else {
        return;
    };
    let Some(got) = fresh.get("serve") else {
        report
            .quality_failures
            .push("serve: section missing from fresh run".into());
        return;
    };
    for key in [
        "fingerprint",
        "shards",
        "subjects",
        "requests",
        "cache_hits",
        "shed",
    ] {
        let (e, g) = (base.get(key), got.get(key));
        if e != g {
            report
                .quality_failures
                .push(format!("serve.{key}: baseline {e:?} vs fresh {g:?}"));
        }
    }
    for key in ["subjects_per_second", "p50_ms", "p99_ms"] {
        let (Some(e), Some(g)) = (
            base.get(key).and_then(Json::as_f64),
            got.get(key).and_then(Json::as_f64),
        ) else {
            continue;
        };
        let d = rel_diff(e, g);
        if d > perf_tol {
            report.perf_warnings.push(format!(
                "serve.{key}: baseline {e} vs fresh {g} (relative diff {d:.3} > {perf_tol})"
            ));
        }
    }
}

/// Diffs a fresh baseline document against the checked-in one. Returns
/// `Err` only for structural problems (unparseable document, schema
/// mismatch) — those are hard failures too.
pub fn compare(
    baseline: &Json,
    fresh: &Json,
    quality_tol: f64,
    perf_tol: f64,
) -> Result<CompareReport, String> {
    let version = |doc: &Json, which: &str| {
        doc.get("schema_version")
            .and_then(Json::as_u64)
            .ok_or(format!("{which} document has no schema_version"))
    };
    let (b, f) = (version(baseline, "baseline")?, version(fresh, "fresh")?);
    if b != f {
        return Err(format!("schema mismatch: baseline v{b} vs fresh v{f}"));
    }
    let section = |doc: &Json, name: &str, which: &str| {
        doc.get(name)
            .cloned()
            .ok_or(format!("{which} document has no {name:?} section"))
    };
    let mut report = CompareReport::default();
    compare_section(
        &section(baseline, "quality", "baseline")?,
        &section(fresh, "quality", "fresh")?,
        "quality",
        quality_tol,
        &mut report.quality_failures,
    );
    let base_perf = section(baseline, "perf", "baseline")?;
    let fresh_perf = section(fresh, "perf", "fresh")?;
    compare_section(
        &base_perf,
        &fresh_perf,
        "perf",
        perf_tol,
        &mut report.perf_warnings,
    );
    compare_stages(&base_perf, &fresh_perf, perf_tol, &mut report);
    compare_alloc(baseline, fresh, perf_tol, &mut report);
    compare_serve(baseline, fresh, perf_tol, &mut report);
    Ok(report)
}

/// Whether two baseline documents carry bit-identical quality sections
/// (the CI determinism check: two runs of the pinned workload must agree
/// exactly). When either document has a `serve` section, its fingerprint
/// is part of the identity too — the served population must reproduce
/// bit-for-bit alongside the library-path numbers.
pub fn quality_identical(a: &Json, b: &Json) -> bool {
    let quality = match (a.get("quality"), b.get("quality")) {
        (Some(qa), Some(qb)) => qa == qb,
        _ => false,
    };
    let serve = match (a.get("serve"), b.get("serve")) {
        (Some(sa), Some(sb)) => sa.get("fingerprint") == sb.get("fingerprint"),
        (None, None) => true,
        _ => false,
    };
    quality && serve
}

/// Validates a recorded profile document (`uniq … --record DIR` writes
/// `DIR/profile.json`): parseable, schema-stamped,
/// and covering every pipeline stage. Returns the covered stage names.
pub fn verify_profile(text: &str) -> Result<Vec<String>, String> {
    let doc = Json::parse(text)?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("profile has no schema_version")?;
    if version != uniq_obs::record::PROFILE_SCHEMA_VERSION {
        return Err(format!("unsupported profile schema v{version}"));
    }
    let stages: Vec<String> = doc
        .get("stages")
        .and_then(Json::as_array)
        .ok_or("profile has no stages array")?
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str).map(String::from))
        .collect();
    for required in uniq_obs::names::PIPELINE_STAGES {
        if !stages.iter().any(|s| s == required) {
            return Err(format!("pipeline stage {required:?} missing from profile"));
        }
    }
    Ok(stages)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small but fully-shaped baseline document for comparator tests —
    /// no workload run needed.
    fn doc(loc_median: f64, fingerprint: &str, p50: u64, secs: f64) -> Json {
        Json::parse(&format!(
            r#"{{
              "schema_version": {BASELINE_SCHEMA_VERSION},
              "meta": {{"seed": 6}},
              "quality": {{
                "localization_median_deg": {loc_median},
                "attempts": 1,
                "personalize_thread_invariant": true,
                "batch_fingerprint_t1": "{fingerprint}"
              }},
              "perf": {{
                "personalize_seconds_t1": {secs},
                "stages": [{{"name": "personalize", "count": 1, "p50_ns": {p50}, "p99_ns": {p50}}}]
              }}
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_documents_compare_clean() {
        let a = doc(4.8, "0xdeadbeef", 1_000_000, 1.0);
        let r = compare(&a, &a, DEFAULT_QUALITY_TOL, DEFAULT_PERF_TOL).unwrap();
        assert_eq!(r, CompareReport::default());
        assert!(r.passes(true));
        assert!(quality_identical(&a, &a));
    }

    #[test]
    fn quality_drift_is_a_hard_failure() {
        let base = doc(4.8, "0xdeadbeef", 1_000_000, 1.0);
        let fresh = doc(6.0, "0xdeadbeef", 1_000_000, 1.0);
        let r = compare(&base, &fresh, DEFAULT_QUALITY_TOL, DEFAULT_PERF_TOL).unwrap();
        assert_eq!(r.quality_failures.len(), 1, "{r:?}");
        assert!(r.quality_failures[0].contains("localization_median_deg"));
        assert!(!r.passes(false));
        assert!(!quality_identical(&base, &fresh));
    }

    #[test]
    fn doctored_fingerprint_fails_despite_tolerance() {
        let base = doc(4.8, "0xdeadbeef", 1_000_000, 1.0);
        let fresh = doc(4.8, "0xdeadbeee", 1_000_000, 1.0);
        let r = compare(&base, &fresh, 1.0, 1.0).unwrap();
        assert!(
            r.quality_failures.iter().any(|f| f.contains("fingerprint")),
            "{r:?}"
        );
    }

    #[test]
    fn perf_drift_warns_but_passes_unless_strict() {
        let base = doc(4.8, "0xdeadbeef", 1_000_000, 1.0);
        let fresh = doc(4.8, "0xdeadbeef", 4_000_000, 4.0);
        let r = compare(&base, &fresh, DEFAULT_QUALITY_TOL, DEFAULT_PERF_TOL).unwrap();
        assert!(r.quality_failures.is_empty(), "{r:?}");
        assert_eq!(r.perf_warnings.len(), 3, "{r:?}"); // seconds + stage p50/p99
        assert!(r.passes(false));
        assert!(!r.passes(true));
        // Perf drift never breaks quality identity.
        assert!(quality_identical(&base, &fresh));
    }

    #[test]
    fn missing_quality_key_and_stage_fail() {
        let base = doc(4.8, "0xdeadbeef", 1_000_000, 1.0);
        let mut fresh = doc(4.8, "0xdeadbeef", 1_000_000, 1.0);
        // Drop a quality member and empty the stage list.
        if let Json::Obj(members) = &mut fresh {
            for (k, v) in members.iter_mut() {
                if k == "quality" {
                    if let Json::Obj(q) = v {
                        q.retain(|(key, _)| key != "attempts");
                    }
                }
                if k == "perf" {
                    if let Json::Obj(p) = v {
                        for (pk, pv) in p.iter_mut() {
                            if pk == "stages" {
                                *pv = Json::Arr(Vec::new());
                            }
                        }
                    }
                }
            }
        }
        let r = compare(&base, &fresh, DEFAULT_QUALITY_TOL, DEFAULT_PERF_TOL).unwrap();
        assert!(
            r.quality_failures.iter().any(|f| f.contains("attempts")),
            "{r:?}"
        );
        assert!(
            r.quality_failures
                .iter()
                .any(|f| f.contains("stages.personalize")),
            "vanished stage not flagged: {r:?}"
        );
    }

    /// A baseline document with an alloc section appended.
    fn doc_with_alloc(bytes: u64, peak: u64, invariant: bool) -> Json {
        let base = doc(4.8, "0xdeadbeef", 1_000_000, 1.0);
        let alloc = Json::parse(&format!(
            r#"{{
              "thread_counts": [1, 8],
              "thread_invariant": {invariant},
              "total_allocs": 10,
              "total_bytes": {bytes},
              "peak_live_bytes": {peak},
              "stages": [{{"name": "personalize", "allocs": 10, "bytes": {bytes}, "peak_live_bytes": {peak}}}]
            }}"#
        ))
        .unwrap();
        let Json::Obj(mut members) = base else {
            unreachable!()
        };
        members.push(("alloc".into(), alloc));
        Json::Obj(members)
    }

    #[test]
    fn alloc_exact_match_compares_clean() {
        let a = doc_with_alloc(4096, 2048, true);
        let r = compare(&a, &a, DEFAULT_QUALITY_TOL, DEFAULT_PERF_TOL).unwrap();
        assert_eq!(r, CompareReport::default());
        assert!(r.passes(true));
    }

    #[test]
    fn alloc_byte_drift_is_a_hard_failure() {
        // One byte of drift fails: the columns are bit-identical by contract.
        let base = doc_with_alloc(4096, 2048, true);
        let fresh = doc_with_alloc(4097, 2048, true);
        let r = compare(&base, &fresh, DEFAULT_QUALITY_TOL, DEFAULT_PERF_TOL).unwrap();
        assert!(
            r.quality_failures
                .iter()
                .any(|f| f.contains("alloc.total_bytes")),
            "{r:?}"
        );
        assert!(
            r.quality_failures
                .iter()
                .any(|f| f.contains("alloc.stages.personalize.bytes")),
            "{r:?}"
        );
        assert!(!r.passes(false));
    }

    #[test]
    fn alloc_peak_growth_warns_and_strict_promotes() {
        let base = doc_with_alloc(4096, 2048, true);
        let fresh = doc_with_alloc(4096, 4000, true); // ~2× peak, same totals
        let r = compare(&base, &fresh, DEFAULT_QUALITY_TOL, DEFAULT_PERF_TOL).unwrap();
        assert!(r.quality_failures.is_empty(), "{r:?}");
        assert!(
            r.perf_warnings
                .iter()
                .any(|w| w.contains("alloc.peak_live_bytes")),
            "{r:?}"
        );
        assert!(r.passes(false));
        assert!(!r.passes(true), "--strict must promote the peak warning");
        // Shrinking peak is never flagged.
        let shrunk = doc_with_alloc(4096, 100, true);
        let r = compare(&base, &shrunk, DEFAULT_QUALITY_TOL, DEFAULT_PERF_TOL).unwrap();
        assert_eq!(r, CompareReport::default());
    }

    #[test]
    fn alloc_thread_variance_and_missing_section_fail() {
        let base = doc_with_alloc(4096, 2048, true);
        let varying = doc_with_alloc(4096, 2048, false);
        let r = compare(&base, &varying, DEFAULT_QUALITY_TOL, DEFAULT_PERF_TOL).unwrap();
        assert!(
            r.quality_failures
                .iter()
                .any(|f| f.contains("thread_invariant")),
            "{r:?}"
        );
        // Baseline gated, fresh not instrumented → hard failure.
        let bare = doc(4.8, "0xdeadbeef", 1_000_000, 1.0);
        let r = compare(&base, &bare, DEFAULT_QUALITY_TOL, DEFAULT_PERF_TOL).unwrap();
        assert!(
            r.quality_failures
                .iter()
                .any(|f| f.contains("alloc: section missing")),
            "{r:?}"
        );
        // No alloc section in the baseline → gate skipped entirely.
        let r = compare(&bare, &base, DEFAULT_QUALITY_TOL, DEFAULT_PERF_TOL).unwrap();
        assert_eq!(r, CompareReport::default());
    }

    /// A baseline document with a serve section appended.
    fn doc_with_serve(fingerprint: &str, cache_hits: u64, p50_ms: f64) -> Json {
        let base = doc(4.8, "0xdeadbeef", 1_000_000, 1.0);
        let serve = Json::parse(&format!(
            r#"{{
              "shards": 2,
              "subjects": 2,
              "fingerprint": "{fingerprint}",
              "requests": 4,
              "cache_hits": {cache_hits},
              "shed": 0,
              "subjects_per_second": 3.0,
              "p50_ms": {p50_ms},
              "p99_ms": {p50_ms}
            }}"#
        ))
        .unwrap();
        let Json::Obj(mut members) = base else {
            unreachable!()
        };
        members.push(("serve".into(), serve));
        Json::Obj(members)
    }

    #[test]
    fn serve_exact_match_compares_clean() {
        let a = doc_with_serve("0xfeedface", 2, 100.0);
        let r = compare(&a, &a, DEFAULT_QUALITY_TOL, DEFAULT_PERF_TOL).unwrap();
        assert_eq!(r, CompareReport::default());
        assert!(quality_identical(&a, &a));
    }

    #[test]
    fn serve_fingerprint_and_admission_drift_fail_hard() {
        let base = doc_with_serve("0xfeedface", 2, 100.0);
        // Fingerprint drift: even with maximal tolerance, hard failure.
        let fresh = doc_with_serve("0xfeedfacf", 2, 100.0);
        let r = compare(&base, &fresh, 1.0, 1.0).unwrap();
        assert!(
            r.quality_failures
                .iter()
                .any(|f| f.contains("serve.fingerprint")),
            "{r:?}"
        );
        assert!(!quality_identical(&base, &fresh));
        // A cache that stopped hitting is behavior drift, not a perf swing.
        let cold = doc_with_serve("0xfeedface", 0, 100.0);
        let r = compare(&base, &cold, 1.0, 1.0).unwrap();
        assert!(
            r.quality_failures
                .iter()
                .any(|f| f.contains("serve.cache_hits")),
            "{r:?}"
        );
        // But cache_hits drift alone leaves the fingerprint identity intact.
        assert!(quality_identical(&base, &cold));
    }

    #[test]
    fn serve_latency_drift_warns_and_section_gates() {
        let base = doc_with_serve("0xfeedface", 2, 100.0);
        let slow = doc_with_serve("0xfeedface", 2, 400.0);
        let r = compare(&base, &slow, DEFAULT_QUALITY_TOL, DEFAULT_PERF_TOL).unwrap();
        assert!(r.quality_failures.is_empty(), "{r:?}");
        assert!(
            r.perf_warnings
                .iter()
                .any(|w| w.contains("serve.p50_ms") || w.contains("serve.p99_ms")),
            "{r:?}"
        );
        assert!(r.passes(false));
        assert!(!r.passes(true));
        // Baseline gated, fresh without a serve section → hard failure.
        let bare = doc(4.8, "0xdeadbeef", 1_000_000, 1.0);
        let r = compare(&base, &bare, DEFAULT_QUALITY_TOL, DEFAULT_PERF_TOL).unwrap();
        assert!(
            r.quality_failures
                .iter()
                .any(|f| f.contains("serve: section missing")),
            "{r:?}"
        );
        assert!(!quality_identical(&base, &bare));
        // Pre-v3 baseline without a serve section → gate skipped.
        let r = compare(&bare, &base, DEFAULT_QUALITY_TOL, DEFAULT_PERF_TOL).unwrap();
        assert_eq!(r, CompareReport::default());
    }

    #[test]
    fn schema_mismatch_is_structural_error() {
        let a = doc(4.8, "0xdeadbeef", 1_000_000, 1.0);
        let b = Json::parse(r#"{"schema_version": 99, "quality": {}, "perf": {}}"#).unwrap();
        assert!(compare(&a, &b, 1.0, 1.0).is_err());
    }

    #[test]
    fn verify_profile_requires_stage_coverage() {
        let ok = format!(
            r#"{{"schema_version": 1, "stages": [{}]}}"#,
            uniq_obs::names::PIPELINE_STAGES
                .iter()
                .map(|s| format!(r#"{{"name": "{s}"}}"#))
                .collect::<Vec<_>>()
                .join(", ")
        );
        assert!(verify_profile(&ok).is_ok());

        let missing = r#"{"schema_version": 1, "stages": [{"name": "personalize"}]}"#;
        let err = verify_profile(missing).unwrap_err();
        assert!(err.contains("missing from profile"), "{err}");
        assert!(verify_profile("{}").is_err());
        assert!(verify_profile("not json").is_err());
    }

    #[test]
    fn quick_workload_emits_complete_and_deterministic_quality() {
        // The real thing, smallest possible: document parses, carries
        // every advertised section, and its quality half is bit-identical
        // across two runs in the same process.
        let spec = BaselineSpec::quick();
        let a = Json::parse(&run_baseline(&spec)).expect("baseline emits valid JSON");
        let b = Json::parse(&run_baseline(&spec)).unwrap();
        assert!(quality_identical(&a, &b), "quality not deterministic");

        let quality = a.get("quality").unwrap();
        for key in [
            "localization_median_deg",
            "aoa_known_median_deg",
            "hrir_similarity_mean",
            "personalize_fingerprint",
            "batch_fingerprint_t1",
        ] {
            assert!(quality.get(key).is_some(), "quality missing {key}");
        }
        assert_eq!(
            quality.get("personalize_thread_invariant").unwrap(),
            &Json::Bool(true)
        );
        // Stage profile covers the pipeline (subset check: quick() runs
        // the full personalize pipeline).
        let stages: Vec<&str> = a
            .get("perf")
            .unwrap()
            .get("stages")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|s| s.get("name").and_then(Json::as_str))
            .collect();
        for required in uniq_obs::names::PIPELINE_STAGES {
            assert!(stages.contains(required), "stage {required} missing");
        }
        // And compare() agrees the two runs match.
        let r = compare(&a, &b, DEFAULT_QUALITY_TOL, DEFAULT_PERF_TOL).unwrap();
        assert!(r.quality_failures.is_empty(), "{r:?}");
    }
}
