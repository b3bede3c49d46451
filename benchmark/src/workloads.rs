//! The two workloads. Each makes its inputs from the workload seed,
//! measures for the requested seconds, checks its outputs, and fills a
//! [`Report`] with the end-to-end metrics (untraced run) or the
//! per-layer metrics (traced run).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use uniq_core::batch::{hrtf_fingerprint, personalize_batch, BatchOutcome};
use uniq_core::pipeline::{personalize_with_retry, PersonalizationError, PersonalizationResult};
use uniq_core::UniqConfig;
use uniq_geometry::vec2::angle_diff_deg;
use uniq_serve::protocol::{parse_request, render_personalized, PersonalizedReply, Response};
use uniq_store::{HrtfArtifact, Store};
use uniq_subjects::Subject;

use crate::client::{self, ConnReport, Kind, Outcome, Planned, Reply};
use crate::gen;
use crate::replay::{probe_ops, replay, OpCosts, Replay, RETRY_STRIDE};
use crate::report::Report;
use crate::rig::{self, WorkDir};
use crate::speed;
use crate::stats::{mean, median, tail, Tally};

#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Gesture attempts per subject (the §4.6 retry budget).
const MAX_ATTEMPTS: usize = 3;
/// Panel sizes: home-seq personalizes 11 subjects per pass (the fewest
/// for which a tail percentile with ten samples beyond it exists) and
/// anechoic-batch 16 (two batches).
const HOME_PANEL: usize = 11;
const BATCH_PANEL: usize = 16;
/// Nominal seconds of one pass over a panel. `--seconds` sets the number
/// of whole passes, so every run of one build does the same work.
const HOME_PASS_S: f64 = 30.0;
const BATCH_PASS_S: f64 = 18.0;
/// Subjects a traced home-seq run replays.
const TRACED_HOME: usize = 4;
/// Latency limits behind `goodput_rps`.
const HIT_LIMIT_S: f64 = 0.25;
const PERSONALIZE_LIMIT_S: f64 = 10.0;
/// The returning-user phase of home-seq and anechoic-batch.
const HIT_PHASE_S: f64 = 3.0;
/// Gaps between the phase's hits. A reply's newline leaves the server
/// with the client's next request, so a hit whose service outlasts the
/// gap waits for one request more, and one whose reply leaves the gap
/// more than the 40 ms delayed-ACK timer open may wait for that timer
/// instead. Both make the latency jump between runs. A 1° artifact
/// (home-seq) takes 15–35 ms to serve, a 15° one (anechoic-batch) about
/// 1.5 ms.
const HOME_HIT_GAP_S: f64 = 0.045;
const BATCH_HIT_GAP_S: f64 = 0.030;
/// Subjects per `personalize_batch` call in anechoic-batch.
const BATCH_CHUNK: usize = 8;
const BATCH_WORKERS: usize = 2;
/// Angles where far-field HRIRs are compared with ground truth (as in
/// `BENCH_BASELINE.json`'s `hrir_similarity_mean`).
const SIM_ANGLES: [f64; 5] = [0.0, 45.0, 90.0, 135.0, 180.0];
/// How long after its last due time a connection waits for replies.
const GRACE: Duration = Duration::from_secs(60);
/// A run whose generator sent any request this late is invalid.
const LATE_LIMIT_S: f64 = 0.1;
/// Stops visited by the recording-side per-op probes.
const PROBE_STOPS: usize = 4;
/// The pinned baseline subject and the file holding its fingerprint.
const BASELINE_SEED: u64 = 6;
const BASELINE_FILE: &str = "BENCH_BASELINE.json";

/// The paper-default home configuration on a 2-lane pool.
pub fn home_config() -> UniqConfig {
    UniqConfig {
        threads: 2,
        ..UniqConfig::default()
    }
}

/// The pinned `BENCH_BASELINE.json` configuration.
pub fn anechoic_config(threads: usize) -> UniqConfig {
    UniqConfig {
        in_room: false,
        grid_step_deg: 15.0,
        snr_db: 45.0,
        threads,
        ..UniqConfig::default()
    }
}

fn fingerprint(seed: u64, r: &PersonalizationResult) -> u64 {
    hrtf_fingerprint(&[BatchOutcome {
        seed,
        result: Ok(r.clone()),
        seconds: 0.0,
    }])
}

/// Median stop-localization errors and the mean far-field HRIR
/// similarity of one personalized subject.
fn quality(
    seed: u64,
    localization: &[(f64, f64)],
    far: &uniq_acoustics::types::HrirBank,
    cfg: &UniqConfig,
) -> (Vec<f64>, f64) {
    let errs = localization
        .iter()
        .map(|&(t, e)| angle_diff_deg(t, e))
        .collect();
    let truth = Subject::from_seed(seed).ground_truth(cfg.render, &SIM_ANGLES);
    let sim = SIM_ANGLES
        .iter()
        .enumerate()
        .map(|(k, &a)| {
            let (l, r) = far.nearest(a).0.similarity(&truth.irs()[k]);
            (l + r) / 2.0
        })
        .sum::<f64>()
        / SIM_ANGLES.len() as f64;
    (errs, sim)
}

/// One subject computed on the library path.
struct Computed {
    seed: u64,
    result: Result<PersonalizationResult, PersonalizationError>,
    wall_s: f64,
    replay: Option<Replay>,
}

/// Whole passes over a panel for a run of `seconds`.
fn passes(seconds: f64, pass_s: f64) -> usize {
    ((seconds / pass_s).ceil() as usize).max(1)
}

/// Checks a traced replay against the untraced run of the same subject.
fn check_replay(report: &mut Report, c: &Computed) {
    let Some(r) = &c.replay else { return };
    match (&c.result, &r.result) {
        (Ok(a), Ok(b)) => report.gate_eq(
            &format!("traced replay of subject {}", c.seed),
            fingerprint(c.seed, a),
            fingerprint(c.seed, b),
        ),
        (Err(a), Err(b)) if a == b => {}
        _ => report.fail(format!(
            "traced replay of subject {} disagrees with the untraced run on success",
            c.seed
        )),
    }
}

/// The library phase's end-to-end and per-layer numbers. `phase_s` is
/// its wall time; times are divided by the run's `slowdown` (see
/// [`speed`]).
fn library_metrics(
    report: &mut Report,
    computed: &[Computed],
    phase_s: f64,
    slowdown: f64,
    workers: usize,
    cfg: &UniqConfig,
) -> Tally {
    let mut tally = Tally::default();
    let mut walls = Vec::new();
    let mut raw_walls = Vec::new();
    let mut errs = Vec::new();
    let mut sims = Vec::new();
    for c in computed {
        match &c.result {
            Ok(r) => {
                walls.push(c.wall_s / slowdown);
                raw_walls.push(c.wall_s);
                tally.record(Some(c.wall_s / slowdown), PERSONALIZE_LIMIT_S);
                let (e, s) = quality(c.seed, &r.localization, r.hrtf.far(), cfg);
                errs.extend(e);
                sims.push(s);
            }
            Err(e) => {
                eprintln!("subject {} failed: {e}", c.seed);
                tally.record(None, PERSONALIZE_LIMIT_S);
            }
        }
        check_replay(report, c);
    }
    report.count("subjects", computed.len());
    let list = |f: &dyn Fn(&Computed) -> String| {
        format!(
            "[{}]",
            computed.iter().map(f).collect::<Vec<_>>().join(", ")
        )
    };
    report.detail("subject_s", list(&|c| format!("{:.3}", c.wall_s)));
    report.detail("raw_personalize_s_p50", format!("{:?}", median(&raw_walls)));
    report.detail(
        "raw_subjects_per_s",
        format!("{:?}", walls.len() as f64 / phase_s),
    );
    report.detail(
        "attempts",
        list(&|c| c.result.as_ref().map_or(0, |r| r.attempts).to_string()),
    );
    report.metric("personalize_s_p50", median(&walls), "s");
    report.tail_metric("personalize_s_tail", tail(&walls), 1.0, "s");
    report.metric(
        "subjects_per_s",
        walls.len() as f64 * slowdown / phase_s,
        "1/s",
    );
    report.metric("loc_err_deg_p50", median(&errs), "deg");
    report.metric("hrir_sim_mean", mean(&sims), "1");
    let busy: f64 = computed.iter().map(|c| c.wall_s).sum();
    report.metric("batch.util", busy / (phase_s * workers as f64), "1");
    tally
}

/// Per-layer numbers of the traced replays and the per-op probes.
fn replay_metrics(report: &mut Report, computed: &[Computed], ops: &OpCosts) {
    let replays: Vec<&Replay> = computed.iter().filter_map(|c| c.replay.as_ref()).collect();
    let per = |f: &dyn Fn(&Replay) -> f64| replays.iter().map(|r| f(r)).collect::<Vec<f64>>();
    report.count("traced_subjects", replays.len());
    report.metric("session.s", median(&per(&|r| r.session_s)), "s");
    report.metric("session.stops", mean(&per(&|r| r.stops as f64)), "count");
    report.metric("fusion.s", median(&per(&|r| r.fusion_s)), "s");
    report.metric("nearfield.ms", median(&per(&|r| r.nearfield_s * 1e3)), "ms");
    report.metric("nearfar.ms", median(&per(&|r| r.nearfar_s * 1e3)), "ms");
    report.metric(
        "pipeline.attempts_mean",
        mean(&per(&|r| r.attempts as f64)),
        "count",
    );
    report.metric("reconcile.gap_frac", median(&per(&|r| r.gap_frac())), "1");
    let untraced: Vec<f64> = computed
        .iter()
        .filter(|c| c.replay.is_some())
        .map(|c| c.wall_s)
        .collect();
    report.metric(
        "trace.overhead_frac",
        median(&per(&|r| r.wall_s)) / median(&untraced) - 1.0,
        "1",
    );
    report.metric("acoustics.record_ms", median(&ops.record_ms), "ms");
    report.metric("channel.estimate_ms", median(&ops.estimate_ms), "ms");
    report.metric("dsp.wiener_ms", median(&ops.wiener_ms), "ms");
    report.metric("dsp.rfft_us", median(&ops.rfft_us), "us");
    report.metric("fusion.localize_us", median(&ops.localize_us), "us");
    report.metric("geometry.path_direct_ns", median(&ops.path_direct_ns), "ns");
    report.metric(
        "geometry.path_wrapped_ns",
        median(&ops.path_wrapped_ns),
        "ns",
    );
    report.metric(
        "geometry.boundary_build_us",
        median(&ops.boundary_build_us),
        "us",
    );
    let residuals: Vec<f64> = computed
        .iter()
        .filter_map(|c| c.result.as_ref().ok())
        .map(|r| r.fusion.mean_residual_deg)
        .collect();
    report.metric("fusion.residual_deg", median(&residuals), "deg");
}

/// Probes one subject's operations (the first that succeeded).
fn probe_first(computed: &[Computed], cfg: &UniqConfig) -> OpCosts {
    computed
        .iter()
        .find_map(|c| c.result.as_ref().ok().map(|r| (c, r)))
        .map(|(c, r)| {
            // Probe the gesture that produced the result.
            let seed = c.seed.wrapping_add(RETRY_STRIDE * (r.attempts as u64 - 1));
            probe_ops(&Subject::from_seed(c.seed), cfg, seed, r, PROBE_STOPS)
        })
        .unwrap_or_default()
}

/// Times the store and protocol operations a request performs: index
/// replay, seed lookup and blob read on the served store; puts of real
/// artifacts into a fresh store; request parsing and reply rendering.
fn store_protocol_metrics(
    report: &mut Report,
    store_dir: &Path,
    probe_dir: &Path,
    cfg: &UniqConfig,
    served: &[(u64, HrtfArtifact)],
) -> Result<(), String> {
    let hash = cfg.content_hash();
    let mut open_ms = Vec::new();
    let mut store = None;
    for _ in 0..3 {
        let t = Instant::now();
        let s = Store::open(store_dir).map_err(|e| e.to_string())?;
        open_ms.push(t.elapsed().as_secs_f64() * 1e3);
        store = Some(s);
    }
    let store = store.expect("opened at least once");
    let mut lookup_us = Vec::new();
    let mut get_us = Vec::new();
    for (seed, _) in served {
        for _ in 0..3 {
            let t = Instant::now();
            let entry = black_box(store.lookup_by_seed(*seed, hash));
            lookup_us.push(t.elapsed().as_secs_f64() * 1e6);
            let entry = entry.ok_or_else(|| format!("subject {seed} is not in the store"))?;
            let t = Instant::now();
            black_box(store.get(&entry.key).map_err(|e| e.to_string())?);
            get_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let probe = Store::open(probe_dir).map_err(|e| e.to_string())?;
    let mut put_ms = Vec::new();
    for (_, artifact) in served {
        let t = Instant::now();
        probe.put(artifact).map_err(|e| e.to_string())?;
        put_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.metric("store.open_ms", median(&open_ms), "ms");
    report.metric("store.lookup_us", median(&lookup_us), "us");
    report.metric("store.get_us", median(&get_us), "us");
    report.metric("store.put_ms", median(&put_ms), "ms");

    const REPS: u32 = 2000;
    let line = client::personalize_line(served.first().map_or(1, |s| s.0));
    let t = Instant::now();
    for _ in 0..REPS {
        black_box(parse_request(black_box(&line)).map_err(|e| e.to_string())?);
    }
    report.metric(
        "protocol.parse_us",
        t.elapsed().as_secs_f64() * 1e6 / f64::from(REPS),
        "us",
    );
    let reply = PersonalizedReply {
        seed: 1 << 40,
        fingerprint: 0x0123_4567_89ab_cdef,
        key: "0123456789abcdef".into(),
        cache_hit: true,
        attempts: 0,
        radius_m: 0.4413,
        wall_seconds: 0.0013,
        degradation: None,
    };
    let t = Instant::now();
    for _ in 0..REPS {
        black_box(render_personalized(black_box(&reply)));
    }
    report.metric(
        "protocol.render_us",
        t.elapsed().as_secs_f64() * 1e6 / f64::from(REPS),
        "us",
    );
    Ok(())
}

/// Hit-side numbers, plus the hit gates: every hit is served from the
/// cache with its subject's library-path fingerprint. No miss computes
/// beside these hits: the ACK timer and the wire set their latencies, so
/// they are not speed-adjusted.
fn hit_metrics(report: &mut Report, hits: &[&Outcome], library: &BTreeMap<u64, u64>) -> Tally {
    let mut tally = Tally::default();
    let mut lat = Vec::new();
    let mut service = Vec::new();
    let mut wait = Vec::new();
    let mut from_cache = 0usize;
    for o in hits {
        tally.record(o.ok_latency(), HIT_LIMIT_S);
        if let (
            Reply::Ok {
                fingerprint,
                cache_hit,
                service_s,
            },
            Some(l),
        ) = (&o.reply, o.latency_s)
        {
            lat.push(l);
            service.push(*service_s);
            wait.push(l - service_s);
            if *cache_hit {
                from_cache += 1;
            }
            match library.get(&o.seed) {
                Some(&want) => {
                    report.gate_eq(&format!("hit for subject {}", o.seed), want, *fingerprint)
                }
                None => report.fail(format!("hit for subject {} has no library result", o.seed)),
            }
        }
    }
    report.count("hits", hits.len());
    report.metric("hit_ms_p50", median(&lat) * 1e3, "ms");
    report.tail_metric("hit_ms_tail", tail(&lat), 1e3, "ms");
    report.metric("serve.service_ms_hit", median(&service) * 1e3, "ms");
    report.metric("serve.wait_ms_hit", median(&wait) * 1e3, "ms");
    report.metric(
        "serve.cache_hit_ratio",
        from_cache as f64 / hits.len().max(1) as f64,
        "1",
    );
    tally
}

fn late_gate(report: &mut Report, conns: &[ConnReport]) {
    let late = conns.iter().map(|c| c.late_max_s).fold(0.0, f64::max);
    report.metric("loadgen.late_ms_max", late * 1e3, "ms");
    if late > LATE_LIMIT_S {
        report.fail(format!(
            "load generator fell {:.1} ms behind its schedule (limit {:.0} ms): run invalid",
            late * 1e3,
            LATE_LIMIT_S * 1e3
        ));
    }
}

fn stats_metrics(report: &mut Report, addr: std::net::SocketAddr) -> Result<(), String> {
    match client::roundtrip(addr, "{\"type\":\"stats\"}")? {
        Response::Stats(s) => {
            report.metric("serve.shed", s.shed as f64, "count");
            report.metric("serve.errors", s.errors as f64, "count");
            Ok(())
        }
        other => Err(format!("unexpected stats reply {other:?}")),
    }
}

/// The returning-user phase of the library workloads: the computed HRTFs
/// are stored, the server restarts over the store, and an open-loop
/// schedule of hits fetches them back. A traced run adds one anechoic
/// cache miss for the miss service time.
fn returning_phase(
    report: &mut Report,
    opts: &Opts,
    wd: &WorkDir,
    cfg: &UniqConfig,
    computed: &[Computed],
    hit_gap_s: f64,
) -> Result<(Tally, Vec<ConnReport>), String> {
    let dir = wd.store_dir();
    let hash = cfg.content_hash();
    let mut library = BTreeMap::new();
    let mut served = Vec::new();
    {
        let store = Store::open(&dir).map_err(|e| e.to_string())?;
        for c in computed {
            if let Ok(r) = &c.result {
                let artifact = HrtfArtifact::from_result(c.seed, r, hash, None);
                report.gate_eq(
                    &format!("stored artifact of subject {}", c.seed),
                    fingerprint(c.seed, r),
                    artifact.subject_fingerprint,
                );
                store.put(&artifact).map_err(|e| e.to_string())?;
                library.insert(c.seed, artifact.subject_fingerprint);
                served.push((c.seed, artifact));
            }
        }
    }
    if library.is_empty() {
        return Err("no subject was personalized, nothing to fetch".into());
    }
    let seeds: Vec<u64> = library.keys().copied().collect();
    let rig = rig::start(&dir, cfg)?;
    // Hits on one connection; the other carries the traced run's miss.
    let mut plans = vec![
        rig::hit_plan(opts.seed, &seeds, 1.0 / hit_gap_s, HIT_PHASE_S),
        Vec::new(),
    ];
    let miss_seed = gen::subject_seeds(opts.seed, gen::STREAM_RETURNING, 1)[0];
    if opts.trace {
        plans[1].push(Planned {
            due_s: HIT_PHASE_S,
            seed: miss_seed,
            kind: Kind::Miss,
            line: client::anechoic_line(miss_seed),
        });
    }
    let conns = rig::drive_all(&rig, plans, GRACE)?;
    let stats = stats_metrics(report, rig.addr());
    rig.server.shutdown();
    stats?;
    let outcomes: Vec<&Outcome> = conns.iter().flat_map(|c| &c.outcomes).collect();
    let hits: Vec<&Outcome> = outcomes
        .iter()
        .copied()
        .filter(|o| o.kind == Kind::Hit)
        .collect();
    let tally = hit_metrics(report, &hits, &library);
    late_gate(report, &conns);
    if opts.trace {
        let miss = outcomes.iter().find(|o| o.kind == Kind::Miss);
        match miss.map(|o| &o.reply) {
            Some(Reply::Ok {
                service_s,
                cache_hit: false,
                ..
            }) => report.metric("serve.service_s_miss", *service_s, "s"),
            other => report.fail(format!("anechoic miss request answered {other:?}")),
        }
        store_protocol_metrics(report, &dir, &wd.0.join("probe-store"), cfg, &served)?;
    }
    Ok((tally, conns))
}

/// Set-up, with a calibration on either side added to `speed`. Returns
/// the running rig and the median set-up time.
fn setup(
    report: &mut Report,
    dir: &Path,
    cfg: &UniqConfig,
    speed: &mut speed::Trace,
) -> Result<(rig::Rig, f64), String> {
    speed.sample();
    let (samples, rig) = rig::timed_setup(dir, cfg)?;
    speed.sample();
    report.detail(
        "setup_samples_s",
        format!(
            "[{}]",
            samples
                .iter()
                .map(|s| format!("{s:.5}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    Ok((rig, median(&samples)))
}

/// The run's slowdown: the median of its calibrations. A calibration
/// is a fraction of a second long and the host's speed jumps by 10–15%
/// between calibrations seconds apart, so dividing each subject or batch
/// by the calibrations next to it spread per-run medians more than one
/// factor per run does.
fn slowdown(report: &mut Report, speed: &speed::Trace) -> f64 {
    let slowdown = speed.median();
    report.detail("slowdowns", format!("{:.3?}", speed.factors()));
    report.detail("slowdown", format!("{slowdown:?}"));
    slowdown
}

fn setup_metric(report: &mut Report, raw_s: f64, slowdown: f64) {
    report.metric("setup_s", raw_s / slowdown, "s");
    report.detail("raw_setup_s", format!("{raw_s:?}"));
}

/// `open` holds the open-loop requests behind `goodput_rps`, which ran
/// from the start of their schedule until `conns` finished; `tally`
/// holds every request of the run.
fn finish(report: &mut Report, tally: Tally, open: Tally, conns: &[ConnReport]) {
    let open_s = conns.iter().map(|c| c.done_s).fold(0.0, f64::max);
    report.metric("goodput_rps", open.goodput(open_s), "1/s");
    report.metric("ok_frac", tally.ok_frac(), "1");
    report.detail("failed_frac", format!("{:?}", tally.failed_frac()));
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    report.metric("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
}

/// home-seq: the paper-default configuration, one subject at a time on
/// a 2-lane pool — what a user at home waits for.
pub fn home_seq(report: &mut Report, opts: &Opts) -> Result<(), String> {
    let wd = WorkDir::create("home-seq")?;
    report.detail("prefill_s", format!("{:?}", rig::prefill(&wd.store_dir())?));
    let cfg = home_config();
    let mut speed = speed::Trace::default();
    let (rig, raw_setup_s) = setup(report, &wd.store_dir(), &cfg, &mut speed)?;
    rig.server.shutdown();

    let mut panel = gen::shuffled(&gen::panel(HOME_PANEL), opts.seed);
    if opts.trace {
        panel.truncate(TRACED_HOME);
    }
    let mut computed = Vec::new();
    for _ in 0..passes(opts.seconds, HOME_PASS_S) {
        for &seed in &panel {
            speed.sample();
            let subject = Subject::from_seed(seed);
            let t = Instant::now();
            let result = personalize_with_retry(&subject, &cfg, seed, MAX_ATTEMPTS);
            let wall_s = t.elapsed().as_secs_f64();
            let replay = opts
                .trace
                .then(|| replay(&subject, &cfg, seed, MAX_ATTEMPTS));
            computed.push(Computed {
                seed,
                result,
                wall_s,
                replay,
            });
        }
    }
    speed.sample();
    let slowdown = slowdown(report, &speed);
    // Subjects run back to back, so the phase is the sum of their times.
    let phase_s = computed.iter().map(|c| c.wall_s).sum();
    let mut tally = library_metrics(report, &computed, phase_s, slowdown, 1, &cfg);
    if opts.trace {
        replay_metrics(report, &computed, &probe_first(&computed, &cfg));
    }
    let (open, conns) = returning_phase(report, opts, &wd, &cfg, &computed, HOME_HIT_GAP_S)?;
    tally.merge(open);
    setup_metric(report, raw_setup_s, slowdown);
    finish(report, tally, open, &conns);
    Ok(())
}

/// Reads the pinned seed-6 fingerprint from `BENCH_BASELINE.json`.
fn baseline_fingerprint() -> Result<u64, String> {
    let text =
        std::fs::read_to_string(BASELINE_FILE).map_err(|e| format!("{BASELINE_FILE}: {e}"))?;
    let key = "\"personalize_fingerprint\": \"0x";
    let at = text
        .find(key)
        .ok_or_else(|| format!("{BASELINE_FILE} has no personalize_fingerprint"))?;
    let hex: String = text[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_hexdigit)
        .collect();
    u64::from_str_radix(&hex, 16).map_err(|e| format!("{BASELINE_FILE}: {e}"))
}

/// anechoic-batch: the pinned baseline configuration, subjects fanned
/// across 2 workers by `personalize_batch` with one thread each.
pub fn anechoic_batch(report: &mut Report, opts: &Opts) -> Result<(), String> {
    let wd = WorkDir::create("anechoic-batch")?;
    report.detail("prefill_s", format!("{:?}", rig::prefill(&wd.store_dir())?));
    let cfg = anechoic_config(1);
    let mut speed = speed::Trace::default();
    let (rig, raw_setup_s) = setup(report, &wd.store_dir(), &cfg, &mut speed)?;
    rig.server.shutdown();

    // Correctness: the pinned subject reproduces the checked-in table.
    let expected = baseline_fingerprint()?;
    let pinned = personalize_with_retry(
        &Subject::from_seed(BASELINE_SEED),
        &cfg,
        BASELINE_SEED,
        MAX_ATTEMPTS,
    )
    .map_err(|e| format!("seed-{BASELINE_SEED} baseline subject failed: {e}"))?;
    report.gate_eq(
        &format!("seed-{BASELINE_SEED} personalize_fingerprint vs {BASELINE_FILE}"),
        expected,
        fingerprint(BASELINE_SEED, &pinned),
    );

    let mut panel = gen::shuffled(&gen::panel(BATCH_PANEL), opts.seed);
    if opts.trace {
        panel.truncate(BATCH_CHUNK);
    }
    let mut computed: Vec<Computed> = Vec::new();
    let mut chunk_s = Vec::new();
    for _ in 0..passes(opts.seconds, BATCH_PASS_S) {
        for chunk in panel.chunks(BATCH_CHUNK) {
            speed.sample();
            let t = Instant::now();
            let outcomes = personalize_batch(chunk, &cfg, BATCH_WORKERS, MAX_ATTEMPTS);
            chunk_s.push(t.elapsed().as_secs_f64());
            let replays: Vec<Option<Replay>> = if opts.trace {
                uniq_par::pool(BATCH_WORKERS).par_map_chunked(chunk, 1, |&s| {
                    Some(replay(&Subject::from_seed(s), &cfg, s, MAX_ATTEMPTS))
                })
            } else {
                chunk.iter().map(|_| None).collect()
            };
            computed.extend(
                outcomes
                    .into_iter()
                    .zip(replays)
                    .map(|(o, replay)| Computed {
                        seed: o.seed,
                        result: o.result,
                        wall_s: o.seconds,
                        replay,
                    }),
            );
        }
    }
    speed.sample();
    let slowdown = slowdown(report, &speed);
    let phase_s = chunk_s.iter().sum();
    let mut tally = library_metrics(report, &computed, phase_s, slowdown, BATCH_WORKERS, &cfg);
    if opts.trace {
        replay_metrics(report, &computed, &probe_first(&computed, &cfg));
    }
    let (open, conns) = returning_phase(report, opts, &wd, &cfg, &computed, BATCH_HIT_GAP_S)?;
    tally.merge(open);
    setup_metric(report, raw_setup_s, slowdown);
    finish(report, tally, open, &conns);
    Ok(())
}
