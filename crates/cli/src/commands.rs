//! CLI subcommand implementations.

use crate::args::{Args, FlagSet};
use std::path::Path;
use std::sync::Arc;
use uniq_acoustics::signals::SignalKind;
use uniq_core::config::UniqConfig;
use uniq_core::degrade::DegradationPolicy;
use uniq_core::pipeline::{personalize_faulted_with_retry, personalize_with_retry};
use uniq_faults::FaultPlan;
use uniq_obs::sink::{JsonLinesSink, MultiSink, Sink, StderrSink};
use uniq_obs::{RecordReport, Recorder};
use uniq_subjects::Subject;
use uniq_telemetry::ledger::{self, LedgerRecord};

/// The flags each subcommand accepts (`faulted`: under the `faults`
/// wrapper, which adds the fault-plan flags to `personalize`). Every
/// command takes `--trace` and `--record DIR`; anything else is an
/// [`crate::args::ArgError::UnknownFlag`].
pub fn flags(command: &str, faulted: bool) -> Option<FlagSet> {
    const RUN: &str = "seed out grid snr history record";
    let (options, switches) = match (command, faulted) {
        ("personalize", false) => (RUN, "anechoic trace"),
        ("personalize", true) => (
            "seed out grid snr history record fault-plan fault-seed fault-retries fault-report",
            "anechoic trace no-skip",
        ),
        ("batch", _) => (
            "subjects seed threads grid snr scaling out history record",
            "anechoic trace",
        ),
        ("info", _) => ("table record", "trace"),
        ("render", _) => ("table theta duration seed signal out record", "near trace"),
        ("aoa", _) => ("table theta seed signal record", "trace"),
        ("serve", _) => (
            "addr shards queue-depth grid snr fault-plan fault-seed store addr-file history record",
            "anechoic trace",
        ),
        ("loadgen", _) => (
            "addr subjects seed clients repeat grid snr history record",
            "anechoic no-cache shutdown trace",
        ),
        ("help" | "--help", _) => ("", ""),
        _ => return None,
    };
    Some(FlagSet { options, switches })
}

/// Runs a parsed command; returns a human-readable report or an error
/// message.
///
/// `--trace` streams a live span tree to stderr and appends the recorded
/// per-stage table; `--record DIR` writes every recorded view into DIR
/// (see [`write_record`]). Both observe the same run — neither changes
/// the pipeline's numeric output.
pub fn run(args: &Args) -> Result<String, String> {
    run_observed(args, dispatch)
}

/// `uniq faults <command> …`: runs the wrapped command with a fault plan
/// injected at the signal boundaries (see `uniq-faults`). Only
/// `personalize` supports injection; the degradation report is appended
/// to the command's output. The wrapped command's failure — and its
/// nonzero exit status — propagates unchanged (see [`exit_code`]).
pub fn run_faults(args: &Args) -> Result<String, String> {
    run_observed(args, dispatch_faulted)
}

/// Maps a command outcome to the process exit status, so the `faults`
/// wrapper never swallows a wrapped command's failure.
pub fn exit_code<T>(result: &Result<T, String>) -> i32 {
    match result {
        Ok(_) => 0,
        Err(_) => 1,
    }
}

/// Runs `args` under the requested observability: a [`Recorder`] plus the
/// live stderr tree for `--trace`, a [`Recorder`] plus the `trace.jsonl`
/// event log and — when this binary installed the counting allocator —
/// an allocation profile for `--record DIR`. The views are written even
/// when the command fails: the record of a failed run is evidence.
fn run_observed(
    args: &Args,
    dispatch_fn: fn(&Args) -> Result<String, String>,
) -> Result<String, String> {
    let trace = args.switch("trace");
    let record_dir = args.get("record").map(Path::new);
    if !trace && record_dir.is_none() {
        return dispatch_fn(args);
    }

    let recorder = Arc::new(Recorder::new());
    let mut sinks: Vec<Arc<dyn Sink>> = vec![recorder.clone()];
    if trace {
        sinks.push(Arc::new(StderrSink::new()));
    }
    if let Some(dir) = record_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join("trace.jsonl");
        let sink = JsonLinesSink::create(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        sinks.push(Arc::new(sink));
    }
    let multi = Arc::new(MultiSink::new(sinks));
    let measure_alloc = record_dir.is_some() && uniq_memprof::installed();
    let mut alloc = None;
    let result = uniq_obs::with_sink(multi.clone(), || {
        if !measure_alloc {
            return dispatch_fn(args);
        }
        // Measure the dispatch only, and emit the summary while the sinks
        // are installed so the recorded counters carry the alloc totals.
        let (result, snapshot) = uniq_memprof::measure(|| dispatch_fn(args));
        snapshot.emit_obs_summary();
        alloc = Some(snapshot);
        result
    });
    multi.flush();
    let mut report = recorder.report();
    if let Some(snapshot) = alloc {
        report.attach_alloc(snapshot);
    }
    if trace {
        eprintln!("\n{}", report.render_table());
    }
    match record_dir {
        Some(dir) => {
            write_record(dir, &report)?;
            result.map(|output| format!("{output}\n\nrecord written to {}", dir.display()))
        }
        None => result,
    }
}

/// Writes every view of a recorded run into `dir`, beside the
/// `trace.jsonl` event log: the stage table (`report.txt`), the profile
/// document (`profile.json`), latency- and bytes-weighted flamegraph
/// lines (`flame.folded`, `alloc.folded`) and the metric registry
/// (`telemetry.prom`, `telemetry.json`).
fn write_record(dir: &Path, report: &RecordReport) -> Result<(), String> {
    let views = [
        ("report.txt", report.render_table()),
        ("profile.json", report.to_json()),
        ("flame.folded", report.collapsed_stacks()),
        ("alloc.folded", report.alloc_collapsed_stacks()),
        ("telemetry.prom", report.prometheus()),
        ("telemetry.json", report.telemetry_json()),
    ];
    for (name, text) in views {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Parses the `VERB FILE [--flag value …]` grammar of `trace` and
/// `history` through the shared strict parser: FILE is the one
/// positional, and `flags` names the verbs and the flags each accepts,
/// each at most once. Anything else is a usage error.
fn parse_verb_file(
    args: &[String],
    flags: impl Fn(&str) -> Option<FlagSet>,
) -> Result<(Args, &str), String> {
    let file = args.get(1).filter(|file| !file.starts_with("--"));
    let (Some(verb), Some(file)) = (args.first(), file) else {
        return Err("expected a verb and a FILE".into());
    };
    let rest: Vec<String> = std::iter::once(verb).chain(&args[2..]).cloned().collect();
    let parsed = Args::parse(&rest, flags).map_err(|e| e.to_string())?;
    Ok((parsed, file))
}

/// `uniq trace report FILE`: rebuilds the causal span tree of a recorded
/// `trace.jsonl` file and prints the critical path and per-stage
/// self-time table. Exit 0 = complete tree, 1 = orphaned spans or an
/// unreadable trace, 2 = usage error.
pub fn trace_cmd(args: &[String]) -> i32 {
    const USAGE: &str = "usage: uniq trace report FILE";
    let verbs = |verb: &str| (verb == "report").then(FlagSet::default);
    let path = match parse_verb_file(args, verbs) {
        Ok((_, path)) => path,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return 2;
        }
    };
    match uniq_telemetry::trace::parse_trace(&text) {
        Ok(tree) => {
            println!("{}", tree.render_report());
            if tree.orphans.is_empty() {
                0
            } else {
                eprintln!(
                    "error: {} orphaned span(s) — broken causality",
                    tree.orphans.len()
                );
                1
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// `uniq history trend|compare FILE [--quality-tol X] [--latency-tol X]`:
/// the cross-run ledger gates. `trend` tests the newest record against
/// the median/MAD of its label's history; `compare` diffs the last two
/// records of that label. Tolerances are finite and non-negative. Exit
/// 0 = clean, 1 = latency warning, 2 = quality regression or usage error.
pub fn history_cmd(args: &[String]) -> i32 {
    const USAGE: &str =
        "usage: uniq history trend|compare FILE [--quality-tol X] [--latency-tol X]";
    let tolerance = |parsed: &Args, key: &str, default: f64| match parsed.get_f64(key, default) {
        Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
        Ok(v) => Err(format!("--{key} must be finite and non-negative, got {v}")),
        Err(e) => Err(e.to_string()),
    };
    let verbs = |verb: &str| {
        matches!(verb, "trend" | "compare").then_some(FlagSet {
            options: "quality-tol latency-tol",
            switches: "",
        })
    };
    let parsed = parse_verb_file(args, verbs).and_then(|(parsed, path)| {
        let quality = tolerance(&parsed, "quality-tol", ledger::DEFAULT_QUALITY_TOL)?;
        let latency = tolerance(&parsed, "latency-tol", ledger::DEFAULT_LATENCY_TOL)?;
        Ok((parsed.command, path, quality, latency))
    });
    let (mode, path, quality_tol, latency_tol) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return 2;
        }
    };
    let records = match ledger::read_history(&text) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return 2;
        }
    };
    let report = match mode.as_str() {
        "trend" => ledger::trend(&records, quality_tol, latency_tol),
        _ => ledger::compare_last_two(&records, quality_tol, latency_tol),
    };
    println!("{}", report.render());
    report.exit_code
}

/// `uniq store <verb> …`: the content-addressed HRTF artifact store.
///
/// Verbs: `put` (personalize a subject and persist the `.uhrtf`
/// artifact), `get` (load by content key), `ls` (index listing),
/// `verify` (deep integrity sweep), `export` (artifact → `.uniqhrtf`
/// text table), `import` (text table → artifact). Exit 0 = ok,
/// 1 = failure or verification finding, 2 = usage error.
pub fn store_cmd(args: &[String]) -> i32 {
    const USAGE: &str = "usage: uniq store <verb> [options]\n\
         \x20 put    --store DIR --seed N [--anechoic] [--grid DEG] [--snr DB] [--history PATH]\n\
         \x20 get    --store DIR --key KEY [--out FILE.uhrtf] [--table FILE.uniqhrtf]\n\
         \x20 ls     --store DIR\n\
         \x20 verify --store DIR\n\
         \x20 export --store DIR --key KEY --out FILE.uniqhrtf\n\
         \x20 import --store DIR --table FILE.uniqhrtf [--seed N]";
    let parsed = match Args::parse(args, store_flags) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    };
    let result = match parsed.command.as_str() {
        "put" => store_put(&parsed),
        "get" => store_get(&parsed),
        "ls" => store_ls(&parsed),
        "verify" => store_verify(&parsed),
        "export" => store_export(&parsed),
        "import" => store_import(&parsed),
        "help" | "--help" => {
            println!("{USAGE}");
            return 0;
        }
        other => {
            eprintln!("error: unknown store verb {other:?}\n{USAGE}");
            return 2;
        }
    };
    uniq_obs::flush_global_sink();
    match result {
        Ok((report, code)) => {
            println!("{report}");
            code
        }
        Err(StoreCmdError::Usage(e)) => {
            eprintln!("error: {e}\n{USAGE}");
            2
        }
        Err(StoreCmdError::Run(e)) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// The flags each store verb accepts.
fn store_flags(verb: &str) -> Option<FlagSet> {
    let (options, switches) = match verb {
        "put" => ("store seed grid snr history", "anechoic"),
        "get" => ("store key out table", ""),
        "ls" | "verify" => ("store", ""),
        "export" => ("store key out", ""),
        "import" => ("store table seed", ""),
        "help" | "--help" => ("", ""),
        _ => return None,
    };
    Some(FlagSet { options, switches })
}

/// A store verb's failure, split by exit-code tier: bad invocation (2)
/// vs a runtime/integrity failure (1).
enum StoreCmdError {
    Usage(String),
    Run(String),
}

fn open_store(args: &Args) -> Result<uniq_store::Store, StoreCmdError> {
    let dir = args
        .require("store")
        .map_err(|e| StoreCmdError::Usage(e.to_string()))?;
    uniq_store::Store::open(Path::new(dir)).map_err(|e| StoreCmdError::Run(e.to_string()))
}

fn store_put(args: &Args) -> Result<(String, i32), StoreCmdError> {
    let store = open_store(args)?;
    let usage = |e: crate::args::ArgError| StoreCmdError::Usage(e.to_string());
    let seed = args.get_u64("seed", 42).map_err(usage)?;
    let grid = args.get_f64("grid", 5.0).map_err(usage)?;
    let snr = args.get_f64("snr", 35.0).map_err(usage)?;
    let cfg = UniqConfig {
        in_room: !args.switch("anechoic"),
        grid_step_deg: grid,
        snr_db: snr,
        ..UniqConfig::default()
    };
    let subject = Subject::from_seed(seed);
    let sw = uniq_obs::Stopwatch::start();
    let result = personalize_with_retry(&subject, &cfg, seed, 3)
        .map_err(|e| StoreCmdError::Run(format!("personalization failed: {e}")))?;
    let wall_seconds = sw.elapsed_seconds();
    let artifact = uniq_store::HrtfArtifact::from_result(seed, &result, cfg.content_hash(), None);
    let outcome = store
        .put(&artifact)
        .map_err(|e| StoreCmdError::Run(e.to_string()))?;
    let mut lines = vec![
        format!("key {}", outcome.key),
        format!(
            "subject {seed}: fingerprint {:#018x}, config hash {:#018x}, {} bytes{}",
            artifact.subject_fingerprint,
            artifact.config_hash,
            outcome.bytes,
            if outcome.deduped {
                " (deduplicated — content already stored)"
            } else {
                ""
            },
        ),
        format!(
            "store {}: {} artifact(s)",
            store.root().display(),
            store.len()
        ),
    ];
    let mut record = LedgerRecord::new("store-put");
    record.seed = seed;
    record.wall_seconds = wall_seconds;
    record.fingerprint = format!("{:#018x}", artifact.subject_fingerprint);
    record.store = Some(format!(
        "key {}, {} bytes, {}",
        outcome.key,
        outcome.bytes,
        if outcome.deduped { "deduped" } else { "new" }
    ));
    lines.extend(append_history(args, &record).map_err(StoreCmdError::Run)?);
    Ok((lines.join("\n"), 0))
}

fn store_get(args: &Args) -> Result<(String, i32), StoreCmdError> {
    let store = open_store(args)?;
    let key = args
        .require("key")
        .map_err(|e| StoreCmdError::Usage(e.to_string()))?;
    let artifact = store
        .get(key)
        .map_err(|e| StoreCmdError::Run(e.to_string()))?;
    let recomputed = artifact.fingerprint();
    let mut lines = vec![format!(
        "key {key}\n\
         seed {}, config hash {:#018x}, sample rate {} Hz\n\
         near grid: {} angles × {} taps; far grid: {} angles × {} taps\n\
         stamped fingerprint {:#018x}, recomputed {:#018x} ({})",
        artifact.seed,
        artifact.config_hash,
        artifact.sample_rate,
        artifact.near.len(),
        artifact.near.ir_len,
        artifact.far.len(),
        artifact.far.ir_len,
        artifact.subject_fingerprint,
        recomputed,
        if recomputed == artifact.subject_fingerprint {
            "match"
        } else {
            "MISMATCH"
        },
    )];
    if let Some(deg) = &artifact.degradation_json {
        lines.push(format!("degradation report: {deg}"));
    }
    if let Some(out) = args.get("out") {
        let bytes = store
            .get_bytes(key)
            .map_err(|e| StoreCmdError::Run(e.to_string()))?;
        std::fs::write(Path::new(out), bytes)
            .map_err(|e| StoreCmdError::Run(format!("cannot write {out}: {e}")))?;
        lines.push(format!("raw artifact written to {out}"));
    }
    if let Some(path) = args.get("table") {
        let table = artifact
            .to_table()
            .map_err(|e| StoreCmdError::Run(e.to_string()))?;
        uniq_core::io::save(&table, Path::new(path))
            .map_err(|e| StoreCmdError::Run(format!("cannot write {path}: {e}")))?;
        lines.push(format!("table written to {path}"));
    }
    let code = i32::from(recomputed != artifact.subject_fingerprint);
    Ok((lines.join("\n"), code))
}

fn store_ls(args: &Args) -> Result<(String, i32), StoreCmdError> {
    let store = open_store(args)?;
    let entries = store.scan();
    let mut lines = vec![format!(
        "store {}: {} artifact(s), fingerprint {:#018x}",
        store.root().display(),
        entries.len(),
        store.fingerprint(),
    )];
    for e in &entries {
        lines.push(format!(
            "  {}  seed {:>6}  subject {:016x}  config {:016x}  {:>8} bytes",
            e.key, e.seed, e.subject_fingerprint, e.config_hash, e.bytes,
        ));
    }
    Ok((lines.join("\n"), 0))
}

fn store_verify(args: &Args) -> Result<(String, i32), StoreCmdError> {
    let store = open_store(args)?;
    let report = store.verify();
    let mut lines = vec![format!(
        "verified {} artifact(s) in {}",
        report.entries,
        store.root().display(),
    )];
    for (key, err) in &report.failures {
        lines.push(format!("  CORRUPT {key}: {err}"));
    }
    if report.is_clean() {
        lines.push("store verify: ok".into());
        Ok((lines.join("\n"), 0))
    } else {
        lines.push(format!(
            "store verify: {} finding(s)",
            report.failures.len()
        ));
        Ok((lines.join("\n"), 1))
    }
}

fn store_export(args: &Args) -> Result<(String, i32), StoreCmdError> {
    let store = open_store(args)?;
    let usage = |e: crate::args::ArgError| StoreCmdError::Usage(e.to_string());
    let key = args.require("key").map_err(usage)?;
    let out = args.require("out").map_err(usage)?;
    let artifact = store
        .get(key)
        .map_err(|e| StoreCmdError::Run(e.to_string()))?;
    let table = artifact
        .to_table()
        .map_err(|e| StoreCmdError::Run(e.to_string()))?;
    uniq_core::io::save(&table, Path::new(out))
        .map_err(|e| StoreCmdError::Run(format!("cannot write {out}: {e}")))?;
    Ok((
        format!(
            "exported {key} → {out} ({} near + {} far angles)",
            table.near().len(),
            table.far().len(),
        ),
        0,
    ))
}

fn store_import(args: &Args) -> Result<(String, i32), StoreCmdError> {
    let store = open_store(args)?;
    let usage = |e: crate::args::ArgError| StoreCmdError::Usage(e.to_string());
    let path = args.require("table").map_err(usage)?;
    let seed = args.get_u64("seed", 0).map_err(usage)?;
    let table = uniq_core::io::load(Path::new(path))
        .map_err(|e| StoreCmdError::Run(format!("cannot load {path}: {e}")))?;
    // A text table carries no run metadata, so the artifact's provenance
    // (radius, attempts, localization, config hash) is zeroed.
    let artifact = uniq_store::HrtfArtifact::from_table(seed, &table, 0);
    let outcome = store
        .put(&artifact)
        .map_err(|e| StoreCmdError::Run(e.to_string()))?;
    Ok((
        format!(
            "imported {path} → key {} ({} bytes{})",
            outcome.key,
            outcome.bytes,
            if outcome.deduped {
                ", deduplicated"
            } else {
                ""
            },
        ),
        0,
    ))
}

/// Appends a ledger record for a finished run when `--history PATH` was
/// given (pass `--history default` for `bench_results/history.jsonl`).
fn append_history(args: &Args, record: &LedgerRecord) -> Result<Option<String>, String> {
    let Some(path) = args.get("history") else {
        return Ok(None);
    };
    let path = if path == "default" {
        ledger::DEFAULT_HISTORY_FILE
    } else {
        path
    };
    ledger::append(Path::new(path), record).map_err(|e| format!("cannot append to {path}: {e}"))?;
    Ok(Some(format!("ledger record appended to {path}")))
}

fn dispatch(args: &Args) -> Result<String, String> {
    match args.command.as_str() {
        "personalize" => personalize_cmd(args),
        "batch" => batch_cmd(args),
        "info" => info_cmd(args),
        "render" => render_cmd(args),
        "aoa" => aoa_cmd(args),
        "serve" => serve_cmd(args),
        "loadgen" => loadgen_cmd(args),
        "help" | "--help" => Ok(usage()),
        other => Err(format!("unknown command {other:?}\n\n{}", usage())),
    }
}

/// `uniq serve`: a long-running sharded personalization server. Prints
/// the bound address immediately (and to `--addr-file` when given, so
/// scripts binding port 0 can discover it), then blocks until a client
/// sends a protocol `{"type":"shutdown"}` request, drains in-flight
/// work, and reports totals. Exit is always clean (0) after a drain.
fn serve_cmd(args: &Args) -> Result<String, String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:0");
    let shards = args.get_u64("shards", 2).map_err(|e| e.to_string())? as usize;
    let queue_depth = args.get_u64("queue-depth", 32).map_err(|e| e.to_string())? as usize;
    let grid = args.get_f64("grid", 5.0).map_err(|e| e.to_string())?;
    let snr = args.get_f64("snr", 35.0).map_err(|e| e.to_string())?;
    let base = UniqConfig {
        in_room: !args.switch("anechoic"),
        grid_step_deg: grid,
        snr_db: snr,
        ..UniqConfig::default()
    };
    let fault_hook = match args.get("fault-plan") {
        Some(spec) => {
            let fault_seed = args.get_u64("fault-seed", 42).map_err(|e| e.to_string())?;
            let plan =
                FaultPlan::parse(spec, fault_seed).map_err(|e| format!("--fault-plan: {e}"))?;
            Some(Arc::new(plan) as Arc<dyn uniq_core::FaultHook + Send + Sync>)
        }
        None => None,
    };
    let cfg = uniq_serve::ServeConfig {
        shards,
        queue_depth,
        base,
        store_dir: args.get("store").map(std::path::PathBuf::from),
        fault_hook,
        ..uniq_serve::ServeConfig::default()
    };
    let cached = cfg.store_dir.is_some();

    let sw = uniq_obs::Stopwatch::start();
    let server = uniq_serve::Server::start(addr, cfg).map_err(|e| e.to_string())?;
    let bound = server.local_addr();
    // The address goes out *before* the blocking wait — it is how
    // clients (and the CI smoke) find a port-0 server.
    println!(
        "serving on {bound} ({shards} shard(s), queue depth {queue_depth}, cache {})",
        if cached { "on" } else { "off" }
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Some(path) = args.get("addr-file") {
        std::fs::write(Path::new(path), format!("{bound}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    server.wait_shutdown_requested();
    let drain = server.shutdown();
    let wall_seconds = sw.elapsed_seconds();

    let stats = drain.stats;
    let fingerprint = uniq_serve::fold_fingerprints(&drain.fingerprints);
    let mut lines = vec![format!(
        "serve drained after {wall_seconds:.3}s: {} request(s), {} ok, {} cached, \
         {} computed, {} shed, {} error(s)\n\
         {} subject(s), population fingerprint {fingerprint:#018x}",
        stats.requests,
        stats.ok,
        stats.cache_hits,
        stats.computed,
        stats.shed,
        stats.errors,
        drain.fingerprints.len(),
    )];
    let mut record = LedgerRecord::new("serve");
    record.threads = shards as u64;
    record.wall_seconds = wall_seconds;
    record.fingerprint = format!("{fingerprint:#018x}");
    record
        .quality
        .insert("requests".into(), stats.requests as f64);
    record.quality.insert("ok".into(), stats.ok as f64);
    record
        .quality
        .insert("cache_hits".into(), stats.cache_hits as f64);
    record.quality.insert("shed".into(), stats.shed as f64);
    record.quality.insert("errors".into(), stats.errors as f64);
    lines.extend(append_history(args, &record)?);
    Ok(lines.join("\n"))
}

/// `uniq loadgen`: the deterministic closed-loop load harness. Drives a
/// live server with a seeded subject population and prints throughput
/// plus the p50/p99 request-latency table from its recorder.
fn loadgen_cmd(args: &Args) -> Result<String, String> {
    let parse_opt_f64 = |key: &str| -> Result<Option<f64>, String> {
        args.get(key)
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|_| format!("bad value {v:?} for --{key}"))
            })
            .transpose()
    };
    let cfg = uniq_serve::LoadgenConfig {
        addr: args.require("addr").map_err(|e| e.to_string())?.to_string(),
        subjects: args.get_u64("subjects", 8).map_err(|e| e.to_string())?,
        seed_base: args.get_u64("seed", 42).map_err(|e| e.to_string())?,
        clients: args.get_u64("clients", 4).map_err(|e| e.to_string())? as usize,
        repeat: args.get_f64("repeat", 0.25).map_err(|e| e.to_string())?,
        grid_step_deg: parse_opt_f64("grid")?,
        snr_db: parse_opt_f64("snr")?,
        anechoic: args.switch("anechoic").then_some(true),
        no_cache: args.switch("no-cache"),
        shutdown_after: args.switch("shutdown"),
    };
    let report = uniq_serve::loadgen::run(&cfg).map_err(|e| e.to_string())?;
    if report.fingerprint_conflicts > 0 {
        return Err(format!(
            "server is non-deterministic: {} fingerprint conflict(s) across {} subject(s)",
            report.fingerprint_conflicts,
            report.fingerprints.len(),
        ));
    }
    let fingerprint = uniq_serve::fold_fingerprints(&report.fingerprints);
    let mut lines = vec![format!(
        "loadgen {} request(s) over {} client(s) in {:.3}s: {} ok, {} cached, \
         {} overloaded, {} error(s)\n\
         {:.2} subjects/s, {:.2} requests/s, latency p50 {:.1}ms p99 {:.1}ms\n\
         {} subject(s), population fingerprint {fingerprint:#018x}",
        report.requests,
        cfg.clients,
        report.wall_seconds,
        report.ok,
        report.cache_hits,
        report.overloaded,
        report.errors,
        report.subjects_per_second,
        report.requests_per_second,
        report.p50_ms,
        report.p99_ms,
        report.fingerprints.len(),
    )];
    lines.push(String::new());
    lines.push(report.profile.render_table());
    let mut record = LedgerRecord::new("loadgen");
    record.seed = cfg.seed_base;
    record.threads = cfg.clients as u64;
    record.wall_seconds = report.wall_seconds;
    record.fingerprint = format!("{fingerprint:#018x}");
    record
        .quality
        .insert("subjects_per_second".into(), report.subjects_per_second);
    record
        .quality
        .insert("cache_hits".into(), report.cache_hits as f64);
    record
        .quality
        .insert("overloaded".into(), report.overloaded as f64);
    record.quality.insert("p50_ms".into(), report.p50_ms);
    record.quality.insert("p99_ms".into(), report.p99_ms);
    lines.extend(append_history(args, &record)?);
    Ok(lines.join("\n"))
}

fn dispatch_faulted(args: &Args) -> Result<String, String> {
    match args.command.as_str() {
        "personalize" => personalize_faulted_cmd(args),
        "help" | "--help" => Ok(usage()),
        other => Err(format!(
            "`faults` wraps personalize only, not {other:?}\n\n{}",
            usage()
        )),
    }
}

fn personalize_faulted_cmd(args: &Args) -> Result<String, String> {
    let seed = args.get_u64("seed", 42).map_err(|e| e.to_string())?;
    let grid = args.get_f64("grid", 5.0).map_err(|e| e.to_string())?;
    let snr = args.get_f64("snr", 35.0).map_err(|e| e.to_string())?;
    let cfg = UniqConfig {
        in_room: !args.switch("anechoic"),
        grid_step_deg: grid,
        snr_db: snr,
        ..UniqConfig::default()
    };

    let spec = args.require("fault-plan").map_err(|e| e.to_string())?;
    let fault_seed = args
        .get_u64("fault-seed", seed)
        .map_err(|e| e.to_string())?;
    let plan = FaultPlan::parse(spec, fault_seed).map_err(|e| format!("--fault-plan: {e}"))?;
    let retries = args
        .get_u64("fault-retries", 1)
        .map_err(|e| e.to_string())? as usize;
    let policy = DegradationPolicy {
        stop_retries: retries,
        skip_failed_stops: !args.switch("no-skip"),
        ..DegradationPolicy::default()
    };

    let subject = Subject::from_seed(seed);
    let faulted = personalize_faulted_with_retry(&subject, &cfg, seed, &plan, &policy, 3)
        .map_err(|e| format!("personalization failed under faults: {e}"))?;

    if let Some(path) = args.get("fault-report") {
        std::fs::write(Path::new(path), faulted.degradation.to_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    let result = &faulted.result;
    let mut lines = vec![format!(
        "personalized subject {seed} under fault plan {spec:?} in {} attempt(s)\n\
         fitted head: a={:.3} b={:.3} c={:.3} (residual {:.1}°)",
        result.attempts,
        result.fusion.head.a,
        result.fusion.head.b,
        result.fusion.head.c,
        result.fusion.mean_residual_deg,
    )];
    lines.push(format!("{}", faulted.degradation));
    if let Some(out) = args.get("out") {
        uniq_core::io::save(&result.hrtf, Path::new(out))
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        lines.push(format!(
            "table written to {out} ({} near + {} far angles)",
            result.hrtf.near().len(),
            result.hrtf.far().len(),
        ));
    }
    let deg = &faulted.degradation;
    let mut record = LedgerRecord::new("personalize-faulted");
    record.seed = seed;
    record.fingerprint = format!("{:#018x}", single_fingerprint(seed, result));
    record.quality.insert(
        "fusion_mean_residual_deg".into(),
        result.fusion.mean_residual_deg,
    );
    record
        .quality
        .insert("mean_stop_quality".into(), deg.mean_quality);
    record.degradation = Some(format!(
        "stops {}/{} kept, {} dropped, {} retries, classes [{}]",
        deg.stops_used,
        deg.stops_planned,
        deg.stops_dropped,
        deg.retries,
        deg.fault_classes.join(","),
    ));
    lines.extend(append_history(args, &record)?);
    Ok(lines.join("\n"))
}

/// The usage text.
pub fn usage() -> String {
    "uniq — HRTF personalization (SIGCOMM'21 reproduction)\n\
     \n\
     commands:\n\
     \x20 personalize --seed N --out FILE [--anechoic] [--grid DEG] [--snr DB]\n\
     \x20     run the full pipeline for synthetic subject N, save the table\n\
     \x20 batch --subjects N [--seed BASE] [--threads T] [--anechoic] [--grid DEG]\n\
     \x20       [--snr DB] [--scaling T1,T2,..] [--out FILE]\n\
     \x20     personalize N synthetic subjects concurrently (T=0 or unset: auto\n\
     \x20     from UNIQ_THREADS / available parallelism); --scaling re-runs the\n\
     \x20     batch at each pool size and writes a throughput report JSON\n\
     \x20 info --table FILE\n\
     \x20     summarize a saved .uniqhrtf table\n\
     \x20 render --table FILE --theta DEG --signal noise|music|speech --out FILE.wav\n\
     \x20         [--near] [--duration S] [--seed N]\n\
     \x20     spatialize a test signal through the table, write stereo WAV\n\
     \x20 aoa --table FILE --theta DEG --signal noise|music|speech [--seed N]\n\
     \x20     simulate an unknown ambient source and estimate its direction\n\
     \n\
     persistence:\n\
     \x20 store put --store DIR --seed N [--anechoic] [--grid DEG] [--snr DB]\n\
     \x20     personalize subject N and persist the result as a checksummed\n\
     \x20     .uhrtf artifact, content-addressed and deduplicated\n\
     \x20 store get --store DIR --key KEY [--out F.uhrtf] [--table F.uniqhrtf]\n\
     \x20     load an artifact by content key; print provenance + fingerprint\n\
     \x20 store ls --store DIR          list the index (+ store fingerprint)\n\
     \x20 store verify --store DIR      deep integrity sweep (exit 1 on findings)\n\
     \x20 store export --store DIR --key KEY --out F.uniqhrtf\n\
     \x20 store import --store DIR --table F.uniqhrtf [--seed N]\n\
     \x20     round-trip artifacts through the .uniqhrtf text format\n\
     \n\
     serving:\n\
     \x20 serve [--addr HOST:PORT] [--shards N] [--queue-depth N] [--store DIR]\n\
     \x20       [--grid DEG] [--snr DB] [--anechoic] [--fault-plan SPEC]\n\
     \x20       [--fault-seed N] [--addr-file FILE] [--history PATH]\n\
     \x20     long-running sharded personalization server (line-delimited JSON\n\
     \x20     over TCP); port 0 binds an ephemeral port, printed immediately and\n\
     \x20     written to --addr-file; --store enables the content-addressed\n\
     \x20     result cache; drains and exits 0 on a protocol shutdown request\n\
     \x20 loadgen --addr HOST:PORT [--subjects N] [--seed BASE] [--clients N]\n\
     \x20         [--repeat R] [--grid DEG] [--snr DB] [--anechoic] [--no-cache]\n\
     \x20         [--shutdown] [--history PATH]\n\
     \x20     seeded closed-loop load generator: N subjects over concurrent\n\
     \x20     clients, fraction R re-requested to exercise the cache; prints\n\
     \x20     throughput + p50/p99 latency; --shutdown stops the server after\n\
     \n\
     observability (any command):\n\
     \x20 --trace              live span tree on stderr + the recorded per-stage table\n\
     \x20 --record DIR         write every recorded view into DIR: trace.jsonl (event\n\
     \x20     log), report.txt (per-stage table), profile.json, flame.folded,\n\
     \x20     alloc.folded (allocation profile, bytes-weighted),\n\
     \x20     telemetry.prom (Prometheus text), telemetry.json\n\
     \x20 --history PATH       (personalize/batch/serve/loadgen/faults) append a run\n\
     \x20     record to the ledger (PATH `default` = bench_results/history.jsonl)\n\
     \n\
     telemetry:\n\
     \x20 trace report FILE\n\
     \x20     rebuild the causal span tree of a recorded trace.jsonl; print the\n\
     \x20     critical path and per-stage self time (exit 1 on orphaned spans)\n\
     \x20 history trend|compare FILE [--quality-tol X] [--latency-tol X]\n\
     \x20     gate the newest run ledger record against its history (trend:\n\
     \x20     median/MAD drift; compare: last two records); exit 0 ok,\n\
     \x20     1 latency warning, 2 quality regression\n\
     \n\
     fault injection:\n\
     \x20 faults personalize --fault-plan SPEC [--fault-seed N] [--fault-retries R]\n\
     \x20        [--no-skip] [--fault-report FILE] [--out FILE] [usual flags...]\n\
     \x20     personalize under a deterministic fault plan with graceful\n\
     \x20     degradation (skip/retry corrupted stops, re-weighted fusion);\n\
     \x20     prints the degradation report, optionally as JSON (--fault-report)\n\
     \x20     SPEC: comma-separated name[:param[:param]][@stop][~], e.g.\n\
     \x20     \"drop@2,snr:-12@4,clip:0.35\" — classes: drop truncate clip snr\n\
     \x20     gyro-dropout gyro-sat jitter dup reorder; trailing ~ = transient\n\
     \x20     (heals on retry)\n\
     \n\
     Unknown commands, stray arguments and unknown or repeated flags are\n\
     usage errors (exit 2).\n"
        .to_string()
}

fn signal_kind(name: &str) -> Result<SignalKind, String> {
    match name {
        "noise" | "white" | "white-noise" => Ok(SignalKind::WhiteNoise),
        "music" => Ok(SignalKind::Music),
        "speech" => Ok(SignalKind::Speech),
        other => Err(format!(
            "unknown signal kind {other:?} (noise|music|speech)"
        )),
    }
}

fn personalize_cmd(args: &Args) -> Result<String, String> {
    let seed = args.get_u64("seed", 42).map_err(|e| e.to_string())?;
    let out = args.require("out").map_err(|e| e.to_string())?;
    let grid = args.get_f64("grid", 5.0).map_err(|e| e.to_string())?;
    let snr = args.get_f64("snr", 35.0).map_err(|e| e.to_string())?;
    let cfg = UniqConfig {
        in_room: !args.switch("anechoic"),
        grid_step_deg: grid,
        snr_db: snr,
        ..UniqConfig::default()
    };

    let subject = Subject::from_seed(seed);
    let sw = uniq_obs::Stopwatch::start();
    let result = personalize_with_retry(&subject, &cfg, seed, 3)
        .map_err(|e| format!("personalization failed: {e}"))?;
    let wall_seconds = sw.elapsed_seconds();
    uniq_core::io::save(&result.hrtf, Path::new(out))
        .map_err(|e| format!("cannot write {out}: {e}"))?;

    let errs: Vec<f64> = result
        .localization
        .iter()
        .map(|(t, e)| uniq_geometry::vec2::angle_diff_deg(*t, *e))
        .collect();
    let loc_median = uniq_dsp::stats::median(&errs);
    let mut lines = vec![format!(
        "personalized subject {seed} in {} attempt(s)\n\
         fitted head: a={:.3} b={:.3} c={:.3} (residual {:.1}°)\n\
         localization median {loc_median:.1}°\n\
         table written to {out} ({} near + {} far angles)",
        result.attempts,
        result.fusion.head.a,
        result.fusion.head.b,
        result.fusion.head.c,
        result.fusion.mean_residual_deg,
        result.hrtf.near().len(),
        result.hrtf.far().len(),
    )];
    let mut record = LedgerRecord::new("personalize");
    record.seed = seed;
    record.threads = cfg.threads as u64;
    record.wall_seconds = wall_seconds;
    record.fingerprint = format!("{:#018x}", single_fingerprint(seed, &result));
    record
        .quality
        .insert("localization_median_deg".into(), loc_median);
    record.quality.insert(
        "fusion_mean_residual_deg".into(),
        result.fusion.mean_residual_deg,
    );
    record.quality.insert("radius_m".into(), result.radius_m);
    record
        .quality
        .insert("attempts".into(), result.attempts as f64);
    lines.extend(append_history(args, &record)?);
    Ok(lines.join("\n"))
}

/// One personalization result digested through the batch fingerprint —
/// every HRIR bit, localization estimate, and the radius in one number.
fn single_fingerprint(seed: u64, result: &uniq_core::pipeline::PersonalizationResult) -> u64 {
    uniq_core::batch::hrtf_fingerprint(&[uniq_core::batch::BatchOutcome {
        seed,
        result: Ok(result.clone()),
        seconds: 0.0,
    }])
}

/// Renders a [`ScalingReport`] as a JSON document (fingerprints in hex so
/// consumers never lose bits to double precision).
fn scaling_json(report: &uniq_core::batch::ScalingReport, seed_base: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"subjects\": {},\n", report.subjects));
    out.push_str(&format!("  \"seed_base\": {seed_base},\n"));
    out.push_str(&format!("  \"deterministic\": {},\n", report.deterministic));
    out.push_str("  \"points\": [\n");
    for (i, p) in report.points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"threads\": {}, \"seconds\": {:.6}, \"subjects_per_second\": {:.6}, \"fingerprint\": \"{:#018x}\"}}{}\n",
            p.threads,
            p.seconds,
            p.subjects_per_second,
            p.fingerprint,
            if i + 1 < report.points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn batch_cmd(args: &Args) -> Result<String, String> {
    let subjects = args.get_u64("subjects", 4).map_err(|e| e.to_string())?;
    if subjects == 0 {
        return Err("batch needs at least one subject".into());
    }
    let base = args.get_u64("seed", 42).map_err(|e| e.to_string())?;
    let threads = args.get_u64("threads", 0).map_err(|e| e.to_string())? as usize;
    let grid = args.get_f64("grid", 15.0).map_err(|e| e.to_string())?;
    let snr = args.get_f64("snr", 40.0).map_err(|e| e.to_string())?;
    // Subject-level parallelism only: each worker personalizes whole
    // subjects, so the per-subject pipeline runs sequentially (threads: 1)
    // to avoid oversubscribing the pool.
    let cfg = UniqConfig {
        in_room: !args.switch("anechoic"),
        grid_step_deg: grid,
        snr_db: snr,
        threads: 1,
        ..UniqConfig::default()
    };
    let seeds: Vec<u64> = (0..subjects).map(|i| base.wrapping_add(i)).collect();

    if let Some(list) = args.get("scaling") {
        let counts: Vec<usize> = list
            .split(',')
            .map(|t| t.trim().parse::<usize>())
            .collect::<Result<_, _>>()
            .map_err(|_| format!("bad --scaling list {list:?} (want e.g. 1,2,4,8)"))?;
        if counts.is_empty() {
            return Err("--scaling list is empty".into());
        }
        let report = uniq_core::batch::scaling_sweep(&seeds, &cfg, &counts, 3);
        let out = args
            .get("out")
            .unwrap_or("bench_results/batch_scaling.json");
        let path = Path::new(out);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, scaling_json(&report, base))
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        let mut lines = vec![format!(
            "batch scaling: {} subjects (seeds {base}..{})",
            report.subjects,
            base.wrapping_add(subjects - 1),
        )];
        let baseline = report.points[0].seconds;
        for p in &report.points {
            lines.push(format!(
                "  threads {:>2}: {:>7.2}s  {:.2} subj/s  speedup {:.2}x",
                p.threads,
                p.seconds,
                p.subjects_per_second,
                baseline / p.seconds.max(1e-12),
            ));
        }
        lines.push(format!(
            "outputs bit-identical across pool sizes: {}",
            if report.deterministic {
                "yes"
            } else {
                "NO — determinism contract violated"
            }
        ));
        lines.push(format!("report written to {out}"));
        return Ok(lines.join("\n"));
    }

    let pool_size = uniq_par::pool(threads).threads();
    let start = std::time::Instant::now();
    let outcomes = uniq_core::batch::personalize_batch(&seeds, &cfg, threads, 3);
    let total = start.elapsed().as_secs_f64();

    let mut lines = vec![format!(
        "batch: {subjects} subject(s) on {pool_size} thread(s)"
    )];
    let mut failed = 0usize;
    for o in &outcomes {
        match &o.result {
            Ok(r) => lines.push(format!(
                "  subject {:>4}: ok   {:.2}s  {} attempt(s), radius {:.2} m",
                o.seed, o.seconds, r.attempts, r.radius_m
            )),
            Err(e) => {
                failed += 1;
                lines.push(format!(
                    "  subject {:>4}: FAIL {:.2}s  {e}",
                    o.seed, o.seconds
                ));
            }
        }
    }
    lines.push(format!(
        "{}/{} succeeded in {total:.2}s ({:.2} subjects/s)",
        outcomes.len() - failed,
        outcomes.len(),
        outcomes.len() as f64 / total.max(1e-12),
    ));
    let mut record = LedgerRecord::new("batch");
    record.seed = base;
    record.threads = pool_size as u64;
    record.wall_seconds = total;
    record.fingerprint = format!("{:#018x}", uniq_core::batch::hrtf_fingerprint(&outcomes));
    record.quality.insert("subjects".into(), subjects as f64);
    record.quality.insert("failures".into(), failed as f64);
    lines.extend(append_history(args, &record)?);
    Ok(lines.join("\n"))
}

fn load_table(args: &Args) -> Result<uniq_core::hrtf::PersonalHrtf, String> {
    let path = args.require("table").map_err(|e| e.to_string())?;
    uniq_core::io::load(Path::new(path)).map_err(|e| format!("cannot load {path}: {e}"))
}

fn info_cmd(args: &Args) -> Result<String, String> {
    let t = load_table(args)?;
    let head = t.head();
    Ok(format!(
        "UNIQ HRTF table\n\
         sample rate: {} Hz\n\
         head parameters: a={:.3} m, b={:.3} m, c={:.3} m\n\
         near-field bank: {} angles ({:.0}°..{:.0}°), {} taps per HRIR\n\
         far-field bank:  {} angles",
        t.sample_rate(),
        head.a,
        head.b,
        head.c,
        t.near().len(),
        t.near().angles().first().copied().unwrap_or(0.0),
        t.near().angles().last().copied().unwrap_or(0.0),
        t.near().irs()[0].len(),
        t.far().len(),
    ))
}

fn render_cmd(args: &Args) -> Result<String, String> {
    let t = load_table(args)?;
    let theta = args.get_f64("theta", 45.0).map_err(|e| e.to_string())?;
    let duration = args.get_f64("duration", 1.0).map_err(|e| e.to_string())?;
    let seed = args.get_u64("seed", 7).map_err(|e| e.to_string())?;
    let kind = signal_kind(args.get("signal").unwrap_or("music"))?;
    let out = args.require("out").map_err(|e| e.to_string())?;

    let sig = uniq_acoustics::signals::generate(kind, duration, t.sample_rate(), seed);
    let rendered = t.synthesize(&sig, theta, !args.switch("near"));
    uniq_render::wav::write_wav(&rendered, t.sample_rate(), Path::new(out))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(format!(
        "rendered {:.1}s of {} from θ={theta}° ({}) → {out}",
        duration,
        kind.label(),
        if args.switch("near") {
            "near field"
        } else {
            "far field"
        },
    ))
}

fn aoa_cmd(args: &Args) -> Result<String, String> {
    let t = load_table(args)?;
    let theta = args.get_f64("theta", 60.0).map_err(|e| e.to_string())?;
    let seed = args.get_u64("seed", 11).map_err(|e| e.to_string())?;
    let kind = signal_kind(args.get("signal").unwrap_or("speech"))?;

    // Simulate an ambient source heard through the *table's own* HRTF —
    // the best available stand-in for the real ear signals when only the
    // table file exists.
    let cfg = UniqConfig {
        grid_step_deg: 5.0,
        ..UniqConfig::default()
    };
    let sig = uniq_acoustics::signals::generate(kind, 0.4, t.sample_rate(), seed);
    let rendered = t.synthesize(&sig, theta, true);
    let rec = uniq_acoustics::measure::BinauralRecording {
        left: rendered.left,
        right: rendered.right,
    };
    let est = uniq_core::aoa::estimate_unknown_source(&rec, t.far(), &cfg);
    Ok(format!(
        "true direction θ={theta}°, estimated θ={est}° (error {:.1}°)",
        uniq_geometry::vec2::angle_diff_deg(est, theta)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    /// The lib-test binary installs the counting allocator itself (the
    /// `uniq` binary does this in its main.rs) so `--record`'s allocation
    /// profile is testable through the public entry points.
    #[global_allocator]
    static ALLOC: uniq_memprof::CountingAllocator = uniq_memprof::CountingAllocator::new();

    fn parse(s: &str, faulted: bool) -> Args {
        let raw: Vec<String> = s.split_whitespace().map(String::from).collect();
        Args::parse(&raw, |command| flags(command, faulted)).unwrap()
    }

    fn argv(s: &str) -> Args {
        parse(s, false)
    }

    /// Arguments of a command under the `faults` wrapper.
    fn fargv(s: &str) -> Args {
        parse(s, true)
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("uniq_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn unknown_command_is_a_parse_error() {
        let raw = vec!["frobnicate".to_string()];
        let err = Args::parse(&raw, |command| flags(command, false)).unwrap_err();
        assert_eq!(err.to_string(), "unknown command \"frobnicate\"");
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&argv("help")).unwrap();
        assert!(out.contains("aoa --table"));
    }

    #[test]
    fn missing_table_reported() {
        let err = run(&argv("info --table /nonexistent/x.uniqhrtf")).unwrap_err();
        assert!(err.contains("cannot load"));
    }

    #[test]
    fn bad_signal_kind_reported() {
        assert!(signal_kind("polka").is_err());
        assert!(signal_kind("noise").is_ok());
    }

    #[test]
    fn full_cli_workflow() {
        // personalize → info → render → aoa, through the public entry.
        let table = temp_path("wf.uniqhrtf");
        let wav = temp_path("wf.wav");
        let t = table.display();

        let out = run(&argv(&format!(
            "personalize --seed 5 --out {t} --anechoic --grid 15"
        )))
        .expect("personalize");
        assert!(out.contains("table written"));

        let out = run(&argv(&format!("info --table {t}"))).expect("info");
        assert!(out.contains("head parameters"));

        let out = run(&argv(&format!(
            "render --table {t} --theta 60 --signal music --duration 0.2 --out {}",
            wav.display()
        )))
        .expect("render");
        assert!(out.contains("rendered"));
        assert!(wav.exists());

        let out = run(&argv(&format!("aoa --table {t} --theta 60 --signal noise"))).expect("aoa");
        assert!(out.contains("estimated"));

        std::fs::remove_file(&table).ok();
        std::fs::remove_file(&wav).ok();
    }

    #[test]
    fn batch_reports_every_subject() {
        let out = run(&argv(
            "batch --subjects 2 --threads 2 --anechoic --grid 15 --snr 45",
        ))
        .expect("batch");
        assert!(out.contains("subject   42"), "missing subject line: {out}");
        assert!(out.contains("subject   43"), "missing subject line: {out}");
        assert!(out.contains("2/2 succeeded"), "missing summary: {out}");
    }

    #[test]
    fn batch_scaling_writes_deterministic_report() {
        let json = temp_path("scaling.json");
        let out = run(&argv(&format!(
            "batch --subjects 2 --scaling 1,2 --anechoic --grid 15 --snr 45 --out {}",
            json.display()
        )))
        .expect("batch --scaling");
        assert!(
            out.contains("bit-identical across pool sizes: yes"),
            "determinism line missing: {out}"
        );
        let content = std::fs::read_to_string(&json).unwrap();
        assert!(content.contains("\"deterministic\": true"));
        assert!(content.contains("\"threads\": 1"));
        assert!(content.contains("\"threads\": 2"));
        std::fs::remove_file(&json).ok();
    }

    #[test]
    fn record_of_failed_command_still_writes_views() {
        let dir = temp_path("rec_fail");
        let _ = std::fs::remove_dir_all(&dir);
        // personalize without --out fails; the views must exist and parse
        // anyway.
        let err = run(&argv(&format!(
            "personalize --seed 6 --record {}",
            dir.display()
        )))
        .unwrap_err();
        assert!(err.contains("out"), "unexpected error: {err}");
        let text = std::fs::read_to_string(dir.join("profile.json")).unwrap();
        let doc = uniq_obs::json::Json::parse(&text).unwrap();
        assert!(doc.get("schema_version").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faulted_personalize_reports_degradation() {
        let report = temp_path("deg.json");
        let out = run_faults(&fargv(&format!(
            "personalize --seed 6 --anechoic --grid 15 --snr 45 \
             --fault-plan drop@2 --fault-report {}",
            report.display()
        )))
        .expect("faulted personalize");
        assert!(out.contains("fault plan"), "no plan echo: {out}");
        assert!(out.contains("degradation:"), "no report: {out}");
        assert!(out.contains("drop"), "fault class missing: {out}");
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.contains("\"stops_dropped\""), "bad report: {json}");
        std::fs::remove_file(&report).ok();
    }

    #[test]
    fn faults_wraps_personalize_only() {
        let err = run_faults(&fargv("info --table /tmp/x.uniqhrtf")).unwrap_err();
        assert!(err.contains("wraps personalize only"), "{err}");
    }

    #[test]
    fn bad_fault_plan_reported() {
        let err = run_faults(&fargv(
            "personalize --seed 6 --anechoic --grid 15 --fault-plan warp@2",
        ))
        .unwrap_err();
        assert!(err.contains("unknown fault class"), "{err}");
    }

    #[test]
    fn exit_code_propagates_wrapped_failures() {
        // The fix under test: a failing command wrapped by `faults` (also
        // when recorded) must map to a nonzero exit status, never 0.
        assert_eq!(exit_code(&Ok::<_, String>("fine".to_string())), 0);
        let failing = run_faults(&fargv(
            "personalize --seed 6 --anechoic --fault-plan warp@2",
        ));
        assert_eq!(exit_code(&failing), 1);
        let missing_plan = run_faults(&fargv("personalize --seed 6 --anechoic"));
        assert_eq!(exit_code(&missing_plan), 1);
        let dir = temp_path("rec_faults_fail");
        let recorded = run_faults(&fargv(&format!(
            "personalize --seed 6 --anechoic --fault-plan warp@2 --record {}",
            dir.display()
        )));
        assert_eq!(exit_code(&recorded), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_report_usage_errors_exit_2() {
        // Usage errors are distinguishable from findings.
        assert_eq!(trace_cmd(&[]), 2);
        assert_eq!(trace_cmd(&["report".to_string()]), 2);
        assert_eq!(
            trace_cmd(&["report".to_string(), "/nonexistent/t.jsonl".to_string()]),
            2
        );
    }

    fn store_argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn store_usage_errors_exit_2() {
        assert_eq!(store_cmd(&[]), 2);
        assert_eq!(store_cmd(&store_argv("frobnicate")), 2);
        assert_eq!(store_cmd(&store_argv("put")), 2); // --store missing
        assert_eq!(store_cmd(&store_argv("get --store /tmp/x")), 2); // --key missing
        assert_eq!(store_cmd(&store_argv("help")), 0);
    }

    #[test]
    fn store_workflow_end_to_end() {
        let root = temp_path("store_wf");
        let _ = std::fs::remove_dir_all(&root);
        let dir = root.display();

        // put, then an identical put that must deduplicate.
        let put = format!("put --store {dir} --seed 6 --anechoic --grid 15 --snr 45");
        assert_eq!(store_cmd(&store_argv(&put)), 0);
        assert_eq!(store_cmd(&store_argv(&put)), 0);
        let store = uniq_store::Store::open(&root).unwrap();
        assert_eq!(store.len(), 1, "identical puts must share one blob");
        let key = store.scan()[0].key.clone();

        // The stored artifact reproduces the in-memory result bit-exactly.
        let cfg = UniqConfig {
            in_room: false,
            grid_step_deg: 15.0,
            snr_db: 45.0,
            ..UniqConfig::default()
        };
        let result = personalize_with_retry(&Subject::from_seed(6), &cfg, 6, 3).unwrap();
        let artifact = store.get(&key).unwrap();
        assert_eq!(artifact.fingerprint(), single_fingerprint(6, &result));
        drop(store);

        // get / ls / verify all succeed on the clean store.
        assert_eq!(
            store_cmd(&store_argv(&format!("get --store {dir} --key {key}"))),
            0
        );
        assert_eq!(store_cmd(&store_argv(&format!("ls --store {dir}"))), 0);
        assert_eq!(store_cmd(&store_argv(&format!("verify --store {dir}"))), 0);

        // Unknown key is a runtime failure (1), not usage (2).
        assert_eq!(
            store_cmd(&store_argv(&format!(
                "get --store {dir} --key 0123456789abcdef"
            ))),
            1
        );

        // export → text table → import round trip (imported provenance is
        // zeroed, so it lands under a second key).
        let table = temp_path("store_wf_export.uniqhrtf");
        assert_eq!(
            store_cmd(&store_argv(&format!(
                "export --store {dir} --key {key} --out {}",
                table.display()
            ))),
            0
        );
        let exported = uniq_core::io::load(&table).unwrap();
        assert_eq!(exported.near().len(), result.hrtf.near().len());
        assert_eq!(
            store_cmd(&store_argv(&format!(
                "import --store {dir} --table {} --seed 6",
                table.display()
            ))),
            0
        );
        let store = uniq_store::Store::open(&root).unwrap();
        assert_eq!(store.len(), 2);
        drop(store);
        assert_eq!(store_cmd(&store_argv(&format!("verify --store {dir}"))), 0);

        // Flip one payload byte in a blob: verify must find it (exit 1).
        let blob = root.join("blobs").join(format!("{key}.uhrtf"));
        let mut bytes = std::fs::read(&blob).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&blob, bytes).unwrap();
        assert_eq!(store_cmd(&store_argv(&format!("verify --store {dir}"))), 1);

        std::fs::remove_file(&table).ok();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn store_put_appends_ledger_record() {
        let root = temp_path("store_ledger");
        let history = temp_path("store_ledger.jsonl");
        let _ = std::fs::remove_dir_all(&root);
        std::fs::remove_file(&history).ok();
        assert_eq!(
            store_cmd(&store_argv(&format!(
                "put --store {} --seed 6 --anechoic --grid 15 --snr 45 --history {}",
                root.display(),
                history.display()
            ))),
            0
        );
        let text = std::fs::read_to_string(&history).unwrap();
        let records = uniq_telemetry::ledger::read_history(&text).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].label, "store-put");
        let store_section = records[0].store.as_deref().unwrap();
        assert!(store_section.contains("key "), "{store_section}");
        assert!(store_section.contains("new"), "{store_section}");
        std::fs::remove_file(&history).ok();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn history_ledger_round_trip_and_gates() {
        let table = temp_path("hist.uniqhrtf");
        let history = temp_path("hist.jsonl");
        std::fs::remove_file(&history).ok();
        for _ in 0..2 {
            let out = run(&argv(&format!(
                "personalize --seed 6 --out {} --anechoic --grid 15 --history {}",
                table.display(),
                history.display()
            )))
            .expect("personalize with history");
            assert!(out.contains("ledger record appended"), "{out}");
        }

        // Two identical runs: compare and trend both pass.
        let f = history.display().to_string();
        assert_eq!(history_cmd(&["compare".to_string(), f.clone()]), 0);
        assert_eq!(history_cmd(&["trend".to_string(), f.clone()]), 0);

        // Inject a >2% quality drift into a third record: trend flags it.
        let text = std::fs::read_to_string(&history).unwrap();
        let last = uniq_obs::json::Json::parse(text.lines().last().unwrap()).unwrap();
        let mut rec = uniq_telemetry::ledger::LedgerRecord::from_json(&last).unwrap();
        if let Some(v) = rec.quality.get_mut("localization_median_deg") {
            *v *= 1.10;
        }
        uniq_telemetry::ledger::append(&history, &rec).unwrap();
        assert_eq!(history_cmd(&["trend".to_string(), f.clone()]), 2);

        // Usage errors exit 2.
        assert_eq!(history_cmd(&[]), 2);
        assert_eq!(history_cmd(&["trend".to_string()]), 2);
        assert_eq!(
            history_cmd(&["compare".to_string(), "/nonexistent/h.jsonl".to_string()]),
            2
        );

        std::fs::remove_file(&table).ok();
        std::fs::remove_file(&history).ok();
    }
}
