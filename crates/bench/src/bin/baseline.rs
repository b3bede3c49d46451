//! The benchmark-baseline CLI: runs the pinned workload matrix, blesses
//! `BENCH_BASELINE.json`, and compares fresh runs against it (the CI
//! regression gate — see `uniq_bench::baseline` for the contract).
//!
//! ```sh
//! baseline run --out fresh.json        # run the matrix, write the doc
//! baseline bless                       # refresh BENCH_BASELINE.json
//! baseline compare --baseline BENCH_BASELINE.json [--fresh F]
//!          [--quality-tol X] [--perf-tol X] [--strict]
//! baseline verify-profile PROFILE.json # stage coverage of a recorded profile.json
//! baseline quality-identical A B       # bit-identical quality sections?
//! ```
//!
//! Exit codes: 0 clean (perf warnings allowed unless `--strict`),
//! 1 regression, 2 usage error.

use uniq_bench::baseline::{
    compare, persist_to_store, quality_identical, run_baseline, verify_profile, BaselineSpec,
    BASELINE_FILE, DEFAULT_PERF_TOL, DEFAULT_QUALITY_TOL,
};
use uniq_obs::json::Json;
use uniq_telemetry::ledger::{self, LedgerRecord};

/// The counting allocator: always installed in this binary (recording is
/// off until a measurement starts, so non-alloc commands pay only a
/// relaxed atomic load per allocation), which is what lets `run`/`bless`
/// emit the baseline document's `alloc` section.
#[global_allocator]
static ALLOC: uniq_memprof::CountingAllocator = uniq_memprof::CountingAllocator::new();

fn usage() -> String {
    "baseline — pinned-workload benchmark baselines and the CI regression gate\n\
     \n\
     commands:\n\
     \x20 run --out FILE                 run the workload matrix, write the document\n\
     \x20 bless                          run the matrix and refresh BENCH_BASELINE.json\n\
     \x20 compare --baseline FILE [--fresh FILE] [--quality-tol X] [--perf-tol X] [--strict]\n\
     \x20                                diff a fresh run (or --fresh file) against the\n\
     \x20                                baseline; quality drift fails, perf drift warns\n\
     \x20 verify-profile FILE            check a recorded profile.json parses and covers\n\
     \x20                                every pipeline stage\n\
     \x20 quality-identical A B          exit 0 iff both documents carry bit-identical\n\
     \x20                                quality sections\n\
     \n\
     ledger (run / bless / compare-with-fresh-run):\n\
     \x20 --history PATH                 append a run record to PATH instead of the\n\
     \x20                                default bench_results/history.jsonl\n\
     \x20 --no-history                   skip the ledger append\n\
     \n\
     persistence (run / bless):\n\
     \x20 --store DIR                    also personalize the pinned seed single-threaded\n\
     \x20                                and persist the HRTF artifact into the\n\
     \x20                                content-addressed store at DIR\n"
        .to_string()
}

/// Handles `--store DIR` on `run` / `bless`: personalizes the pinned
/// subject and puts the artifact into the store, printing the content
/// key. Re-running unchanged code is a dedup hit, not a new blob.
fn persist_if_requested(opts: &Opts) {
    let Some(dir) = opts.get("store") else {
        return;
    };
    match persist_to_store(&BaselineSpec::pinned(), std::path::Path::new(dir)) {
        Ok((outcome, fingerprint)) => println!(
            "stored baseline HRTF: key {} ({} bytes, {}), fingerprint {:#018x}",
            outcome.key,
            outcome.bytes,
            if outcome.deduped { "deduped" } else { "new" },
            fingerprint,
        ),
        Err(e) => {
            eprintln!("error: cannot persist baseline HRTF to {dir}: {e}");
            std::process::exit(1);
        }
    }
}

/// Appends the run's ledger record to the cross-run history file
/// (`uniq history trend` consumes it), unless `--no-history` was given.
fn append_ledger(doc: &Json, opts: &Opts) {
    if opts.switch("no-history") {
        return;
    }
    let path = opts.get("history").unwrap_or(ledger::DEFAULT_HISTORY_FILE);
    let record = match LedgerRecord::from_baseline_doc(doc, "baseline") {
        Ok(r) => r,
        Err(e) => {
            eprintln!("warning: ledger record not appended: {e}");
            return;
        }
    };
    match ledger::append(std::path::Path::new(path), &record) {
        Ok(()) => println!("ledger record appended to {path}"),
        Err(e) => eprintln!("warning: cannot append to {path}: {e}"),
    }
}

fn fail_usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{}", usage());
    std::process::exit(2);
}

fn read_json(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("error: {path} is not valid JSON: {e}");
        std::process::exit(1);
    })
}

/// `--key value` / `--switch` parser over the tail of the argv.
struct Opts {
    pairs: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Opts {
    fn parse(args: &[String], switches: &[&str]) -> Opts {
        let mut pairs = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if switches.contains(&key) {
                    pairs.push((key.to_string(), None));
                } else {
                    let value = it
                        .next()
                        .unwrap_or_else(|| fail_usage(&format!("--{key} needs a value")));
                    pairs.push((key.to_string(), Some(value.clone())));
                }
            } else {
                positional.push(arg.clone());
            }
        }
        Opts { pairs, positional }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.get(key).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| fail_usage(&format!("--{key} {v:?} is not a number")))
        })
    }

    fn switch(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, v)| k == key && v.is_none())
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        fail_usage("no command");
    };
    match command.as_str() {
        "run" => {
            let opts = Opts::parse(&args[1..], &["no-history"]);
            let out = opts
                .get("out")
                .unwrap_or_else(|| fail_usage("run needs --out FILE"));
            let doc = run_baseline(&BaselineSpec::pinned());
            std::fs::write(out, &doc).unwrap_or_else(|e| {
                eprintln!("error: cannot write {out}: {e}");
                std::process::exit(1);
            });
            println!("baseline written to {out}");
            append_ledger(
                // uniq-analyzer: allow(panic-safety) — run_baseline emits its own JSON; a parse failure is a bug worth a crash
                &Json::parse(&doc).expect("self-emitted baseline JSON"),
                &opts,
            );
            persist_if_requested(&opts);
        }
        "bless" => {
            let opts = Opts::parse(&args[1..], &["no-history"]);
            let doc = run_baseline(&BaselineSpec::pinned());
            std::fs::write(BASELINE_FILE, &doc).unwrap_or_else(|e| {
                eprintln!("error: cannot write {BASELINE_FILE}: {e}");
                std::process::exit(1);
            });
            println!("blessed {BASELINE_FILE} — review the diff before committing");
            append_ledger(
                // uniq-analyzer: allow(panic-safety) — run_baseline emits its own JSON; a parse failure is a bug worth a crash
                &Json::parse(&doc).expect("self-emitted baseline JSON"),
                &opts,
            );
            persist_if_requested(&opts);
        }
        "compare" => {
            let opts = Opts::parse(&args[1..], &["strict", "no-history"]);
            let baseline_path = opts
                .get("baseline")
                .unwrap_or_else(|| fail_usage("compare needs --baseline FILE"));
            let baseline = read_json(baseline_path);
            let fresh = match opts.get("fresh") {
                Some(path) => read_json(path),
                None => {
                    println!("running the pinned workload matrix…");
                    let doc = run_baseline(&BaselineSpec::pinned());
                    // uniq-analyzer: allow(panic-safety) — run_baseline emits its own JSON; a parse failure is a bug worth a crash
                    let parsed = Json::parse(&doc).expect("self-emitted baseline JSON");
                    append_ledger(&parsed, &opts);
                    parsed
                }
            };
            let strict = opts.switch("strict");
            let report = compare(
                &baseline,
                &fresh,
                opts.get_f64("quality-tol", DEFAULT_QUALITY_TOL),
                opts.get_f64("perf-tol", DEFAULT_PERF_TOL),
            )
            .unwrap_or_else(|e| {
                eprintln!("baseline compare failed: {e}");
                std::process::exit(1);
            });
            for warning in &report.perf_warnings {
                println!("perf warning: {warning}");
            }
            for failure in &report.quality_failures {
                println!("QUALITY REGRESSION: {failure}");
            }
            if report.passes(strict) {
                println!(
                    "baseline ok ({} perf warning(s), 0 quality regressions)",
                    report.perf_warnings.len()
                );
            } else {
                println!("baseline comparison FAILED against {baseline_path}");
                std::process::exit(1);
            }
        }
        "verify-profile" => {
            let opts = Opts::parse(&args[1..], &[]);
            let Some(path) = opts.positional.first() else {
                fail_usage("verify-profile needs a profile JSON file");
            };
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(2);
            });
            match verify_profile(&text) {
                Ok(stages) => println!("profile ok: {} stage(s) covered", stages.len()),
                Err(e) => {
                    eprintln!("profile verification failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        "quality-identical" => {
            let opts = Opts::parse(&args[1..], &[]);
            let [a, b] = opts.positional.as_slice() else {
                fail_usage("quality-identical needs two document paths");
            };
            if quality_identical(&read_json(a), &read_json(b)) {
                println!("quality sections are bit-identical");
            } else {
                eprintln!("quality sections DIFFER between {a} and {b}");
                std::process::exit(1);
            }
        }
        "help" | "--help" => println!("{}", usage()),
        other => fail_usage(&format!("unknown command {other:?}")),
    }
}
