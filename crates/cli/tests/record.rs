//! End-to-end checks of the `uniq` binary's observability surface: one
//! `--record DIR` writes every view, and retired or misspelled flags are
//! usage errors (exit 2) instead of being silently ignored.

use std::path::Path;
use std::process::{Command, Output};

fn uniq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_uniq"))
        .args(args)
        .output()
        .expect("run the uniq binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn record_dir_holds_every_view() {
    let root = std::env::temp_dir().join(format!("uniq_record_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let table = root.join("hrtf.uniqhrtf");
    let dir = root.join("record");
    let path = |p: &Path| p.display().to_string();

    let (table, record) = (path(&table), path(&dir));
    let mut args: Vec<&str> = "personalize --seed 6 --anechoic --grid 15 --snr 45"
        .split(' ')
        .collect();
    args.extend(["--out", &table, "--record", &record]);
    let out = uniq(&args);
    assert!(out.status.success(), "personalize failed: {}", stderr(&out));
    let out = String::from_utf8_lossy(&out.stdout);
    assert!(out.contains("table written"), "command output lost: {out}");
    assert!(out.contains("record written to"), "{out}");
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
    };

    // The stage table, with allocation columns: the binary installs the
    // counting allocator, so --record measures allocations too.
    let text = read("report.txt");
    for needle in [
        "per-stage wall clock:",
        "p50",
        "p90",
        "p99",
        "threads:",
        "metrics:",
        "alloc-b",
        "per-stage allocations:",
        "fusion",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    // The profile document passes the baseline's stage-coverage check and
    // embeds the allocation profile.
    let profile = read("profile.json");
    let stages = uniq_bench::baseline::verify_profile(&profile).expect("profile verifies");
    assert!(stages.iter().any(|s| s == "personalize"));
    let doc = uniq_obs::json::Json::parse(&profile).unwrap();
    let alloc = doc.get("alloc").expect("profile JSON has no alloc section");
    assert!(alloc.get("stages").is_some());
    assert_eq!(
        alloc.get("schema_version").and_then(|v| v.as_u64()),
        Some(uniq_memprof::ALLOC_SCHEMA_VERSION)
    );

    // Collapsed stacks, `path;to;leaf weight`, with positive byte weights.
    let folded = read("flame.folded");
    for line in folded.lines() {
        let (path, value) = line.rsplit_once(' ').expect("line has no value");
        assert!(path.split(';').all(|seg| !seg.is_empty()), "{path:?}");
        value.parse::<u64>().expect("self time not an integer");
    }
    assert!(
        folded.lines().any(|l| l.starts_with("personalize;")),
        "no nested path under personalize:\n{folded}"
    );
    let alloc_folded = read("alloc.folded");
    assert!(!alloc_folded.is_empty());
    for line in alloc_folded.lines() {
        let (_, value) = line.rsplit_once(' ').expect("line has no value");
        assert!(value.parse::<u64>().unwrap() > 0, "zero weight: {line:?}");
    }

    // The metric registry, as Prometheus text and JSON.
    let prom = read("telemetry.prom");
    assert!(prom.contains("uniq_personalize_ns_count"), "{prom}");
    assert!(prom.contains("uniq_obs_telemetry_overhead_ns"), "{prom}");
    let doc = uniq_obs::json::Json::parse(&read("telemetry.json")).unwrap();
    assert!(doc.get("spans").unwrap().get("personalize").is_some());
    assert!(doc.get("overhead_ns").is_some());

    // The event log: one JSON object per line, rebuilding into a complete
    // causal tree.
    let events = read("trace.jsonl");
    for needle in [
        "\"event\":\"span_start\"",
        "\"name\":\"fusion.mean_residual_deg\"",
        "\"name\":\"personalize.radius_m\"",
    ] {
        assert!(events.contains(needle), "missing {needle}");
    }
    assert!(events
        .lines()
        .all(|line| line.starts_with('{') && line.ends_with('}')));
    let report = uniq(&["trace", "report", &path(&dir.join("trace.jsonl"))]);
    assert_eq!(report.status.code(), Some(0), "{}", stderr(&report));
    let text = String::from_utf8_lossy(&report.stdout);
    assert!(text.contains("critical path:"), "{text}");
    assert!(!text.contains("orphaned"), "{text}");

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn retired_and_misspelled_flags_exit_2() {
    let cases: [&[&str]; 7] = [
        &["personalize", "--seed", "6", "--thredas", "4"],
        &["personalize", "--seed", "6", "--profile-out", "x"],
        &["personalize", "--seed", "6", "--metrics-out", "x"],
        &["info", "--table", "t", "--fault-plan", "drop@2"],
        &["personalize", "--seed", "6", "--seed", "7"],
        &["profile", "personalize", "--seed", "6"],
        &["memprof", "personalize", "--seed", "6"],
    ];
    for args in cases {
        let out = uniq(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
    }
}
