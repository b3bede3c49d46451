//! Golden-fixture tests: every rule has a known-bad fixture that must
//! produce exactly the expected findings, and a clean counterpart that
//! must produce none. The fixtures live outside `src/` so the workspace
//! walk (and rustc) never touch them. The lock-order fixtures are
//! assembled into in-memory workspaces (no manifests, so call resolution
//! is unrestricted by dependency closure).

use uniq_analyzer::{analyze_sources, analyze_str, Diagnostic, SourceSpec, WorkspaceReport};

fn rules_and_lines(diags: &[Diagnostic]) -> Vec<(&str, u32)> {
    diags.iter().map(|d| (d.rule, d.line)).collect()
}

fn workspace(path: &str, crate_name: &str, text: &str) -> WorkspaceReport {
    analyze_sources(&[SourceSpec {
        path: path.to_string(),
        crate_name: crate_name.to_string(),
        text: text.to_string(),
    }])
}

#[test]
fn span_guard_bad() {
    let diags = analyze_str(
        "f.rs",
        "core",
        include_str!("../fixtures/bad_span_guard.rs"),
    );
    assert_eq!(rules_and_lines(&diags), vec![("obs-span-guard", 6)]);
}

#[test]
fn span_guard_clean() {
    let diags = analyze_str(
        "f.rs",
        "core",
        include_str!("../fixtures/clean_span_guard.rs"),
    );
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn metric_name_bad() {
    let diags = analyze_str(
        "f.rs",
        "render",
        include_str!("../fixtures/bad_metric_name.rs"),
    );
    assert_eq!(
        rules_and_lines(&diags),
        vec![("obs-metric-name", 5), ("obs-metric-name", 6)]
    );
}

#[test]
fn metric_name_clean() {
    let diags = analyze_str(
        "f.rs",
        "render",
        include_str!("../fixtures/clean_metric_name.rs"),
    );
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn metric_name_exempts_obs_itself() {
    let diags = analyze_str(
        "f.rs",
        "obs",
        include_str!("../fixtures/bad_metric_name.rs"),
    );
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn obs_context_bad() {
    let diags = analyze_str(
        "f.rs",
        "cli",
        include_str!("../fixtures/bad_obs_context.rs"),
    );
    // The `#[cfg(test)]` module's uncontexted emission is exempt.
    assert_eq!(
        rules_and_lines(&diags),
        vec![
            ("obs-context", 5),
            ("obs-context", 6),
            ("obs-context", 13),
            ("obs-context", 21)
        ]
    );
}

#[test]
fn obs_context_clean() {
    let diags = analyze_str(
        "f.rs",
        "cli",
        include_str!("../fixtures/clean_obs_context.rs"),
    );
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn bad_suppressions_are_themselves_findings() {
    let diags = analyze_str(
        "f.rs",
        "render",
        include_str!("../fixtures/bad_suppression.rs"),
    );
    // Line 4: no justification. It still suppresses line 5, but is
    // itself flagged. Line 6 names a rule that does not exist, so it
    // covers nothing and line 7 stays a finding.
    assert_eq!(
        rules_and_lines(&diags),
        vec![
            ("bad-suppression", 4),
            ("bad-suppression", 6),
            ("obs-metric-name", 7)
        ]
    );
}

#[test]
fn lock_cycle_and_pool_boundary_are_flagged() {
    let report = workspace(
        "crates/obs/src/locks.rs",
        "obs",
        include_str!("../fixtures/bad_lock_order.rs"),
    );
    let diags = &report.diagnostics;
    assert!(diags.iter().all(|d| d.rule == "lock-order"), "{diags:#?}");
    let cycle_lines: Vec<u32> = diags
        .iter()
        .filter(|d| d.message.contains("cycle"))
        .map(|d| d.line)
        .collect();
    assert_eq!(cycle_lines, vec![15, 23], "one witness per direction");
    let pool: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.message.contains("pool boundary"))
        .collect();
    assert_eq!(pool.len(), 1, "{diags:#?}");
    assert_eq!(pool[0].line, 31);
    assert!(pool[0].message.contains("obs.alpha"), "{}", pool[0].message);
    assert_eq!(pool[0].trace.len(), 2);
}

#[test]
fn consistent_lock_order_with_early_release_is_quiet() {
    let report = workspace(
        "crates/obs/src/locks.rs",
        "obs",
        include_str!("../fixtures/clean_lock_order.rs"),
    );
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
}

#[test]
fn unmatched_suppression_is_stale() {
    let src = "\
/// Adds one.
pub fn add_one(x: u32) -> u32 {
    // uniq-analyzer: allow(lock-order) — left over from a removed cache lock
    x + 1
}
";
    let report = workspace("crates/store/src/tidy.rs", "store", src);
    assert_eq!((report.suppressions, report.stale_suppressions), (1, 1));
    assert_eq!(
        rules_and_lines(&report.diagnostics),
        vec![("stale-suppression", 3)]
    );
}

#[test]
fn suppression_on_the_witness_line_is_consumed() {
    let src = include_str!("../fixtures/bad_lock_order.rs")
        .replace(
            "    let a = p.alpha.lock().expect(\"alpha poisoned\");\n    drop(a);\n    drop(b);",
            "    // uniq-analyzer: allow(lock-order) — fixture: the reverse order is intended\n    let a = p.alpha.lock().expect(\"alpha poisoned\");\n    drop(a);\n    drop(b);",
        );
    let report = workspace("crates/obs/src/locks.rs", "obs", &src);
    assert_eq!(report.stale_suppressions, 0, "the allow is consumed");
    assert!(
        report.diagnostics.iter().all(|d| d.line != 24),
        "{:#?}",
        report.diagnostics
    );
}
