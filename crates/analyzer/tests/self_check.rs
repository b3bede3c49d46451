//! The analyzer's own acceptance gate, as tests: the workspace it ships
//! in must analyze clean, and every first-party crate must stay under
//! the workspace lint table that carries the rules clippy enforces.

use std::path::PathBuf;

use uniq_analyzer::analyze_workspace;

fn root() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn workspace_has_zero_unsuppressed_findings() {
    let report = analyze_workspace(&root()).expect("analysis runs");
    assert!(
        report.files_analyzed > 50,
        "walk found too few files — did the layout change?"
    );
    assert!(
        report.diagnostics.is_empty(),
        "workspace must analyze clean; found:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_crate_opts_into_the_workspace_lints() {
    // The unsafe, panic, determinism and suppression rules are lints in
    // `[workspace.lints]`; a crate whose manifest does not opt in would
    // escape all of them without a single warning.
    let mut checked = 0;
    for entry in std::fs::read_dir(root().join("crates")).expect("crates/ lists") {
        let manifest = entry.expect("dir entry").path().join("Cargo.toml");
        let Ok(text) = std::fs::read_to_string(&manifest) else {
            continue;
        };
        let opted_in = text
            .split("\n[")
            .any(|section| section.starts_with("lints]\nworkspace = true"));
        assert!(
            opted_in,
            "{} lacks `[lints] workspace = true`",
            manifest.display()
        );
        checked += 1;
    }
    assert!(checked >= 15, "found only {checked} crate manifests");
}
