//! # uniq-analyzer
//!
//! The workspace rules that no compiler lint can express. The generic
//! invariants UNIQ's evaluation depends on — determinism and panic
//! freedom in the result crates, `unsafe` confined and audited, every
//! suppression reasoned — are clippy and rustc lints (`crates/clippy.toml`
//! and `[workspace.lints]`; DESIGN.md §9). What stays here is about the
//! meaning of this workspace's own APIs:
//!
//! - **lock order** ([`lock_order`]): the Mutex acquisition graph of
//!   `store`, `obs` and `serve`, built over a conservative whole-workspace
//!   call graph ([`symbols`], [`callgraph`], [`facts`]), must be acyclic,
//!   and no guard may be held across a `uniq-par` pool boundary;
//! - **observability hygiene** ([`rules`]): span guards are not dropped
//!   by `let _ = span(…)`, metric names come from `uniq_obs::names`, and
//!   emission inside pool closures runs under a captured `ObsContext`.
//!
//! The offline build has no `syn`, so the analyzer works on its own
//! token stream ([`lexer`], [`source`]). Run it over the workspace:
//!
//! ```text
//! cargo run -p uniq-analyzer -- check
//! ```
//!
//! Exit status is nonzero iff any finding remains. A site is silenced
//! with an inline comment naming the rule and the reason:
//!
//! ```text
//! // uniq-analyzer: allow(lock-order) — `out` is the guard itself, not a re-entry
//! ```
//!
//! A suppression without a justification, naming an unknown rule, or
//! silencing nothing is itself a finding.

#![warn(missing_docs)]

pub mod callgraph;
pub mod diagnostics;
pub mod facts;
pub mod lexer;
pub mod lock_order;
pub mod rules;
pub mod source;
pub mod symbols;
pub mod workspace;

pub use diagnostics::{Diagnostic, TraceStep};
pub use source::SourceFile;
pub use workspace::{analyze_sources, analyze_workspace, find_root, SourceSpec, WorkspaceReport};

/// Runs the line-local rules over a single source text as if it were at
/// `path` in crate `crate_name`, with its suppressions applied and
/// validated. The entry point the golden-fixture tests use.
pub fn analyze_str(path: &str, crate_name: &str, text: &str) -> Vec<Diagnostic> {
    let file = SourceFile::parse(path, crate_name, text);
    let mut out: Vec<Diagnostic> = rules::raw_findings(&file)
        .into_iter()
        .filter(|d| !file.is_suppressed(d.rule, d.line))
        .collect();
    rules::check_suppressions(&file, &mut out);
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}
