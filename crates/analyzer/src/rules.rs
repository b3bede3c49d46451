//! The line-local rules: observability hygiene that no compiler lint
//! can express, because each one is about what the `uniq-obs` API
//! means rather than how Rust code is shaped.
//!
//! Every rule can be silenced at one site with
//! `// uniq-analyzer: allow(<rule>) — <one-line justification>`; the
//! justification is mandatory, and a suppression that names an unknown
//! rule or silences nothing is itself a finding.
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | `obs-span-guard` | everywhere | `let _ = span(…)` would drop the guard at once |
//! | `obs-metric-name` | everywhere but `obs` | metric/counter names are shared constants |
//! | `obs-context` | everywhere | emission in pool closures runs under a captured `ObsContext` |
//! | `lock-order` | `store`/`obs`/`serve` | see [`crate::lock_order`] |
//! | `bad-suppression` | everywhere | suppressions carry a justification and name a rule above |
//! | `stale-suppression` | everywhere | every `allow(...)` still matches a finding |
//!
//! The determinism, panic, unsafe and suppression-reason rules are
//! compiler lints (`crates/clippy.toml` and the `[workspace.lints]`
//! table; DESIGN.md §9).

use crate::diagnostics::Diagnostic;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// The rule names a suppression may name.
pub const RULE_NAMES: &[&str] = &[
    "obs-span-guard",
    "obs-metric-name",
    "obs-context",
    "lock-order",
];

/// Runs every line-local rule over `file` without applying suppressions,
/// so the workspace pass can record which suppressions silence something.
pub fn raw_findings(file: &SourceFile) -> Vec<Diagnostic> {
    let mut raw = Vec::new();
    obs_span_guard(file, &mut raw);
    obs_metric_name(file, &mut raw);
    obs_context(file, &mut raw);
    raw
}

fn diag(file: &SourceFile, line: u32, rule: &'static str, message: String) -> Diagnostic {
    Diagnostic::new(file.path.clone(), line, rule, message)
}

/// `obs-span-guard`: a span is a RAII guard; `let _ = span(...)` drops
/// it immediately, recording a zero-length span and unbalancing the
/// enter/exit tree the sinks and the recorder rely on. (The bare
/// statement `span(...);` is rustc's `unused_must_use`: `span` is
/// `#[must_use]`.)
fn obs_span_guard(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for i in 0..file.sig.len() {
        let Some(t) = file.sig_token(i) else { continue };
        if t.kind != TokenKind::Ident
            || t.text != "span"
            || !file.is_punct(i + 1, "(")
            || file.in_test_code(t.line)
        {
            continue;
        }
        // Walk back over a `uniq_obs ::` / `obs ::` qualifier.
        let mut head = i;
        if head >= 3
            && file.is_punct(head - 1, ":")
            && file.is_punct(head - 2, ":")
            && file
                .sig_token(head - 3)
                .is_some_and(|q| q.kind == TokenKind::Ident)
        {
            head -= 3;
        }
        let underscore_bind = head >= 3
            && file.sig_matches(
                head - 3,
                &[
                    (TokenKind::Ident, Some("let")),
                    (TokenKind::Ident, Some("_")),
                    (TokenKind::Punct, Some("=")),
                ],
            );
        if underscore_bind {
            out.push(diag(
                file,
                t.line,
                "obs-span-guard",
                "span guard dropped immediately by `let _ = …`: bind it — \
                 `let _span = span(…);` — so the span covers the scope it names"
                    .to_string(),
            ));
        }
    }
}

/// `obs-metric-name`: `metric(…)`/`counter(…)` called with an inline
/// string literal outside `uniq-obs`. Names must come from
/// `uniq_obs::names` so producers and the consumers that aggregate or
/// assert on them (reports, experiments, CI checks) cannot drift apart.
fn obs_metric_name(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.crate_name == "obs" {
        return;
    }
    for i in 0..file.sig.len() {
        let Some(t) = file.sig_token(i) else { continue };
        if t.kind != TokenKind::Ident
            || (t.text != "metric" && t.text != "counter")
            || file.in_test_code(t.line)
        {
            continue;
        }
        let literal_first_arg = file.is_punct(i + 1, "(")
            && file
                .sig_token(i + 2)
                .is_some_and(|a| a.kind == TokenKind::Str);
        if literal_first_arg {
            out.push(diag(
                file,
                t.line,
                "obs-metric-name",
                format!(
                    "inline string name in `{}(…)`: use a constant from \
                     `uniq_obs::names` so metric names cannot drift between \
                     the crate that emits and the code that aggregates",
                    t.text
                ),
            ));
        }
    }
}

/// `obs-context`: span/metric/counter emission inside a pool closure
/// (`par_map`, `par_map_chunked`, `try_par_map`) must run under a
/// captured `ObsContext` (`uniq_obs::capture()`) — `ctx.run(…)` or
/// `ctx.run_indexed(…)`. Workers carry no ambient span stack: an
/// uncontexted emission still reaches the sink, but with no trace/span
/// ids linking it to the submitting span, so the causal tree that
/// `uniq trace report` rebuilds grows orphans and the per-worker
/// telemetry shards cannot attribute the event to a lane.
fn obs_context(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    const ENTRY_POINTS: &[&str] = &["par_map", "par_map_chunked", "try_par_map"];
    const EMITTERS: &[&str] = &["span", "metric", "counter"];
    for i in 0..file.sig.len() {
        let Some(t) = file.sig_token(i) else { continue };
        // Only the call form `par_map…(`, not definitions or doc paths.
        if t.kind != TokenKind::Ident
            || !ENTRY_POINTS.contains(&t.text.as_str())
            || !file.is_punct(i + 1, "(")
            || file.in_test_code(t.line)
        {
            continue;
        }
        // Walk the call's argument region (paren depth), flagging any
        // emission ident that appears before a `run`/`run_indexed`.
        let mut depth = 1usize;
        let mut j = i + 2;
        let mut has_context = false;
        while depth > 0 {
            let Some(tok) = file.sig_token(j) else { break };
            if tok.kind == TokenKind::Punct {
                match tok.text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    _ => {}
                }
            } else if tok.kind == TokenKind::Ident {
                if tok.text == "run" || tok.text == "run_indexed" {
                    has_context = true;
                } else if !has_context && EMITTERS.contains(&tok.text.as_str()) {
                    out.push(diag(
                        file,
                        tok.line,
                        "obs-context",
                        format!(
                            "`{}` emitted inside a `{}` closure without a \
                             captured context: wrap the closure body in \
                             `ctx.run(…)`/`ctx.run_indexed(…)` (from \
                             `uniq_obs::capture()`) so the event keeps its \
                             causal trace ids",
                            tok.text, t.text
                        ),
                    ));
                }
            }
            j += 1;
        }
    }
}

/// `bad-suppression`: validates the suppressions themselves — a
/// suppression must name known rules and carry a non-empty one-line
/// justification, otherwise the audit trail the suppressions exist to
/// provide is worthless.
pub fn check_suppressions(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for s in &file.suppressions {
        if s.justification.trim().is_empty() {
            out.push(diag(
                file,
                s.line,
                "bad-suppression",
                "suppression without a justification: append `— <why this \
                 site is sound>` after `allow(…)`"
                    .to_string(),
            ));
        }
        for rule in &s.rules {
            if !RULE_NAMES.contains(&rule.as_str()) {
                out.push(diag(
                    file,
                    s.line,
                    "bad-suppression",
                    format!("suppression names unknown rule `{rule}`"),
                ));
            }
        }
    }
}
