//! The `lock-order` rule: builds the Mutex acquisition graph of the
//! lock-scope crates ([`crate::facts::LOCK_SCOPE_CRATES`]) over the
//! workspace call graph and fails on cycles (including re-entry of the
//! same lock) and on guards held across a pool boundary.
//!
//! A function's acquisitions include its callees': the set of locks it
//! may take is the fixed point of the union over its call edges. Inputs
//! are iterated in sorted order, so the findings are deterministic.

use crate::callgraph::CallGraph;
use crate::diagnostics::{Diagnostic, TraceStep};
use crate::facts::FnFacts;
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// A suppression consumed by a rule: (file index, line, rule name).
pub type UsedSuppression = (usize, u32, &'static str);

/// The rule's findings plus the suppressions that silenced would-be
/// findings (so the workspace pass can audit for stale ones).
#[derive(Debug, Default)]
pub struct LockOrderOutput {
    /// Findings (unsorted; the workspace pass sorts them globally).
    pub diags: Vec<Diagnostic>,
    /// Suppressions that matched and silenced a would-be finding.
    pub used: Vec<UsedSuppression>,
}

/// Marker id injected into the lock closure for "this function may hand
/// work to the pool" (never a real lock identity: lock ids are
/// `crate.receiver` and receivers cannot contain `§`).
const POOL_MARKER: &str = "\u{a7}pool";

/// Transitive closure of a per-function set-valued fact ("locks this
/// function may acquire, directly or via callees"): a worklist fixpoint
/// on the powerset lattice, iterated until no function's set grows.
pub fn closure_over_callees(
    graph: &CallGraph,
    local: &BTreeMap<usize, BTreeSet<String>>,
) -> BTreeMap<usize, BTreeSet<String>> {
    let mut sets: BTreeMap<usize, BTreeSet<String>> = local.clone();
    let mut work: BTreeSet<usize> = (0..graph.fns.len()).collect();
    while let Some(f) = work.pop_first() {
        let mut merged: BTreeSet<String> = sets.get(&f).cloned().unwrap_or_default();
        let before = merged.len();
        for &e in &graph.out_edges[f] {
            if let Some(callee_set) = sets.get(&graph.edges[e].callee) {
                merged.extend(callee_set.iter().cloned());
            }
        }
        if merged.len() > before || (!merged.is_empty() && !sets.contains_key(&f)) {
            sets.insert(f, merged);
            for &e in &graph.in_edges[f] {
                work.insert(graph.edges[e].caller);
            }
        }
    }
    sets
}

/// One directed lock-order edge with its best (smallest) witness: the
/// first lock is taken at `first_line` and, while it is held, the
/// second at `second_line`, both in file `file`.
#[derive(Debug, Clone, Copy)]
struct LockEdge {
    file: usize,
    first_line: u32,
    second_line: u32,
}

/// Runs the rule: cycles in the acquired-before graph (including
/// re-entry of the same lock) and locks held across pool boundaries.
pub fn lock_order(
    files: &[SourceFile],
    graph: &CallGraph,
    facts: &BTreeMap<usize, FnFacts>,
) -> LockOrderOutput {
    let mut out = LockOrderOutput::default();
    // Local set: lock ids a function acquires directly, plus the pool
    // marker if it hands work to the pool.
    let mut local: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for (&f, ff) in facts {
        let mut set: BTreeSet<String> = ff.locks.iter().map(|l| l.id.clone()).collect();
        if !ff.pool_calls.is_empty() {
            set.insert(POOL_MARKER.to_string());
        }
        if !set.is_empty() {
            local.insert(f, set);
        }
    }
    let may_acquire = closure_over_callees(graph, &local);

    // acquired-before edges: id → id with the smallest witness site.
    let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
    let mut pool_findings: Vec<(usize, u32, String, u32)> = Vec::new(); // (file, line, lock id, acquired line)
    for (&f, ff) in facts {
        let def = &graph.fns[f];
        let file = &files[def.file];
        for l in &ff.locks {
            let end = l.held_until.unwrap_or(l.stmt_end);
            let end_line = file
                .sig_token(end.min(file.sig.len().saturating_sub(1)))
                .map_or(u32::MAX, |t| t.line);
            let mut edge = |second: &str, second_line: u32| {
                let e = LockEdge {
                    file: def.file,
                    first_line: l.line,
                    second_line,
                };
                let slot = edges.entry((l.id.clone(), second.to_string())).or_insert(e);
                if (e.file, e.second_line) < (slot.file, slot.second_line) {
                    *slot = e;
                }
            };
            // Later direct acquisitions while this guard is live.
            for l2 in &ff.locks {
                if l2.sig_idx > l.sig_idx && l2.sig_idx < end {
                    edge(&l2.id, l2.line);
                }
            }
            // Direct pool boundary while held.
            for &(pl, pi) in &ff.pool_calls {
                if pi > l.sig_idx && pi < end {
                    pool_findings.push((def.file, pl, l.id.clone(), l.line));
                }
            }
            // Via calls in the live region: the callee's transitive set.
            // A callee that takes the held lock again is a self-edge:
            // an immediate self-deadlock with std Mutex.
            for &ei in &graph.out_edges[f] {
                let call = &graph.edges[ei];
                if call.line < l.line || call.line > end_line {
                    continue;
                }
                for id in may_acquire.get(&call.callee).into_iter().flatten() {
                    if id == POOL_MARKER {
                        pool_findings.push((def.file, call.line, l.id.clone(), l.line));
                    } else {
                        edge(id, call.line);
                    }
                }
            }
        }
    }

    // Cycle detection: an edge (a, b) participates in a cycle iff b
    // transitively reaches a (self-loops included).
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().insert(b.as_str());
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if seen.insert(n) {
                if let Some(next) = adj.get(n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    };
    for ((a, b), e) in &edges {
        let cyclic = if a == b { true } else { reaches(b, a) };
        if !cyclic {
            continue;
        }
        let file = &files[e.file];
        if file.is_suppressed("lock-order", e.second_line) {
            out.used.push((e.file, e.second_line, "lock-order"));
            continue;
        }
        let message = if a == b {
            format!("lock `{a}` may be re-acquired while already held (self-deadlock)")
        } else {
            format!(
                "lock-order cycle: `{a}` is held when `{b}` is acquired here, but elsewhere `{b}` is held when `{a}` is acquired"
            )
        };
        out.diags.push(Diagnostic {
            file: file.path.clone(),
            line: e.second_line,
            rule: "lock-order",
            message,
            trace: vec![
                TraceStep {
                    file: file.path.clone(),
                    line: e.first_line,
                    symbol: format!("acquires `{a}`"),
                },
                TraceStep {
                    file: file.path.clone(),
                    line: e.second_line,
                    symbol: format!("acquires `{b}` while `{a}` is held"),
                },
            ],
        });
    }
    pool_findings.sort();
    pool_findings.dedup();
    for (fi, line, id, acq_line) in pool_findings {
        let file = &files[fi];
        if file.is_suppressed("lock-order", line) {
            out.used.push((fi, line, "lock-order"));
            continue;
        }
        out.diags.push(Diagnostic {
            file: file.path.clone(),
            line,
            rule: "lock-order",
            message: format!(
                "lock `{id}` (acquired at line {acq_line}) is held across a pool boundary; \
                 worker panics would poison it and stall the pool"
            ),
            trace: vec![
                TraceStep {
                    file: file.path.clone(),
                    line: acq_line,
                    symbol: format!("acquires `{id}`"),
                },
                TraceStep {
                    file: file.path.clone(),
                    line,
                    symbol: "hands work to the pool while the guard is live".into(),
                },
            ],
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::facts;
    use crate::symbols::extract_fns;

    fn setup(
        srcs: &[(&str, &str, &str)],
    ) -> (Vec<SourceFile>, CallGraph, BTreeMap<usize, FnFacts>) {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(p, c, s)| SourceFile::parse(p, c, s))
            .collect();
        let mut fns = Vec::new();
        for (i, f) in files.iter().enumerate() {
            fns.extend(extract_fns(f, i));
        }
        let graph = callgraph::build(&files, fns, None);
        let f = facts::extract(&files, &graph);
        (files, graph, f)
    }

    #[test]
    fn lock_cycle_detected_across_fns() {
        let (files, graph, f) = setup(
            &[(
                "crates/store/src/a.rs",
                "store",
                "impl S {\n    fn ab(&self) {\n        let g = self.alpha.lock().unwrap();\n        let h = self.beta.lock().unwrap();\n    }\n    fn ba(&self) {\n        let g = self.beta.lock().unwrap();\n        let h = self.alpha.lock().unwrap();\n    }\n}\n",
            )],
        );
        let out = lock_order(&files, &graph, &f);
        assert_eq!(out.diags.len(), 2, "{:#?}", out.diags);
        assert!(out.diags.iter().all(|d| d.rule == "lock-order"));
        assert!(out.diags[0].message.contains("cycle"));
    }

    #[test]
    fn lock_held_across_pool_boundary() {
        let (files, graph, f) = setup(
            &[(
                "crates/obs/src/m.rs",
                "obs",
                "impl M {\n    fn flush(&self, xs: &[u8]) {\n        let g = self.shard.lock().unwrap();\n        let p = pool(0);\n        p.par_map(xs, |x| *x);\n    }\n}\n",
            )],
        );
        let out = lock_order(&files, &graph, &f);
        assert_eq!(out.diags.len(), 1, "{:#?}", out.diags);
        assert!(out.diags[0].message.contains("pool boundary"));
        assert_eq!(out.diags[0].line, 5);
    }

    #[test]
    fn ordered_acquisition_without_cycle_is_clean() {
        let (files, graph, f) = setup(
            &[(
                "crates/store/src/a.rs",
                "store",
                "impl S {\n    fn ab(&self) {\n        let g = self.alpha.lock().unwrap();\n        let h = self.beta.lock().unwrap();\n    }\n    fn also_ab(&self) {\n        let g = self.alpha.lock().unwrap();\n        let h = self.beta.lock().unwrap();\n    }\n}\n",
            )],
        );
        let out = lock_order(&files, &graph, &f);
        assert!(out.diags.is_empty(), "{:#?}", out.diags);
    }

    #[test]
    fn closure_unions_callee_sets_through_cycles() {
        let (_, graph, _) = setup(&[(
            "crates/store/src/a.rs",
            "store",
            "fn a() {\n    b();\n}\nfn b() {\n    a();\n    c();\n}\nfn c() {}\n",
        )]);
        let idx = |name: &str| graph.fns.iter().position(|f| f.name == name).unwrap();
        let local = BTreeMap::from([(idx("c"), BTreeSet::from(["store.inner".to_string()]))]);
        let closed = closure_over_callees(&graph, &local);
        assert!(closed[&idx("a")].contains("store.inner"));
        assert!(closed[&idx("b")].contains("store.inner"));
    }
}
