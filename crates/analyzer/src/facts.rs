//! Per-function lock facts: the `.lock()` acquisitions and pool-boundary
//! calls the lock-order rule propagates through the call graph.
//!
//! Facts are extracted once per file from the significant-token stream
//! and attributed to the innermost enclosing function. Test regions
//! contribute nothing.

use crate::callgraph::{CallGraph, POOL_ENTRY_POINTS};
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// Crates whose mutexes participate in the lock-order analysis. The
/// pool's own synchronization (`par`) is excluded: its mutexes are the
/// scheduler's internals, exercised by the pool's concurrency tests.
pub const LOCK_SCOPE_CRATES: &[&str] = &["store", "obs", "serve"];

/// One `.lock()` acquisition site.
#[derive(Debug, Clone)]
pub struct LockFact {
    /// 1-based line of the acquisition.
    pub line: u32,
    /// Lock identity: `crate.receiver` (e.g. `store.inner`).
    pub id: String,
    /// Significant-token index of the `lock` identifier.
    pub sig_idx: usize,
    /// `Some(end)` when the guard is bound with `let` and plausibly held
    /// to that significant-token index (end of the enclosing body or an
    /// explicit `drop(guard)`); `None` for a statement-scoped temporary.
    pub held_until: Option<usize>,
    /// End of the statement the acquisition sits in (for temporaries).
    pub stmt_end: usize,
}

/// All facts for one function.
#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    /// Mutex acquisitions (lock-order scope crates only).
    pub locks: Vec<LockFact>,
    /// Pool-boundary call sites (`par_map`/`scope`…): (line, sig index).
    pub pool_calls: Vec<(u32, usize)>,
}

/// Extracts facts for every function in the graph. Returned map is
/// keyed by function index; functions without facts are absent.
pub fn extract(files: &[SourceFile], graph: &CallGraph) -> BTreeMap<usize, FnFacts> {
    let mut out: BTreeMap<usize, FnFacts> = BTreeMap::new();
    for (file_idx, file) in files.iter().enumerate() {
        scan_file(file, file_idx, graph, &mut out);
    }
    out
}

fn scan_file(
    file: &SourceFile,
    file_idx: usize,
    graph: &CallGraph,
    out: &mut BTreeMap<usize, FnFacts>,
) {
    let lock_scope = LOCK_SCOPE_CRATES.contains(&file.crate_name.as_str());
    for i in 0..file.sig.len() {
        let Some(t) = file.sig_token(i) else { continue };
        if t.kind != TokenKind::Ident || file.in_test_code(t.line) {
            continue;
        }
        let Some(fn_idx) = graph.enclosing_fn(file_idx, i) else {
            continue;
        };
        let receiver = if lock_scope && t.text == "lock" {
            lock_receiver(file, i)
        } else {
            None
        };
        if let Some(receiver) = receiver {
            out.entry(fn_idx).or_default().locks.push(LockFact {
                line: t.line,
                id: format!("{}.{receiver}", file.crate_name),
                sig_idx: i,
                held_until: bound_guard_extent(file, i, graph, file_idx),
                stmt_end: statement_end(file, i),
            });
        } else if POOL_ENTRY_POINTS.contains(&t.text.as_str()) && file.is_punct(i + 1, "(") {
            out.entry(fn_idx).or_default().pool_calls.push((t.line, i));
        }
    }
}

/// The receiver identity of an acquisition at significant index
/// `lock_idx`, or `None` if the `lock` there is not one. Two forms count:
/// the method call `recv.lock()` — the nearest identifier before the
/// `.`, skipping one matched call group (`self.shard().lock()` →
/// `shard`) — and a crate's poison-propagating helper `lock(&recv)` —
/// the last identifier in the argument outside index brackets
/// (`lock(&self.locals[i])` → `locals`).
fn lock_receiver(file: &SourceFile, lock_idx: usize) -> Option<String> {
    if !file.is_punct(lock_idx + 1, "(") {
        return None;
    }
    let prev = lock_idx.checked_sub(1).and_then(|p| file.sig_token(p))?;
    if prev.kind == TokenKind::Punct && prev.text == "." {
        if !file.is_punct(lock_idx + 2, ")") {
            return None;
        }
        return Some(method_receiver(file, lock_idx).unwrap_or_else(|| "<unknown>".into()));
    }
    if prev.text == "fn" || !file.is_punct(lock_idx + 2, "&") {
        return None;
    }
    let mut depth = 0usize;
    let mut last = None;
    let mut j = lock_idx + 3;
    while let Some(t) = file.sig_token(j) {
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "(" | "[") => depth += 1,
            (TokenKind::Punct, ")" | "]") if depth == 0 => break,
            (TokenKind::Punct, ")" | "]") => depth -= 1,
            (TokenKind::Ident, name) if depth == 0 => last = Some(name.to_string()),
            _ => {}
        }
        j += 1;
    }
    last
}

/// The receiver of the method call `recv.lock()`.
fn method_receiver(file: &SourceFile, lock_idx: usize) -> Option<String> {
    let mut j = lock_idx.checked_sub(2)?; // skip the `.`
    let t = file.sig_token(j)?;
    if t.kind == TokenKind::Punct && t.text == ")" {
        // Walk back over the matched paren group.
        let mut depth = 1usize;
        while depth > 0 {
            j = j.checked_sub(1)?;
            let t = file.sig_token(j)?;
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    ")" => depth += 1,
                    "(" => depth -= 1,
                    _ => {}
                }
            }
        }
        j = j.checked_sub(1)?;
    }
    let t = file.sig_token(j)?;
    (t.kind == TokenKind::Ident).then(|| t.text.clone())
}

/// If the lock chain is bound with `let`, the extent the guard is
/// plausibly held for: up to an explicit `drop(<name>)` or the end of
/// the enclosing function body. `None` for statement-scoped temporaries.
fn bound_guard_extent(
    file: &SourceFile,
    lock_idx: usize,
    graph: &CallGraph,
    file_idx: usize,
) -> Option<usize> {
    // Walk back to the statement head looking for `let [mut] name =`.
    let mut j = lock_idx;
    let mut name: Option<String> = None;
    let mut hops = 0;
    while j > 0 && hops < 16 {
        j -= 1;
        hops += 1;
        let t = file.sig_token(j)?;
        if t.kind == TokenKind::Punct && (t.text == ";" || t.text == "{" || t.text == "}") {
            break;
        }
        if t.kind == TokenKind::Ident && t.text == "let" {
            let mut k = j + 1;
            if file
                .sig_token(k)
                .is_some_and(|m| m.kind == TokenKind::Ident && m.text == "mut")
            {
                k += 1;
            }
            let n = file.sig_token(k)?;
            let eq = file
                .sig_token(k + 1)
                .is_some_and(|e| e.kind == TokenKind::Punct && e.text == "=");
            if n.kind == TokenKind::Ident && eq {
                name = Some(n.text.clone());
            }
            break;
        }
    }
    let name = name?;
    let body_end = graph
        .enclosing_fn(file_idx, lock_idx)
        .map(|f| graph.fns[f].body.end)?;
    // An explicit `drop(name)` releases early.
    let mut k = lock_idx;
    while k < body_end {
        let Some(t) = file.sig_token(k) else { break };
        if t.kind == TokenKind::Ident
            && t.text == "drop"
            && file
                .sig_token(k + 1)
                .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "(")
            && file
                .sig_token(k + 2)
                .is_some_and(|n| n.kind == TokenKind::Ident && n.text == name)
        {
            return Some(k);
        }
        k += 1;
    }
    Some(body_end)
}

/// The significant-token index just past the statement containing
/// `idx` (the next `;` at the current nesting level).
fn statement_end(file: &SourceFile, idx: usize) -> usize {
    let mut depth = 0i32;
    let mut j = idx;
    while let Some(t) = file.sig_token(j) {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth < 0 {
                        return j;
                    }
                }
                ";" if depth == 0 => return j,
                _ => {}
            }
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::symbols::extract_fns;

    fn facts_for(crate_name: &str, src: &str) -> BTreeMap<usize, FnFacts> {
        let file = SourceFile::parse("crates/x/src/a.rs", crate_name, src);
        let fns = extract_fns(&file, 0);
        let files = vec![file];
        let graph = callgraph::build(&files, fns, None);
        extract(&files, &graph)
    }

    fn lock_ids(f: &BTreeMap<usize, FnFacts>) -> Vec<&str> {
        f.values()
            .flat_map(|ff| ff.locks.iter().map(|l| l.id.as_str()))
            .collect()
    }

    #[test]
    fn lock_receiver_identity() {
        let f = facts_for(
            "store",
            "impl S {\n    fn a(&self) { let g = self.inner.lock().unwrap(); }\n    fn b(&self) { self.shard().lock().expect(\"poisoned\"); }\n}\n",
        );
        assert_eq!(lock_ids(&f), vec!["store.inner", "store.shard"]);
    }

    #[test]
    fn helper_form_is_an_acquisition() {
        let f = facts_for(
            "obs",
            "fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> { m.lock().expect(\"poisoned\") }\nimpl R {\n    fn a(&self) {\n        let s = lock(&self.state);\n        lock(&self.queues[0]).push(1);\n    }\n}\n",
        );
        assert_eq!(lock_ids(&f), vec!["obs.m", "obs.state", "obs.queues"]);
        let a = f.values().find(|ff| ff.locks.len() == 2).unwrap();
        assert!(a.locks[0].held_until.is_some());
        assert!(a.locks[1].held_until.is_none());
    }

    #[test]
    fn bound_guard_held_to_fn_end_temporary_is_not() {
        let f = facts_for(
            "store",
            "impl S {\n    fn a(&self) {\n        let g = self.inner.lock().unwrap();\n        use_it(&g);\n    }\n    fn b(&self) { self.inner.lock().unwrap().len(); }\n}\n",
        );
        let locks: Vec<&LockFact> = f.values().flat_map(|ff| ff.locks.iter()).collect();
        assert_eq!(locks.len(), 2);
        assert!(locks[0].held_until.is_some());
        assert!(locks[1].held_until.is_none());
    }

    #[test]
    fn locks_outside_the_lock_scope_are_ignored() {
        let f = facts_for(
            "par",
            "fn a(m: &Mutex<u8>) { let g = m.lock().unwrap(); }\n",
        );
        assert!(lock_ids(&f).is_empty());
    }
}
