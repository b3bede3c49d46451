//! Per-file analysis context: lexed tokens, test-code regions, and
//! parsed suppression comments.
//!
//! Rules never see raw text; they see a [`SourceFile`] that already
//! knows which lines are test code (`#[cfg(test)]` modules, `#[test]`
//! functions — exempt from every rule) and which lines carry an inline
//! `// uniq-analyzer: allow(<rule>) — <why>` suppression.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeInclusive;

/// A suppression parsed from a `uniq-analyzer: allow(...)` comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Rule names listed inside `allow(...)`.
    pub rules: Vec<String>,
    /// Line the comment sits on. The suppression covers this line and
    /// the next, so it works both trailing and on its own line above.
    pub line: u32,
    /// Free-text justification after the closing paren, trimmed.
    pub justification: String,
}

/// One analyzed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative display path (e.g. `crates/core/src/batch.rs`).
    pub path: String,
    /// Short crate name (`core`, `par`, `suite`, ...).
    pub crate_name: String,
    /// All tokens, comments included, in source order.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens.
    pub sig: Vec<usize>,
    /// Line ranges occupied by test-only code.
    pub test_ranges: Vec<RangeInclusive<u32>>,
    /// Parsed suppressions.
    pub suppressions: Vec<Suppression>,
    /// rule name → lines covered by a suppression for it.
    suppressed_lines: BTreeMap<String, BTreeSet<u32>>,
}

impl SourceFile {
    /// Lexes and indexes `text`.
    pub fn parse(path: &str, crate_name: &str, text: &str) -> SourceFile {
        let tokens = lex(text);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        let test_ranges = find_test_ranges(&tokens, &sig);
        let suppressions = find_suppressions(&tokens);
        let mut suppressed_lines: BTreeMap<String, BTreeSet<u32>> = BTreeMap::new();
        for s in &suppressions {
            for rule in &s.rules {
                let lines = suppressed_lines.entry(rule.clone()).or_default();
                lines.insert(s.line);
                lines.insert(s.line + 1);
            }
        }
        SourceFile {
            path: path.to_string(),
            crate_name: crate_name.to_string(),
            tokens,
            sig,
            test_ranges,
            suppressions,
            suppressed_lines,
        }
    }

    /// Is `line` inside test-only code?
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_ranges.iter().any(|r| r.contains(&line))
    }

    /// Is there a suppression for `rule` covering `line`?
    pub fn is_suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressed_lines
            .get(rule)
            .is_some_and(|lines| lines.contains(&line))
    }

    /// The significant token at significant-index `i`, if any.
    pub fn sig_token(&self, i: usize) -> Option<&Token> {
        self.sig.get(i).map(|&ti| &self.tokens[ti])
    }

    /// Is the significant token at `i` the punctuation `text`?
    pub fn is_punct(&self, i: usize, text: &str) -> bool {
        self.sig_token(i)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
    }

    /// Does the significant stream starting at `i` match `pattern`
    /// (kind + exact text for `Some`, any text for `None`)?
    pub fn sig_matches(&self, i: usize, pattern: &[(TokenKind, Option<&str>)]) -> bool {
        pattern.iter().enumerate().all(|(k, (kind, text))| {
            self.sig_token(i + k)
                .is_some_and(|t| t.kind == *kind && text.map(|w| w == t.text).unwrap_or(true))
        })
    }
}

/// Finds line ranges covered by `#[cfg(test)]` / `#[test]` items by
/// scanning attributes and brace-matching the item body that follows.
fn find_test_ranges(tokens: &[Token], sig: &[usize]) -> Vec<RangeInclusive<u32>> {
    let tok = |i: usize| -> &Token { &tokens[sig[i]] };
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < sig.len() {
        // Attribute? `#` `[` ... `]` (outer only; `#![...]` is a crate attr).
        if tok(i).text == "#" && i + 1 < sig.len() && tok(i + 1).text == "[" {
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut attr_idents: Vec<&str> = Vec::new();
            while j < sig.len() && depth > 0 {
                match tok(j).text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {
                        if tok(j).kind == TokenKind::Ident {
                            attr_idents.push(tok(j).text.as_str());
                        }
                    }
                }
                j += 1;
            }
            // `#[cfg(not(test))]` gates *production* code — not a test attr.
            let is_test_attr = attr_idents.first() == Some(&"test")
                || (attr_idents.first() == Some(&"cfg")
                    && attr_idents.contains(&"test")
                    && !attr_idents.contains(&"not"));
            if is_test_attr {
                // Find the body of the annotated item: the first `{` before
                // a top-level `;` (an item without a body, e.g.
                // `#[cfg(test)] use …;`, covers only its own lines).
                let start_line = tok(i).line;
                let mut k = j;
                let mut found_body = false;
                while k < sig.len() {
                    match tok(k).text.as_str() {
                        "{" => {
                            found_body = true;
                            break;
                        }
                        ";" => break,
                        _ => k += 1,
                    }
                }
                if found_body {
                    let mut depth = 0usize;
                    let mut end = k;
                    while end < sig.len() {
                        match tok(end).text.as_str() {
                            "{" => depth += 1,
                            "}" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        end += 1;
                    }
                    let end_line = if end < sig.len() {
                        tok(end).line
                    } else {
                        tokens.last().map(|t| t.line).unwrap_or(start_line)
                    };
                    ranges.push(start_line..=end_line);
                    i = end + 1;
                    continue;
                } else if k < sig.len() {
                    ranges.push(start_line..=tok(k).line);
                    i = k + 1;
                    continue;
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    ranges
}

/// Extracts suppression comments: `uniq-analyzer:` followed by
/// `allow(<rules>)` and a justification. Doc comments (`///`, `//!`,
/// `/**`, `/*!`) never suppress — they document code for readers, and
/// treating them as directives would let an example in prose silence a
/// real finding.
fn find_suppressions(tokens: &[Token]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for t in tokens {
        if !t.is_comment() {
            continue;
        }
        let is_doc = t.text.starts_with("///")
            || t.text.starts_with("//!")
            || t.text.starts_with("/**")
            || t.text.starts_with("/*!");
        if is_doc {
            continue;
        }
        let Some(at) = t.text.find("uniq-analyzer:") else {
            continue;
        };
        let rest = &t.text[at + "uniq-analyzer:".len()..];
        let rest = rest.trim_start();
        let Some(body) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = body.find(')') else {
            continue;
        };
        let rules: Vec<String> = body[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let justification = body[close + 1..]
            .trim_start_matches([' ', '\t'])
            .trim_start_matches(['—', '-', ':', '–'])
            .trim()
            .trim_end_matches("*/")
            .trim()
            .to_string();
        out.push(Suppression {
            rules,
            line: t.line,
            justification,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_module_lines_are_test_code() {
        let src = "fn lib() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let f = SourceFile::parse("x.rs", "core", src);
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(3));
        assert!(f.in_test_code(6));
        assert!(f.in_test_code(7));
        assert!(!f.in_test_code(8));
    }

    #[test]
    fn test_fn_outside_module_is_test_code() {
        let src = "fn lib() {}\n#[test]\nfn t() {\n    boom.unwrap();\n}\nfn more() {}\n";
        let f = SourceFile::parse("x.rs", "core", src);
        assert!(f.in_test_code(4));
        assert!(!f.in_test_code(6));
    }

    #[test]
    fn cfg_test_on_bodyless_item_covers_only_itself() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn real() {}\n";
        let f = SourceFile::parse("x.rs", "core", src);
        assert!(f.in_test_code(2));
        assert!(!f.in_test_code(3));
    }

    #[test]
    fn suppression_trailing_and_above() {
        let src = "// uniq-analyzer: allow(lock-order) — the guard is the writer itself\nlet t = out.flush();\nlet u = m.lock(); // uniq-analyzer: allow(obs-context) — no emission here\n";
        let f = SourceFile::parse("x.rs", "core", src);
        assert!(f.is_suppressed("lock-order", 2));
        assert!(f.is_suppressed("obs-context", 3));
        assert!(!f.is_suppressed("obs-context", 2));
        assert_eq!(f.suppressions.len(), 2);
        assert!(!f.suppressions[0].justification.is_empty());
    }

    #[test]
    fn suppression_multiple_rules() {
        let src =
            "// uniq-analyzer: allow(lock-order, obs-context): startup config only\nlet x = 1;\n";
        let f = SourceFile::parse("x.rs", "core", src);
        assert!(f.is_suppressed("lock-order", 2));
        assert!(f.is_suppressed("obs-context", 2));
        assert_eq!(f.suppressions[0].justification, "startup config only");
    }

    #[test]
    fn empty_justification_detected() {
        let src = "let y = m.lock(); // uniq-analyzer: allow(lock-order)\n";
        let f = SourceFile::parse("x.rs", "core", src);
        assert!(f.suppressions[0].justification.is_empty());
    }
}
