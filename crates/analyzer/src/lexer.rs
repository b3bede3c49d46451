//! A hand-rolled Rust tokenizer.
//!
//! The analyzer needs just enough lexical structure to pattern-match
//! token sequences reliably: identifiers, literals, punctuation, and —
//! crucially — comments kept as first-class tokens, because suppressions
//! (`// uniq-analyzer: allow(...)`) live in them. String and comment
//! contents must never leak into the significant-token stream (a doc
//! example mentioning `span(…)` is not a finding), which is exactly the
//! property ad-hoc `grep`-style checks get wrong.
//!
//! The grammar subset is deliberately loose where looseness is safe
//! (numeric literal shapes, multi-char operators arriving as single
//! punctuation tokens) and exact where the rules depend on it (nested
//! block comments, raw strings, lifetime-vs-char-literal
//! disambiguation).

/// The lexical class of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `unsafe`, `HashMap`, ...).
    Ident,
    /// Lifetime such as `'env` (the tick is included in the text).
    Lifetime,
    /// Numeric literal (integers and floats, suffixes included).
    Number,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A `// …` comment, doc comments included. Text keeps the slashes.
    LineComment,
    /// A `/* … */` comment (possibly nested). Text keeps the delimiters.
    BlockComment,
    /// A single punctuation character (`.`, `!`, `[`, `::` arrives as
    /// two `:` tokens).
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Lexical class.
    pub kind: TokenKind,
    /// Raw source text of the token.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// `true` for comment trivia (not part of the significant stream).
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

/// Tokenizes `src`. Never fails: unterminated constructs are closed at
/// end of input, so the analyzer degrades gracefully on mid-edit files.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32) {
        self.out.push(Token { kind, text, line });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                'r' | 'b' if self.raw_or_byte_string_starts() => self.raw_or_byte_string(line),
                '"' => self.string(line),
                '\'' => self.tick(line),
                c if c.is_ascii_digit() => self.number(line),
                c if c == '_' || c.is_alphanumeric() => self.ident(line),
                _ => {
                    let c = self.bump().unwrap_or(' ');
                    self.push(TokenKind::Punct, c.to_string(), line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(TokenKind::LineComment, text, line);
    }

    fn block_comment(&mut self, line: u32) {
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.push(TokenKind::BlockComment, text, line);
    }

    /// Is the current `r`/`b` the head of a raw/byte string (`r"`, `r#`,
    /// `b"`, `br"`, `br#`, `b'`) rather than a plain identifier?
    fn raw_or_byte_string_starts(&self) -> bool {
        match self.peek(0) {
            Some('r') => matches!(self.peek(1), Some('"') | Some('#')),
            Some('b') => match self.peek(1) {
                Some('"') | Some('\'') => true,
                Some('r') => matches!(self.peek(2), Some('"') | Some('#')),
                _ => false,
            },
            _ => false,
        }
    }

    fn raw_or_byte_string(&mut self, line: u32) {
        let mut text = String::new();
        // Consume the prefix letters (r, b, br).
        while matches!(self.peek(0), Some('r') | Some('b')) {
            text.push(self.bump().unwrap_or('r'));
        }
        if self.peek(0) == Some('\'') {
            // Byte char literal b'…'.
            text.push(self.bump().unwrap_or('\''));
            self.char_body(&mut text);
            self.push(TokenKind::Char, text, line);
            return;
        }
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            text.push(self.bump().unwrap_or('#'));
        }
        if self.peek(0) == Some('"') {
            text.push(self.bump().unwrap_or('"'));
        }
        let raw = hashes > 0 || text.contains('r');
        loop {
            match self.peek(0) {
                None => break,
                Some('\\') if !raw => {
                    text.push(self.bump().unwrap_or('\\'));
                    if let Some(c) = self.bump() {
                        text.push(c);
                    }
                }
                Some('"') => {
                    text.push(self.bump().unwrap_or('"'));
                    let mut closing = 0usize;
                    while closing < hashes && self.peek(0) == Some('#') {
                        closing += 1;
                        text.push(self.bump().unwrap_or('#'));
                    }
                    if closing == hashes {
                        break;
                    }
                }
                Some(c) => {
                    text.push(c);
                    self.bump();
                }
            }
        }
        self.push(TokenKind::Str, text, line);
    }

    fn string(&mut self, line: u32) {
        let mut text = String::new();
        text.push(self.bump().unwrap_or('"'));
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                text.push(self.bump().unwrap_or('\\'));
                if let Some(e) = self.bump() {
                    text.push(e);
                }
            } else if c == '"' {
                text.push(self.bump().unwrap_or('"'));
                break;
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.push(TokenKind::Str, text, line);
    }

    /// A tick starts either a lifetime (`'env`) or a char literal
    /// (`'x'`, `'\n'`). Lifetime iff the next char starts an identifier
    /// and the char after it is not a closing tick.
    fn tick(&mut self, line: u32) {
        let next = self.peek(1);
        let after = self.peek(2);
        let is_lifetime =
            matches!(next, Some(c) if c == '_' || c.is_alphabetic()) && after != Some('\'');
        if is_lifetime {
            let mut text = String::new();
            text.push(self.bump().unwrap_or('\''));
            while matches!(self.peek(0), Some(c) if c == '_' || c.is_alphanumeric()) {
                text.push(self.bump().unwrap_or('_'));
            }
            self.push(TokenKind::Lifetime, text, line);
        } else {
            let mut text = String::new();
            text.push(self.bump().unwrap_or('\''));
            self.char_body(&mut text);
            self.push(TokenKind::Char, text, line);
        }
    }

    /// Consumes the body of a char literal up to and including the
    /// closing tick (the opening tick is already in `text`).
    fn char_body(&mut self, text: &mut String) {
        if self.peek(0) == Some('\\') {
            text.push(self.bump().unwrap_or('\\'));
            if let Some(e) = self.bump() {
                text.push(e);
            }
            // Multi-char escapes (\u{…}, \x41) run until the tick.
            while let Some(c) = self.peek(0) {
                if c == '\'' {
                    break;
                }
                text.push(c);
                self.bump();
            }
        } else if let Some(c) = self.bump() {
            text.push(c);
        }
        if self.peek(0) == Some('\'') {
            text.push(self.bump().unwrap_or('\''));
        }
    }

    fn number(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
                // Scientific notation: consume a sign directly after e/E,
                // but only in a decimal (non-0x) literal.
                if (c == 'e' || c == 'E')
                    && !text.starts_with("0x")
                    && matches!(self.peek(0), Some('+') | Some('-'))
                    && matches!(self.peek(1), Some(d) if d.is_ascii_digit())
                {
                    text.push(self.bump().unwrap_or('+'));
                }
            } else if c == '.'
                && self.peek(1) != Some('.')
                && matches!(self.peek(1), Some(d) if d.is_ascii_digit())
            {
                // A fractional part, but never the start of a `..` range.
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Number, text, line);
    }

    fn ident(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Ident, text, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_keywords_puncts() {
        let toks = kinds("fn main() { x.unwrap(); }");
        assert!(toks.contains(&(TokenKind::Ident, "unwrap".into())));
        assert!(toks.contains(&(TokenKind::Punct, ".".into())));
    }

    #[test]
    fn comments_are_tokens_not_code() {
        let toks = lex("// a.unwrap() in prose\nlet x = 1;");
        assert_eq!(toks[0].kind, TokenKind::LineComment);
        assert_eq!(toks[0].line, 1);
        assert!(toks[1..]
            .iter()
            .all(|t| t.kind != TokenKind::Ident || t.text != "unwrap"));
    }

    #[test]
    fn nested_block_comments() {
        let toks = lex("/* outer /* inner */ still */ ident");
        assert_eq!(toks[0].kind, TokenKind::BlockComment);
        assert_eq!(toks[1].text, "ident");
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = kinds(r#"let s = "HashMap.unwrap()";"#);
        assert!(!toks.contains(&(TokenKind::Ident, "HashMap".into())));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t.contains("HashMap")));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = lex(r##"let s = r#"quote " inside"#; next"##);
        assert!(toks.iter().any(|t| t.kind == TokenKind::Str));
        assert_eq!(toks.last().map(|t| t.text.clone()), Some("next".into()));
    }

    #[test]
    fn lifetime_vs_char_literal() {
        let toks = kinds("fn f<'a>(c: char) { let x = 'x'; let n = '\\n'; }");
        assert!(toks.contains(&(TokenKind::Lifetime, "'a".into())));
        assert!(toks.contains(&(TokenKind::Char, "'x'".into())));
        assert!(toks.contains(&(TokenKind::Char, "'\\n'".into())));
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let toks = kinds("for i in 0..10 { let y = 1.5e-3; }");
        assert!(toks.contains(&(TokenKind::Number, "0".into())));
        assert!(toks.contains(&(TokenKind::Number, "10".into())));
        assert!(toks.contains(&(TokenKind::Number, "1.5e-3".into())));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let toks = lex(r#"b"bytes" br"raw bytes" b'x'"#);
        assert_eq!(toks[0].kind, TokenKind::Str);
        assert_eq!(toks[1].kind, TokenKind::Str);
        assert_eq!(toks[2].kind, TokenKind::Char);
    }
}
