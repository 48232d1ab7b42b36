//! A small token-level lexer for Rust source.
//!
//! The rules in this crate never need a parse tree — they need a token
//! stream that *correctly refuses to see* the places Rust hides text
//! that merely looks like code: line and block comments (nested), plain
//! and raw string literals (`r#"…"#` with any hash count), byte
//! strings, char literals (disambiguated from lifetimes), and numeric
//! literals. On top of the stream, a second pass marks every token that
//! lives inside `#[cfg(test)]` / `#[test]` items or a `mod tests`
//! block, so rules scoped to production code skip test code without a
//! type checker.
//!
//! Comment *text* is not discarded: it is collected per line, because
//! the suppression machinery looks for `// lint:allow(rule)` in it.

/// What a token is. Only the distinctions the rules consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`sort_by`, `fn`, …).
    Ident,
    /// String literal (plain, raw, or byte); `text` is the inner
    /// contents without quotes/hashes, escapes unprocessed.
    Str,
    /// Char literal.
    Char,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`).
    Lifetime,
    /// Any single punctuation character; `text` is that character.
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: u32,
    /// True when the token is inside test code: a `#[cfg(test)]` or
    /// `#[test]` item, a `mod tests` block, or a file the caller
    /// classified as test-only (`tests/`, `benches/`).
    pub in_test: bool,
}

impl Token {
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

/// A lexed source file: the token stream plus per-line comment text.
#[derive(Debug, Default)]
pub struct LexedFile {
    pub tokens: Vec<Token>,
    /// `comments[i]` is every comment fragment whose span covers
    /// 1-based line `i + 1`, concatenated (a block comment contributes
    /// its full text to each line it spans).
    pub comments: Vec<String>,
    /// Trimmed source text per line (for "is this line only a comment
    /// or attribute" checks).
    pub lines: Vec<String>,
}

impl LexedFile {
    /// Trimmed source of 1-based `line`, or `""`.
    pub fn line_text(&self, line: u32) -> &str {
        self.lines
            .get(line as usize - 1)
            .map(String::as_str)
            .unwrap_or("")
    }
}

/// Lexes `src`. `whole_file_is_test` marks every token as test code
/// (integration tests, benches, fixtures classified by path).
pub fn lex(src: &str, whole_file_is_test: bool) -> LexedFile {
    let mut lx = Lexer::new(src);
    lx.run();
    let mut file = LexedFile {
        tokens: lx.tokens,
        comments: lx.comments,
        lines: src.lines().map(|l| l.trim().to_string()).collect(),
    };
    if whole_file_is_test {
        for t in &mut file.tokens {
            t.in_test = true;
        }
    } else {
        mark_test_regions(&mut file.tokens);
    }
    file
}

struct Lexer<'a> {
    src: &'a str,
    chars: Vec<(usize, char)>,
    pos: usize,
    line: u32,
    tokens: Vec<Token>,
    comments: Vec<String>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        let line_count = src.lines().count().max(1);
        Lexer {
            src,
            chars: src.char_indices().collect(),
            pos: 0,
            line: 1,
            tokens: Vec::new(),
            comments: vec![String::new(); line_count],
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).map(|&(_, c)| c)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn byte_offset(&self) -> usize {
        self.chars
            .get(self.pos)
            .map(|&(i, _)| i)
            .unwrap_or(self.src.len())
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.tokens.push(Token {
            kind,
            text,
            line,
            in_test: false,
        });
    }

    fn record_comment(&mut self, text: &str, start_line: u32, end_line: u32) {
        for line in start_line..=end_line {
            if let Some(slot) = self.comments.get_mut(line as usize - 1) {
                slot.push_str(text);
                slot.push('\n');
            }
        }
    }

    fn run(&mut self) {
        while let Some(c) = self.peek(0) {
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string_lit(),
                '\'' => self.char_or_lifetime(),
                'r' | 'b' if self.raw_or_byte_string() => {}
                c if c.is_alphabetic() || c == '_' => self.ident(),
                c if c.is_ascii_digit() => self.number(),
                _ => {
                    let line = self.line;
                    let c = self.bump().unwrap();
                    self.push(TokKind::Punct, c.to_string(), line);
                }
            }
        }
    }

    fn line_comment(&mut self) {
        let start = self.byte_offset();
        let line = self.line;
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            self.bump();
        }
        let text = self.src[start..self.byte_offset()].to_string();
        self.record_comment(&text, line, line);
    }

    fn block_comment(&mut self) {
        let start = self.byte_offset();
        let start_line = self.line;
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break, // unterminated: EOF ends it
            }
        }
        let end_line = self.line;
        let text = self.src[start..self.byte_offset()].to_string();
        self.record_comment(&text, start_line, end_line);
    }

    /// Plain `"…"` string (escape-aware). The opening quote is current.
    fn string_lit(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        let start = self.byte_offset();
        let mut end = start;
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                self.bump();
                self.bump();
                end = self.byte_offset();
                continue;
            }
            if c == '"' {
                end = self.byte_offset();
                self.bump();
                break;
            }
            self.bump();
            end = self.byte_offset();
        }
        let text = self.src[start..end].to_string();
        self.push(TokKind::Str, text, line);
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, and raw
    /// identifiers `r#ident`. Returns false when the current position
    /// is a plain identifier starting with `r`/`b`.
    fn raw_or_byte_string(&mut self) -> bool {
        let c0 = self.peek(0).unwrap();
        // Figure out the candidate prefix shape.
        let mut i = 1; // chars consumed past c0 candidate
        let mut raw = c0 == 'r';
        if c0 == 'b' {
            match self.peek(1) {
                Some('r') => {
                    raw = true;
                    i = 2;
                }
                Some('"') => {
                    // b"…": lex as a plain string after skipping `b`.
                    self.bump();
                    self.string_lit();
                    return true;
                }
                _ => return false,
            }
        }
        if !raw {
            return false;
        }
        // Count hashes after the `r`.
        let mut hashes = 0usize;
        while self.peek(i + hashes) == Some('#') {
            hashes += 1;
        }
        match self.peek(i + hashes) {
            Some('"') => {}
            Some(c) if hashes == 1 && (c.is_alphabetic() || c == '_') => {
                // Raw identifier r#ident: consume prefix, lex ident.
                let line = self.line;
                self.bump(); // r
                self.bump(); // #
                let start = self.byte_offset();
                while let Some(c) = self.peek(0) {
                    if c.is_alphanumeric() || c == '_' {
                        self.bump();
                    } else {
                        break;
                    }
                }
                let text = self.src[start..self.byte_offset()].to_string();
                self.push(TokKind::Ident, text, line);
                return true;
            }
            _ => return false,
        }
        // Raw string: consume prefix + hashes + quote.
        let line = self.line;
        for _ in 0..(i + hashes + 1) {
            self.bump();
        }
        let start = self.byte_offset();
        let mut end = self.src.len();
        // Scan for `"` followed by `hashes` hashes.
        'outer: while let Some(c) = self.peek(0) {
            if c == '"' {
                for h in 0..hashes {
                    if self.peek(1 + h) != Some('#') {
                        self.bump();
                        continue 'outer;
                    }
                }
                end = self.byte_offset();
                for _ in 0..(1 + hashes) {
                    self.bump();
                }
                break;
            }
            self.bump();
        }
        let text = self.src[start..end.min(self.src.len())].to_string();
        self.push(TokKind::Str, text, line);
        true
    }

    /// `'a'` / `'\n'` char literals vs `'a` lifetimes.
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        // Lifetime: '<ident-start> not followed by a closing quote.
        if let Some(c1) = self.peek(1) {
            if (c1.is_alphabetic() || c1 == '_') && self.peek(2) != Some('\'') {
                self.bump(); // '
                let start = self.byte_offset();
                while let Some(c) = self.peek(0) {
                    if c.is_alphanumeric() || c == '_' {
                        self.bump();
                    } else {
                        break;
                    }
                }
                let text = self.src[start..self.byte_offset()].to_string();
                self.push(TokKind::Lifetime, text, line);
                return;
            }
        }
        // Char literal: consume until the closing quote (escape-aware).
        self.bump(); // opening '
        let start = self.byte_offset();
        let mut end = start;
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                self.bump();
                self.bump();
                end = self.byte_offset();
                continue;
            }
            if c == '\'' {
                end = self.byte_offset();
                self.bump();
                break;
            }
            self.bump();
            end = self.byte_offset();
        }
        let text = self.src[start..end].to_string();
        self.push(TokKind::Char, text, line);
    }

    fn ident(&mut self) {
        let line = self.line;
        let start = self.byte_offset();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                self.bump();
            } else {
                break;
            }
        }
        let text = self.src[start..self.byte_offset()].to_string();
        self.push(TokKind::Ident, text, line);
    }

    /// Numeric literal. Greedy over alphanumerics and `_`; consumes a
    /// `.` only when followed by a digit, so `b.1.partial_cmp(..)`
    /// still yields the `partial_cmp` identifier.
    fn number(&mut self) {
        let line = self.line;
        let start = self.byte_offset();
        while let Some(c) = self.peek(0) {
            let fractional_dot = c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit());
            if c.is_alphanumeric() || c == '_' || fractional_dot {
                self.bump();
            } else {
                break;
            }
        }
        let text = self.src[start..self.byte_offset()].to_string();
        self.push(TokKind::Num, text, line);
    }
}

/// Marks tokens inside test regions: items annotated `#[cfg(test)]` /
/// `#[test]` (any attribute whose bracket tokens contain a
/// non-negated `test` identifier) and `mod tests { … }` blocks. A
/// region covers the annotated item — through the matching close of
/// its first `{`, or to the first top-level `;` for braceless items.
fn mark_test_regions(tokens: &mut [Token]) {
    let mut i = 0;
    while i < tokens.len() {
        let is_test_attr = tokens[i].is_punct('#')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
            && attr_is_test(tokens, i + 1);
        let is_tests_mod = tokens[i].is_ident("mod")
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokKind::Ident && t.text == "tests");
        if !(is_test_attr || is_tests_mod) {
            i += 1;
            continue;
        }
        // Find the region end: matching `}` of the first `{`, or a `;`
        // before any brace opens.
        let mut j = if is_test_attr {
            skip_attr(tokens, i + 1)
        } else {
            i + 2
        };
        let mut depth = 0i32;
        let mut end = tokens.len();
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth <= 0 {
                    end = j + 1;
                    break;
                }
            } else if t.is_punct(';') && depth == 0 {
                end = j + 1;
                break;
            } else if t.is_punct('#') && depth == 0 && j > i {
                // A stacked attribute before the item: keep scanning.
            }
            j += 1;
        }
        for t in &mut tokens[i..end] {
            t.in_test = true;
        }
        i = end;
    }
}

/// With `tokens[open]` being the `[` of an attribute, returns the index
/// just past the matching `]`.
fn skip_attr(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < tokens.len() {
        if tokens[j].is_punct('[') {
            depth += 1;
        } else if tokens[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    tokens.len()
}

/// Does the attribute starting at `tokens[open] == [` mention `test` as
/// an identifier not directly inside `not(…)`? Catches `#[test]`,
/// `#[cfg(test)]`, `#[cfg(all(test, …))]`; rejects `#[cfg(not(test))]`
/// and string occurrences like `#[cfg(feature = "test")]`.
fn attr_is_test(tokens: &[Token], open: usize) -> bool {
    let close = skip_attr(tokens, open);
    let inner = &tokens[open + 1..close.saturating_sub(1)];
    for (k, t) in inner.iter().enumerate() {
        if t.is_ident("test") {
            let negated = k >= 2 && inner[k - 2].is_ident("not") && inner[k - 1].is_punct('(');
            if !negated {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(file: &LexedFile) -> Vec<&str> {
        file.tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let src = r###"
// partial_cmp in a line comment
/* partial_cmp in /* a nested */ block comment */
let a = "partial_cmp in a string";
let b = r#"partial_cmp in a raw "quoted" string"#;
let c = b"partial_cmp bytes";
let d = 'x';
fn real() { a.partial_cmp(b) }
"###;
        let file = lex(src, false);
        let hits: Vec<_> = file
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident && t.text == "partial_cmp")
            .collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 8);
        assert!(file.comments[1].contains("partial_cmp"));
        assert!(file.comments[2].contains("nested"));
    }

    #[test]
    fn tuple_index_method_calls_lex_cleanly() {
        let file = lex("y.1.abs().partial_cmp(&x.1.abs())", false);
        assert!(idents(&file).contains(&"partial_cmp"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let file = lex("fn f<'a>(x: &'a str) -> char { 'b' }", false);
        let lifetimes: Vec<_> = file
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(file
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Char && t.text == "b"));
    }

    #[test]
    fn raw_strings_with_hashes_and_escapes() {
        let file = lex(r####"let s = r##"a "#" b"##; let t = "q\"w";"####, false);
        let strs: Vec<_> = file
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, vec![r##"a "#" b"##, r#"q\"w"#]);
    }

    #[test]
    fn cfg_test_and_mod_tests_regions() {
        let src = r#"
fn prod() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}
#[test]
fn single() { z.unwrap(); }
fn prod2() { w.unwrap(); }
"#;
        let file = lex(src, false);
        let unwraps: Vec<(u32, bool)> = file
            .tokens
            .iter()
            .filter(|t| t.is_ident("unwrap"))
            .map(|t| (t.line, t.in_test))
            .collect();
        assert_eq!(unwraps, vec![(2, false), (5, true), (8, true), (9, false)]);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn prod() { x.unwrap(); }";
        let file = lex(src, false);
        assert!(file
            .tokens
            .iter()
            .filter(|t| t.is_ident("unwrap"))
            .all(|t| !t.in_test));
    }

    #[test]
    fn cfg_feature_string_is_not_test() {
        let src = "#[cfg(feature = \"test\")]\nfn prod() { x.unwrap(); }";
        let file = lex(src, false);
        assert!(file
            .tokens
            .iter()
            .filter(|t| t.is_ident("unwrap"))
            .all(|t| !t.in_test));
    }

    #[test]
    fn braceless_test_item_region_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse helper::thing;\nfn prod() { a.unwrap(); }";
        let file = lex(src, false);
        assert!(file
            .tokens
            .iter()
            .filter(|t| t.is_ident("unwrap"))
            .all(|t| !t.in_test));
    }
}
