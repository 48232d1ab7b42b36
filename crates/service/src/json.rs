//! Minimal JSON tree, parser, and writer for the `cajade-serve` wire
//! protocol. Hand-rolled because the build environment vendors no
//! `serde_json`; the protocol's payloads are small and flat, so a tiny
//! recursive-descent parser is plenty.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value. Objects preserve no duplicate keys; ordering is sorted
/// (BTreeMap), which keeps rendered output deterministic for tests.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as f64; the protocol's integers fit exactly).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object.
    Obj(BTreeMap<String, Json>),
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// String value shortcut.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Number shortcut.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Number view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Unsigned-integer view (rejects fractions and negatives).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Bool view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object view.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Renders compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null"); // JSON has no inf/NaN
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (trailing whitespace allowed), nested at
    /// most [`MAX_DEPTH`] deep: the parser recurses once per level.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing input"));
        }
        Ok(v)
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// How deep [`Json::parse`] lets arrays and objects nest.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{text}'")))
        }
    }

    /// A value inside `depth` open arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(self.err("nested too deep")),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    let lo_hex = self
                                        .bytes
                                        .get(self.pos + 2..self.pos + 6)
                                        .ok_or_else(|| self.err("short surrogate"))?;
                                    let lo_hex = std::str::from_utf8(lo_hex)
                                        .map_err(|_| self.err("bad surrogate"))?;
                                    let lo = u32::from_str_radix(lo_hex, 16)
                                        .map_err(|_| self.err("bad surrogate"))?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("high surrogate not followed by low"));
                                    }
                                    self.pos += 6;
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| self.err("bad surrogate pair"))?
                                } else {
                                    return Err(self.err("lone surrogate"));
                                }
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("bad codepoint"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        for text in [
            r#"null"#,
            r#"true"#,
            r#"[1,2.5,-3]"#,
            r#"{"a":[{"b":"c"},null],"d":false}"#,
            r#""he said \"hi\"\n""#,
        ] {
            let v = Json::parse(text).unwrap();
            let rendered = v.render();
            assert_eq!(Json::parse(&rendered).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"op":"ask","session":3,"deep":{"x":[1,2]}}"#).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("ask"));
        assert_eq!(v.get("session").and_then(Json::as_u64), Some(3));
        assert_eq!(
            v.get("deep")
                .and_then(|d| d.get("x"))
                .and_then(Json::as_array)
                .map(|a| a.len()),
            Some(2)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn escapes_and_unicode() {
        let v = Json::parse(r#""Aé😀\t""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé😀\t"));
        // Valid surrogate pair decodes; malformed pairs are rejected.
        assert_eq!(Json::parse(r#""😀""#).unwrap().as_str(), Some("😀"));
        assert!(Json::parse(r#""\ud800A""#).is_err());
        assert!(Json::parse(r#""\ud800""#).is_err());
        let rendered = Json::str("tab\tnewline\nquote\"").render();
        assert_eq!(
            Json::parse(&rendered).unwrap().as_str(),
            Some("tab\tnewline\nquote\"")
        );
    }

    #[test]
    fn errors_carry_position() {
        let e = Json::parse(r#"{"a": }"#).unwrap_err();
        assert_eq!(e.offset, 6);
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("01x").is_err());
        assert!(Json::parse(r#"{"a":1} extra"#).is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let e = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH);
        // Far past the limit is the same error, not a stack overflow.
        assert!(Json::parse(&r#"{"a":"#.repeat(1_000_000)).is_err());
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::num(5.0).render(), "5");
        assert_eq!(Json::num(5.25).render(), "5.25");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }
}
