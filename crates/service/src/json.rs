//! A minimal JSON value with a recursive-descent parser and two writers.
//!
//! The workspace builds offline with no serialization crate, and the
//! service protocol plus the benchmark trajectory files only need plain
//! JSON trees — so this module carries the ~300 lines of JSON the
//! workspace actually uses. Objects preserve
//! insertion order (they are association lists), which keeps re-written
//! benchmark documents diffable; numbers distinguish integers from
//! floats so `"base_size": 1000000` survives a parse → serialize round
//! trip without turning into `1000000.0`.

use std::fmt::{self, Write as _};

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fraction or exponent.
    Int(i64),
    /// A number with a fraction or exponent (or outside `i64` range).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as an insertion-ordered association list. Duplicate
    /// keys are kept as parsed; `get` returns the first.
    Obj(Vec<(String, Json)>),
}

/// Parse error: message plus byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset where it went wrong.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected). Arrays and objects nested more than
    /// 128 levels deep are an error.
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable object field lookup (first match).
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Obj(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer content, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric content as `f64` (integers coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean content, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Mutable elements, if this is an array.
    pub fn as_arr_mut(&mut self) -> Option<&mut Vec<Json>> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Single-line rendering (the wire format of the service protocol).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Multi-line rendering with two-space indentation (the format of the
    /// committed `BENCH_*.json` trajectory files), ending in a newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    /// Append the single-line rendering to `out`.
    pub(crate) fn write_compact(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write_bool(out, *b),
            Json::Int(i) => write_int(out, *i),
            Json::Float(f) => write_float(out, *f),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

pub(crate) fn write_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

pub(crate) fn write_int(out: &mut String, i: i64) {
    let _ = write!(out, "{i}"); // writing to a `String` cannot fail
}

/// Append `f` in the shortest form that round-trips (`{}`), with `.0`
/// added when that form would read back as an integer.
pub(crate) fn write_float(out: &mut String, f: f64) {
    let start = out.len();
    let _ = write!(out, "{f}"); // writing to a `String` cannot fail
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

pub(crate) fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
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

/// How deeply arrays and objects may nest. The parser recurses once per
/// level and runs on the server's reactor thread, so an unbounded depth
/// lets one request line overflow that thread's stack. The deepest
/// protocol request (`register`) nests about five levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
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
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected character '{}'", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse one array or object a level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Parser<'a>) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
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

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require a \uXXXX low
                                // half in 0xDC00..0xE000 — anything else
                                // is malformed JSON, not data.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if (0xDC00..0xE000).contains(&lo) {
                                        let combined =
                                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                        char::from_u32(combined)
                                    } else {
                                        None
                                    }
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            // hex4 advanced past the digits; compensate
                            // for the unconditional advance below.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape as
                    // one slice. Both stop bytes are ASCII, so the run
                    // starts and ends on char boundaries of the `&str`.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.src[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("  false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("2.5").unwrap(), Json::Float(2.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::str("hi"));
    }

    #[test]
    fn parses_nested_structure() {
        let doc = Json::parse(r#"{"a": [1, {"b": "x"}, null], "c": true}"#).unwrap();
        assert_eq!(doc.get("c"), Some(&Json::Bool(true)));
        let arr = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0], Json::Int(1));
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("x"));
        assert_eq!(arr[2], Json::Null);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::str("line1\nline2\t\"quoted\" \\ slash");
        let rendered = original.to_compact();
        assert_eq!(Json::parse(&rendered).unwrap(), original);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""é""#).unwrap(), Json::str("é"));
        // Surrogate pair: U+1F600.
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::str("😀"));
        assert_eq!(
            Json::parse(r#""\uD83D\uDE00""#).unwrap(),
            Json::str("😀"),
            "escaped surrogate pair decodes"
        );
        // A high surrogate must be followed by a low surrogate escape —
        // rejecting, not silently mis-decoding, malformed pairs.
        assert!(Json::parse(r#""\uD834A""#).is_err());
        assert!(Json::parse(r#""\uD834x""#).is_err());
        assert!(Json::parse(r#""\uDC00""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn int_float_distinction_survives_round_trip() {
        let doc = Json::parse(r#"{"n": 1000000, "ms": 2105.04}"#).unwrap();
        let rendered = doc.to_compact();
        assert!(rendered.contains("1000000"), "{rendered}");
        assert!(!rendered.contains("1000000.0"), "{rendered}");
        assert!(rendered.contains("2105.04"), "{rendered}");
        assert_eq!(Json::parse(&rendered).unwrap(), doc);
    }

    #[test]
    fn numbers_are_written_as_their_display_forms() {
        for i in [0, 7, -7, 10, -100, i64::MIN, i64::MAX] {
            assert_eq!(Json::Int(i).to_compact(), i.to_string());
        }
        for f in [0.0, -0.0, 2.5, -3.0, 1e300, -1e-7, f64::MAX] {
            let s = f.to_string();
            let expected = if s.contains('.') { s } else { format!("{s}.0") };
            assert_eq!(Json::Float(f).to_compact(), expected);
        }
    }

    #[test]
    fn whole_float_keeps_float_syntax() {
        assert_eq!(Json::Float(3.0).to_compact(), "3.0");
        assert_eq!(Json::parse("3.0").unwrap(), Json::Float(3.0));
    }

    #[test]
    fn pretty_output_reparses() {
        let doc =
            Json::parse(r#"{"runs": [{"label": "a", "points": [1, 2]}], "empty": []}"#).unwrap();
        let pretty = doc.to_pretty();
        assert!(pretty.ends_with('\n'));
        assert_eq!(Json::parse(&pretty).unwrap(), doc);
        // Objects keep insertion order.
        assert!(pretty.find("runs").unwrap() < pretty.find("empty").unwrap());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        let err = Json::parse("[true, xyz]").unwrap_err();
        assert!(err.offset > 0);
    }

    #[test]
    fn string_parsing_is_linear_in_content() {
        // 16× more string content must cost far less than the 256× a
        // per-character rescan of the rest of the document costs.
        let literal = |reps: usize| format!("\"{}\"", "abcé\\n\\\"xyz".repeat(reps));
        let fastest = |doc: &str| {
            (0..5)
                .map(|_| {
                    let t = std::time::Instant::now();
                    let parsed = Json::parse(doc).unwrap();
                    let elapsed = t.elapsed();
                    assert!(parsed.as_str().unwrap().ends_with("abcé\n\"xyz"));
                    elapsed
                })
                .min()
                .unwrap()
        };
        let small = fastest(&literal(1 << 10));
        let large = fastest(&literal(1 << 14));
        let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
        assert!(ratio < 64.0, "16x the content took {ratio:.0}x the time");
    }

    #[test]
    fn nesting_past_the_depth_cap_is_an_error_not_a_stack_overflow() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| format!("{}1{}", r#"{"k":"#.repeat(depth), "}".repeat(depth));
        assert!(Json::parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_DEPTH)).is_ok());
        for (doc, opened_at) in [
            (arrays(MAX_DEPTH + 1), MAX_DEPTH),
            (objects(MAX_DEPTH + 1), 5 * MAX_DEPTH),
        ] {
            let err = Json::parse(&doc).unwrap_err();
            assert!(err.message.contains("nesting deeper"), "{err}");
            assert_eq!(
                err.offset, opened_at,
                "the error points at the opening bracket"
            );
        }
        // Unbounded recursion overflows a 2 MiB thread stack long before
        // this depth; the closing brackets are never reached.
        let err = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.message.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn duplicate_keys_first_wins_on_get() {
        let doc = Json::parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(doc.get("k"), Some(&Json::Int(1)));
    }
}
