//! Minimal JSON writing and parsing.
//!
//! The workspace has no serializer dependency, so the observability layer
//! produces its JSON by hand through
//! [`JsonWriter`] and validates artifacts (CI, tests) with the small
//! recursive-descent [`parse`] below. Both cover exactly the JSON subset
//! the layer emits: objects, arrays, strings, finite numbers, booleans,
//! and null.

use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal (quoted, escaped).
pub fn write_escaped(out: &mut String, s: &str) {
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

/// Appends `v` to `out` as a JSON number (non-finite values become `null`,
/// which no metric or timing here should ever produce).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` is the shortest representation that round-trips.
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// An incremental writer for one JSON object or array.
///
/// ```
/// use soi_obs::json::JsonWriter;
/// let mut w = JsonWriter::object();
/// w.field_str("name", "soi");
/// w.field_u64("k", 10);
/// assert_eq!(w.finish(), r#"{"name":"soi","k":10}"#);
/// ```
#[derive(Debug)]
pub struct JsonWriter {
    buf: String,
    first: bool,
    close: char,
}

impl JsonWriter {
    /// Starts an object (`{…}`).
    pub fn object() -> Self {
        Self {
            buf: String::from("{"),
            first: true,
            close: '}',
        }
    }

    /// Starts an array (`[…]`).
    pub fn array() -> Self {
        Self {
            buf: String::from("["),
            first: true,
            close: ']',
        }
    }

    fn sep(&mut self) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
    }

    fn key(&mut self, name: &str) {
        self.sep();
        write_escaped(&mut self.buf, name);
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn field_str(&mut self, name: &str, v: &str) {
        self.key(name);
        write_escaped(&mut self.buf, v);
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(&mut self, name: &str, v: u64) {
        self.key(name);
        let _ = write!(self.buf, "{v}");
    }

    /// Adds a signed integer field.
    pub(crate) fn field_i64(&mut self, name: &str, v: i64) {
        self.key(name);
        let _ = write!(self.buf, "{v}");
    }

    /// Adds a float field.
    pub fn field_f64(&mut self, name: &str, v: f64) {
        self.key(name);
        write_f64(&mut self.buf, v);
    }

    /// Adds a boolean field.
    pub fn field_bool(&mut self, name: &str, v: bool) {
        self.key(name);
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Adds a field whose value is already-rendered JSON (an object, array,
    /// or scalar produced by another writer).
    pub fn field_raw(&mut self, name: &str, raw: &str) {
        self.key(name);
        self.buf.push_str(raw);
    }

    /// Adds an array element of already-rendered JSON.
    pub fn elem_raw(&mut self, raw: &str) {
        self.sep();
        self.buf.push_str(raw);
    }

    /// Adds a float array element.
    pub fn elem_f64(&mut self, v: f64) {
        self.sep();
        write_f64(&mut self.buf, v);
    }

    /// Closes the object/array and returns the rendered JSON.
    pub fn finish(mut self) -> String {
        self.buf.push(self.close);
        self.buf
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object (first occurrence).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed, anything
/// else after the value is an error).
///
/// # Errors
/// Returns a human-readable description of the first syntax error, with
/// its byte offset.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Maximum nesting depth accepted by [`parse`] (stack-overflow guard).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected byte {:?} at {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
        self.depth -= 1;
        Ok(Json::Obj(fields))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    break;
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
        self.depth -= 1;
        Ok(Json::Arr(items))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".to_string());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| {
                                    format!("invalid \\u escape at byte {}", self.pos)
                                })?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by this
                            // crate's writer; map lone surrogates to the
                            // replacement character rather than erroring.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                }
                _ => {
                    // Multi-byte UTF-8: copy the full character.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| format!("invalid UTF-8 at byte {start}"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_builds_nested_documents() {
        let mut inner = JsonWriter::array();
        inner.elem_f64(1.5);
        inner.elem_f64(2.0);
        let mut w = JsonWriter::object();
        w.field_str("name", "a \"quoted\"\nvalue");
        w.field_u64("count", 3);
        w.field_i64("delta", -4);
        w.field_bool("ok", true);
        w.field_raw("xs", &inner.finish());
        let text = w.finish();
        let v = parse(&text).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("a \"quoted\"\nvalue"));
        assert_eq!(v.get("count").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("delta").unwrap().as_f64(), Some(-4.0));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            v.get("xs").unwrap().as_arr().unwrap(),
            &[Json::Num(1.5), Json::Num(2.0)]
        );
    }

    #[test]
    fn floats_round_trip_shortest() {
        let mut out = String::new();
        write_f64(&mut out, 0.001);
        assert_eq!(out, "0.001");
        let mut out = String::new();
        write_f64(&mut out, 2.5e-5);
        let v = parse(&out).unwrap();
        assert_eq!(v.as_f64(), Some(2.5e-5));
        let mut out = String::new();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }

    #[test]
    fn parses_scalars_and_structures() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-1.25e2").unwrap(), Json::Num(-125.0));
        assert_eq!(parse(r#""hi\u0041""#).unwrap(), Json::Str("hiA".into()));
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
        assert_eq!(
            parse(r#"{"a":[1,{"b":null}]}"#).unwrap().get("a").unwrap(),
            &Json::Arr(vec![
                Json::Num(1.0),
                Json::Obj(vec![("b".into(), Json::Null)])
            ])
        );
        assert_eq!(parse("\"héllo→\"").unwrap(), Json::Str("héllo→".into()));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "1 2", "\"\\x\"", "[1]]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn depth_limit_guards_recursion() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&ok).is_ok());
    }
}
