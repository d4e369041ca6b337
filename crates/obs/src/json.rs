//! Hand-rolled JSON: a value model, a writer, and a strict parser.
//!
//! The build is offline (no serde), so observability output is produced and
//! validated through this module. Objects preserve insertion order so rendered
//! documents are stable and diffable; numbers are `f64` rendered via Rust's
//! shortest round-trip formatting.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers render without a decimal point).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts (or replaces) `key` in an object; panics on non-objects.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not [`Json::Obj`].
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        let Json::Obj(entries) = self else {
            panic!("Json::set on a non-object")
        };
        let value = value.into();
        if let Some(slot) = entries.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            entries.push((key.to_string(), value));
        }
        self
    }

    /// Builder-style [`Json::set`].
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.set(key, value);
        self
    }

    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an exact non-negative integer: a number that is finite,
    /// an integer, and within `u64` range. Protocol fields carrying counts
    /// (devices, batch, seeds below 2^53) go through this accessor.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Renders compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Renders with two-space indentation (for files meant to be read).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(entries) if !entries.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&"  ".repeat(indent + 1));
                    write_str(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/Infinity; observability values never need them, but
        // a defensive null beats an unparsable document.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.007_199_254_740_992e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        // Rust's shortest round-trip float formatting.
        out.push_str(&format!("{n}"));
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(f64::from(n))
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// A parse failure: message plus byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse_json`] accepts. The parser recurses
/// once per level, so an unbounded depth would let one line of `[`s overflow
/// the stack; every document this workspace writes nests a handful deep.
pub const MAX_JSON_DEPTH: usize = 128;

/// Parses one JSON document (rejecting trailing garbage).
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input, including arrays and objects
/// nested deeper than [`MAX_JSON_DEPTH`].
pub fn parse_json(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err("trailing characters after document", pos));
    }
    Ok(value)
}

fn err(message: &str, offset: usize) -> JsonError {
    JsonError {
        message: message.to_string(),
        offset,
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(err(&format!("expected `{}`", b as char), *pos))
    }
}

/// Parses the value at `pos`, which sits inside `depth` arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    if depth == MAX_JSON_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(err(
            &format!("nesting deeper than {MAX_JSON_DEPTH} levels"),
            *pos,
        ));
    }
    match bytes.get(*pos) {
        None => Err(err("unexpected end of input", *pos)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err("expected `,` or `]`", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                entries.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(entries));
                    }
                    _ => return Err(err("expected `,` or `}`", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(&format!("expected `{lit}`"), *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err("invalid utf-8", start))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(&format!("invalid number `{text}`"), start))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err("truncated \\u escape", *pos))?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| err("bad \\u escape", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err("bad \\u escape", *pos))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err("bad escape", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the unescaped run up to the next quote or backslash as
                // one slice: both delimiters are ASCII, so the run ends on a
                // char boundary and each byte is validated once.
                let start = *pos;
                let end = bytes[start..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |n| start + n);
                let run = std::str::from_utf8(&bytes[start..end])
                    .map_err(|_| err("invalid utf-8", start))?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_accessors_reject_other_variants() {
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::Num(1.0).as_bool(), None);
        assert_eq!(Json::Num(16.0).as_u64(), Some(16));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(0.5).as_u64(), None);
        assert_eq!(Json::Str("16".into()).as_u64(), None);
    }

    #[test]
    fn roundtrip_nested_document() {
        let mut doc = Json::obj();
        doc.set("name", "primepar")
            .set("n", 3usize)
            .set("pi", 3.5f64)
            .set("ok", true)
            .set("none", Json::Null)
            .set(
                "list",
                Json::Arr(vec![Json::Num(1.0), Json::Str("two".into())]),
            );
        let text = doc.render();
        assert_eq!(parse_json(&text).unwrap(), doc);
        let pretty = doc.render_pretty();
        assert_eq!(parse_json(&pretty).unwrap(), doc);
    }

    #[test]
    fn escapes_and_unicode_roundtrip() {
        let v = Json::Str("line\nquote\" back\\ tab\t control\u{1} ünïcode".into());
        assert_eq!(parse_json(&v.render()).unwrap(), v);
    }

    #[test]
    fn multibyte_runs_between_escapes_roundtrip() {
        // Unescaped runs are copied as whole slices: multi-byte scalars at a
        // run's start, end and next to every escape must survive intact.
        let text = "é\"ünï\\cødé\n日本語\t🦀\u{7}end€";
        let v = Json::Str(text.into());
        assert_eq!(parse_json(&v.render()).unwrap(), v);
        let doc = r#"{"k€y":"a\u00e9b\"😀\\","e":""}"#;
        let parsed = parse_json(doc).unwrap();
        assert_eq!(parsed.get("k€y").and_then(Json::as_str), Some("aéb\"😀\\"));
        assert_eq!(parsed.get("e").and_then(Json::as_str), Some(""));
        assert!(parse_json("\"abc").is_err(), "unterminated string");
    }

    #[test]
    fn float_shortest_form_roundtrips() {
        for n in [0.1, 1.0 / 3.0, 6.02e23, -1.5e-9, 12345678.25] {
            let v = Json::Num(n);
            let Json::Num(back) = parse_json(&v.render()).unwrap() else {
                panic!("not a number")
            };
            assert_eq!(back, n, "{n} failed to round-trip");
        }
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Json::Num(42.0).render(), "42");
        assert_eq!(Json::Num(-3.0).render(), "-3");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(parse_json(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse_json(&nested(MAX_JSON_DEPTH)).is_ok());
        let e = parse_json(&nested(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert_eq!(e.offset, MAX_JSON_DEPTH);
        assert!(e.message.contains("nesting"), "{e}");
        let objects = "{\"a\":".repeat(MAX_JSON_DEPTH + 1) + "1" + &"}".repeat(MAX_JSON_DEPTH + 1);
        assert!(parse_json(&objects).is_err());
        // Far past the limit the parser stops at the limit rather than
        // recursing until the stack overflows.
        assert!(parse_json(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn set_replaces_existing_keys() {
        let mut doc = Json::obj();
        doc.set("k", 1u64);
        doc.set("k", 2u64);
        assert_eq!(doc.get("k").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.as_object().unwrap().len(), 1);
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }
}
