//! Hand-rolled JSON: a value model, a writer, a strict RFC 8259 parser, and
//! the one schema layer every frame and artifact reader goes through.
//!
//! The build is offline (no serde), so observability output is produced and
//! validated through this module. Objects preserve insertion order so rendered
//! documents are stable and diffable; numbers are `f64` rendered via Rust's
//! shortest round-trip formatting.
//!
//! Every document the workspace writes starts from [`Json::tagged`], so its
//! first key is `schema_version`. Readers check the tag with
//! [`Json::check_schema`] and read fields with the typed accessors
//! [`Json::req`] and [`Json::opt`]; every failure is one [`SchemaError`].

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

    /// An object whose first key is `schema_version` = `schema`: the head of
    /// every document the workspace writes.
    pub fn tagged(schema: &str) -> Json {
        Json::obj().with("schema_version", schema)
    }

    /// Checks that this is an object tagged `schema_version` = `schema`.
    ///
    /// # Errors
    ///
    /// A [`SchemaError::Shape`] for a non-object, an absent tag (the message
    /// says `missing schema_version`) or another tag (the message names the
    /// expected one).
    pub fn check_schema(&self, schema: &str) -> Result<(), SchemaError> {
        let defect = match (self, self.get("schema_version")) {
            (Json::Obj(_), Some(Json::Str(tag))) if tag == schema => return Ok(()),
            (Json::Obj(_), None) => "is missing schema_version".to_string(),
            (Json::Obj(_), Some(tag)) => format!("has unsupported schema_version {tag}"),
            _ => "must be a JSON object tagged schema_version".to_string(),
        };
        Err(SchemaError::shape(
            "",
            format!("document {defect} (expected {schema})"),
        ))
    }

    /// Reads the required field `key` as a `T`.
    ///
    /// # Errors
    ///
    /// A [`SchemaError::Shape`] naming `key` when it is absent or not a `T`.
    pub fn req<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<T, SchemaError> {
        match self.get(key) {
            Some(value) => value.read().map_err(|e| e.at(key)),
            None => Err(SchemaError::shape(key, "is missing")),
        }
    }

    /// Reads the required array field `key`, each element through `item`;
    /// an element's error names its index (`key[i]`).
    ///
    /// # Errors
    ///
    /// The first [`SchemaError`] of the field or of an element.
    pub fn req_items<'a, T>(
        &'a self,
        key: &str,
        item: impl Fn(&'a Json) -> Result<T, SchemaError>,
    ) -> Result<Vec<T>, SchemaError> {
        self.req::<&[Json]>(key)?
            .iter()
            .enumerate()
            .map(|(i, value)| item(value).map_err(|e| e.at(&format!("{key}[{i}]"))))
            .collect()
    }

    /// Reads this value as a `T`.
    ///
    /// # Errors
    ///
    /// A [`SchemaError::Shape`] when it is not a `T`.
    pub fn read<'a, T: FromJson<'a>>(&'a self) -> Result<T, SchemaError> {
        T::from_json(self).ok_or_else(|| SchemaError::shape("", format!("must be {}", T::EXPECTED)))
    }

    /// Reads the optional field `key` as a `T`; `null` counts as absent.
    ///
    /// # Errors
    ///
    /// A [`SchemaError::Shape`] naming `key` when it is present but not a `T`.
    pub fn opt<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<Option<T>, SchemaError> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(value) => value.read().map(Some).map_err(|e| e.at(key)),
        }
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

    /// Builder-style [`Json::set`] of an optional field: `None` leaves the
    /// object as it is (the writer side of [`Json::opt`]).
    #[must_use]
    pub fn with_opt(self, key: &str, value: Option<impl Into<Json>>) -> Json {
        match value {
            Some(value) => self.with(key, value),
            None => self,
        }
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
    /// an integer, and below 2^64. Protocol fields carrying counts (devices,
    /// batch, seeds below 2^53) go through this accessor.
    pub fn as_u64(&self) -> Option<u64> {
        // `u64::MAX as f64` rounds up to 2^64, so the bound is spelled out.
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n < 18_446_744_073_709_551_616.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Renders compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Renders with two-space indentation (for files meant to be read).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Writes compact JSON, or pretty JSON at nesting level `indent`.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let inner = indent.map(|n| n + 1);
        // The separator and line break ahead of element `i`.
        let lead = |out: &mut String, i: usize| {
            if i > 0 {
                out.push(',');
            }
            if let Some(n) = inner {
                out.push('\n');
                out.push_str(&"  ".repeat(n));
            }
        };
        let (len, close) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => return write_num(*n, out),
            Json::Str(s) => return write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    lead(out, i);
                    item.write(out, inner);
                }
                (items.len(), ']')
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    lead(out, i);
                    write_str(k, out);
                    out.push_str(if inner.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                }
                (entries.len(), '}')
            }
        };
        if let Some(n) = indent.filter(|_| len > 0) {
            out.push('\n');
            out.push_str(&"  ".repeat(n));
        }
        out.push(close);
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

macro_rules! json_from {
    ($($t:ty => |$v:ident| $make:expr;)*) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $make
            }
        }
    )*};
}

json_from! {
    bool => |b| Json::Bool(b);
    f64 => |n| Json::Num(n);
    u64 => |n| Json::Num(n as f64);
    u32 => |n| Json::Num(f64::from(n));
    usize => |n| Json::Num(n as f64);
    i64 => |n| Json::Num(n as f64);
    &str => |s| Json::Str(s.to_string());
    String => |s| Json::Str(s);
    Vec<Json> => |items| Json::Arr(items);
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

/// Why a frame or artifact failed to read.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaError {
    /// The text is not valid JSON.
    Syntax(JsonError),
    /// The document parsed but has the wrong shape.
    Shape {
        /// Dotted path of the offending field (`entries[2].devices`); empty
        /// for the document itself.
        path: String,
        /// What is wrong with it.
        message: String,
    },
}

impl SchemaError {
    /// A shape error at `path`.
    pub fn shape(path: impl Into<String>, message: impl Into<String>) -> SchemaError {
        SchemaError::Shape {
            path: path.into(),
            message: message.into(),
        }
    }

    /// Re-roots a shape error found inside the field `parent`.
    #[must_use]
    pub fn at(self, parent: &str) -> SchemaError {
        match self {
            SchemaError::Shape { path, message } if path.is_empty() => {
                SchemaError::shape(parent, message)
            }
            SchemaError::Shape { path, message } => {
                SchemaError::shape(format!("{parent}.{path}"), message)
            }
            syntax => syntax,
        }
    }
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Syntax(e) => write!(f, "{e}"),
            SchemaError::Shape { path, message } if path.is_empty() => f.write_str(message),
            SchemaError::Shape { path, message } => write!(f, "field {path} {message}"),
        }
    }
}

impl std::error::Error for SchemaError {}

impl From<JsonError> for SchemaError {
    fn from(e: JsonError) -> SchemaError {
        SchemaError::Syntax(e)
    }
}

/// A type a field can be read as through [`Json::req`] and [`Json::opt`].
pub trait FromJson<'a>: Sized {
    /// What the field must hold, for error messages (`a string`).
    const EXPECTED: &'static str;
    /// The value as `Self`, or `None` for another variant or range.
    fn from_json(value: &'a Json) -> Option<Self>;
}

macro_rules! from_json {
    ($($t:ty => $expected:literal, |$v:ident| $read:expr;)*) => {$(
        impl<'a> FromJson<'a> for $t {
            const EXPECTED: &'static str = $expected;
            fn from_json($v: &'a Json) -> Option<Self> {
                $read
            }
        }
    )*};
}

from_json! {
    &'a Json => "a value", |v| Some(v);
    &'a str => "a string", |v| v.as_str();
    String => "a string", |v| v.as_str().map(str::to_string);
    bool => "a boolean", |v| v.as_bool();
    f64 => "a number", |v| v.as_f64();
    u64 => "a non-negative integer", |v| v.as_u64();
    u32 => "a non-negative integer", |v| v.as_u64().and_then(|n| n.try_into().ok());
    usize => "a non-negative integer", |v| v.as_u64().and_then(|n| n.try_into().ok());
    &'a [Json] => "an array", |v| v.as_array();
    &'a [(String, Json)] => "an object", |v| v.as_object();
}

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
        Some(&open @ (b'[' | b'{')) => {
            let close = if open == b'[' { b']' } else { b'}' };
            let (mut items, mut entries) = (Vec::new(), Vec::new());
            *pos += 1;
            skip_ws(bytes, pos);
            if bytes.get(*pos) != Some(&close) {
                loop {
                    if open == b'[' {
                        items.push(parse_value(bytes, pos, depth + 1)?);
                    } else {
                        skip_ws(bytes, pos);
                        let key = parse_string(bytes, pos)?;
                        skip_ws(bytes, pos);
                        expect(bytes, pos, b':')?;
                        entries.push((key, parse_value(bytes, pos, depth + 1)?));
                    }
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(&b) if b == close => break,
                        _ => {
                            return Err(err(&format!("expected `,` or `{}`", close as char), *pos))
                        }
                    }
                }
            }
            *pos += 1;
            Ok(if open == b'[' {
                Json::Arr(items)
            } else {
                Json::Obj(entries)
            })
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

/// Advances past a run of ASCII digits; returns its length.
fn skip_digits(bytes: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    *pos - start
}

/// Parses an RFC 8259 number: `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`,
/// rejecting literals that overflow to ±inf.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int = *pos;
    let int_len = skip_digits(bytes, pos);
    let mut ok = int_len == 1 || (int_len > 1 && bytes[int] != b'0');
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        ok &= skip_digits(bytes, pos) > 0;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        ok &= skip_digits(bytes, pos) > 0;
    }
    // Everything consumed is ASCII, so the slice is valid UTF-8.
    let text = std::str::from_utf8(&bytes[start..*pos]).unwrap_or_default();
    match text.parse::<f64>() {
        Ok(n) if ok && n.is_finite() => Ok(Json::Num(n)),
        Ok(_) if ok => Err(err(&format!("number `{text}` out of range"), start)),
        _ if text.is_empty() => Err(err("expected a value", start)),
        _ => Err(err(&format!("invalid number `{text}`"), start)),
    }
}

/// Reads the four hex digits of a `\u` escape at `at`.
fn hex4(bytes: &[u8], at: usize) -> Result<u32, JsonError> {
    match bytes.get(at..at + 4) {
        Some(hex) if hex.iter().all(u8::is_ascii_hexdigit) => Ok(hex.iter().fold(0, |code, &b| {
            code * 16 + char::from(b).to_digit(16).unwrap_or(0)
        })),
        _ => Err(err("bad \\u escape", at)),
    }
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
                        let lone = |at| err("lone surrogate in \\u escape", at);
                        let high = hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        // A high surrogate pairs with an escaped low one into
                        // one scalar beyond the BMP.
                        let code = match high {
                            0xD800..=0xDBFF
                                if bytes.get(*pos + 1..*pos + 3) == Some(&b"\\u"[..]) =>
                            {
                                let low = hex4(bytes, *pos + 3)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(lone(*pos));
                                }
                                *pos += 6;
                                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                            }
                            0xD800..=0xDFFF => return Err(lone(*pos)),
                            code => code,
                        };
                        out.push(char::from_u32(code).ok_or_else(|| lone(*pos))?);
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
        // 2^64 is out of range; the largest f64 below it is not.
        assert_eq!(Json::Num(18_446_744_073_709_551_616.0).as_u64(), None);
        assert_eq!(
            Json::Num(18_446_744_073_709_549_568.0).as_u64(),
            Some(18_446_744_073_709_549_568)
        );
    }

    #[test]
    fn tagged_documents_check_their_schema() {
        let doc = Json::tagged("x.v1").with("n", 1u64);
        assert_eq!(doc.as_object().unwrap()[0].0, "schema_version");
        assert_eq!(doc.check_schema("x.v1"), Ok(()));
        let wrong = doc.check_schema("x.v2").unwrap_err().to_string();
        assert!(wrong.contains("x.v2") && wrong.contains("x.v1"), "{wrong}");
        let untagged = Json::obj().check_schema("x.v1").unwrap_err().to_string();
        assert!(untagged.contains("missing schema_version"), "{untagged}");
        assert!(Json::Arr(vec![]).check_schema("x.v1").is_err());
        assert!(Json::obj()
            .with("schema_version", 1u64)
            .check_schema("x.v1")
            .is_err());
    }

    #[test]
    fn typed_fields_name_their_path() {
        let doc = parse_json(r#"{"n":3,"s":"a","z":null,"o":{"k":-1}}"#).unwrap();
        assert_eq!(doc.req::<u64>("n"), Ok(3));
        assert_eq!(doc.req::<&str>("s"), Ok("a"));
        assert_eq!(doc.opt::<u64>("z"), Ok(None), "null reads as absent");
        assert_eq!(doc.opt::<u64>("gone"), Ok(None));
        assert!(
            doc.req::<u64>("z").is_err(),
            "but a required null is no value"
        );
        assert_eq!(
            doc.req::<u64>("s").unwrap_err().to_string(),
            "field s must be a non-negative integer"
        );
        assert_eq!(
            doc.req::<String>("gone").unwrap_err().to_string(),
            "field gone is missing"
        );
        let inner: &Json = doc.req("o").unwrap();
        let e = inner.req::<u32>("k").unwrap_err().at("o");
        assert_eq!(e.to_string(), "field o.k must be a non-negative integer");
        assert!(matches!(
            SchemaError::from(parse_json("{").unwrap_err()),
            SchemaError::Syntax(_)
        ));
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
        // A surrogate pair decodes to the one scalar it encodes.
        let pair = parse_json(r#""\ud83d\ude00 \u00e9""#).unwrap();
        assert_eq!(pair.as_str(), Some("😀 é"));
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
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            // Numbers outside the RFC 8259 grammar, or overflowing to ±inf.
            "+1",
            ".5",
            "1.",
            "01",
            "-.5",
            "-",
            "1e",
            "1e400",
            "-1e400",
            // Lone or malformed surrogates and non-hex escapes.
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\ud83d\u0041""#,
            r#""\u+123""#,
        ] {
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
