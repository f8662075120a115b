//! A hand-rolled, dependency-free JSON tree.
//!
//! The offline vendor set has no serde, so campaign results are
//! serialised (and checked-in baselines parsed back) through this small
//! value model. Objects preserve insertion order, which is what makes
//! rendered reports byte-stable across runs.
//!
//! The tree also carries machine snapshots (`neomem_sim` checkpoint /
//! warm-start files), which is why it lives in `neomem_types`: every
//! simulated component serialises its state through [`Json`], and the
//! strict `req_*` accessors give snapshot loaders schema validation
//! with field-path error messages instead of panics.

use core::fmt;
use std::fmt::Write as _;

use crate::Error;

/// Shorthand for the strict-accessor result type; kept distinct from
/// the parser's `Result<_, JsonError>` signatures below.
type SnapResult<T> = core::result::Result<T, Error>;

/// A JSON value.
///
/// Numbers keep their original flavour (`U64`/`I64`/`F64`) so counter
/// values round-trip exactly rather than through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer (positive values parse as [`Json::U64`]).
    I64(i64),
    /// A floating-point number; non-finite values render as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key → value list.
    Obj(Vec<(String, Json)>),
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::U64(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::U64(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        if v >= 0 {
            Json::U64(v as u64)
        } else {
            Json::I64(v)
        }
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::F64(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K, V, I>(pairs: I) -> Json
    where
        K: Into<String>,
        V: Into<Json>,
        I: IntoIterator<Item = (K, V)>,
    {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v.into())).collect())
    }

    /// Builds an array from values.
    pub fn arr<V: Into<Json>, I: IntoIterator<Item = V>>(values: I) -> Json {
        Json::Arr(values.into_iter().map(Into::into).collect())
    }

    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64`, for any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation and a stable key
    /// order (insertion order) — the format used for checked-in
    /// baselines and CI artifacts.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let nl = |out: &mut String, d: usize| {
            if let Some(width) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', width * d));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    // `{:?}` is the shortest representation that
                    // round-trips, and keeps a `.0` on integral floats.
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    nl(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                nl(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    nl(out, depth + 1);
                    write_escaped(key, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                nl(out, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with a byte offset on malformed input,
    /// including trailing garbage after the top-level value and
    /// nesting deeper than [`MAX_PARSE_DEPTH`] (the recursive parser
    /// must report pathological inputs instead of overflowing the
    /// stack — baseline files come from the filesystem, i.e. users).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut parser = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.err("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

impl Json {
    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Strict lookup: the value under `key`, or an
    /// [`Error::Snapshot`] naming the missing field.
    ///
    /// # Errors
    ///
    /// Fails when `self` is not an object or lacks `key`.
    pub fn req(&self, key: &str) -> SnapResult<&Json> {
        match self {
            Json::Obj(_) => self
                .get(key)
                .ok_or_else(|| Error::snapshot(format!("missing field {key:?}"))),
            other => Err(Error::snapshot(format!(
                "expected object with field {key:?}, found {}",
                other.type_name()
            ))),
        }
    }

    /// Strict `u64` field accessor (see [`Json::req`]).
    ///
    /// # Errors
    ///
    /// Fails when the field is missing or not a non-negative integer.
    pub fn req_u64(&self, key: &str) -> SnapResult<u64> {
        self.req(key)?
            .as_u64()
            .ok_or_else(|| Error::snapshot(format!("field {key:?} is not a u64")))
    }

    /// Strict `bool` field accessor (see [`Json::req`]).
    ///
    /// # Errors
    ///
    /// Fails when the field is missing or not a boolean.
    pub fn req_bool(&self, key: &str) -> SnapResult<bool> {
        self.req(key)?
            .as_bool()
            .ok_or_else(|| Error::snapshot(format!("field {key:?} is not a bool")))
    }

    /// Strict string field accessor (see [`Json::req`]).
    ///
    /// # Errors
    ///
    /// Fails when the field is missing or not a string.
    pub fn req_str(&self, key: &str) -> SnapResult<&str> {
        self.req(key)?
            .as_str()
            .ok_or_else(|| Error::snapshot(format!("field {key:?} is not a string")))
    }

    /// Strict array field accessor (see [`Json::req`]).
    ///
    /// # Errors
    ///
    /// Fails when the field is missing or not an array.
    pub fn req_arr(&self, key: &str) -> SnapResult<&[Json]> {
        self.req(key)?
            .as_arr()
            .ok_or_else(|| Error::snapshot(format!("field {key:?} is not an array")))
    }

    /// Strict hex-packed `u64` vector accessor: the field must be a
    /// string produced by [`hex_from_u64s`].
    ///
    /// # Errors
    ///
    /// Fails when the field is missing, not a string, or not a valid
    /// multiple-of-16 hex digit sequence.
    pub fn req_u64s(&self, key: &str) -> SnapResult<Vec<u64>> {
        u64s_from_hex(self.req_str(key)?)
            .map_err(|e| Error::snapshot(format!("field {key:?}: {e}")))
    }

    /// Strict hex-packed `u16` vector accessor (see [`hex_from_u16s`]).
    ///
    /// # Errors
    ///
    /// Fails when the field is missing, not a string, or not a valid
    /// multiple-of-4 hex digit sequence.
    pub fn req_u16s(&self, key: &str) -> SnapResult<Vec<u16>> {
        u16s_from_hex(self.req_str(key)?)
            .map_err(|e| Error::snapshot(format!("field {key:?}: {e}")))
    }

    /// The variant name, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::U64(_) | Json::I64(_) => "integer",
            Json::F64(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// The path of the first non-finite [`Json::F64`] anywhere in the
    /// tree, or `None` when every float is finite. Non-finite floats
    /// render as `null`, silently vanishing from result documents —
    /// callers that persist figures use this to fail loudly instead.
    pub fn find_non_finite(&self) -> Option<String> {
        fn walk(v: &Json, path: &str) -> Option<String> {
            match v {
                Json::F64(f) if !f.is_finite() => Some(path.to_string()),
                Json::Arr(items) => items
                    .iter()
                    .enumerate()
                    .find_map(|(i, item)| walk(item, &format!("{path}[{i}]"))),
                Json::Obj(pairs) => pairs.iter().find_map(|(k, item)| {
                    let sub = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                    walk(item, &sub)
                }),
                _ => None,
            }
        }
        walk(self, "")
    }
}

/// Packs `u64` words into a lowercase hex string, 16 digits per word —
/// the compact encoding snapshots use for bulk state (page tables,
/// sketch counters, cache tag arrays) where a JSON array per element
/// would bloat files by an order of magnitude.
pub fn hex_from_u64s(words: &[u64]) -> String {
    let mut out = String::with_capacity(words.len() * 16);
    for w in words {
        let _ = write!(out, "{w:016x}");
    }
    out
}

/// Unpacks a [`hex_from_u64s`] string.
///
/// # Errors
///
/// Returns a message when the length is not a multiple of 16 or any
/// digit is not hex.
pub fn u64s_from_hex(s: &str) -> core::result::Result<Vec<u64>, String> {
    if !s.len().is_multiple_of(16) {
        return Err(format!("hex length {} is not a multiple of 16", s.len()));
    }
    s.as_bytes()
        .chunks(16)
        .map(|chunk| {
            let text = core::str::from_utf8(chunk).map_err(|_| "non-ASCII hex".to_string())?;
            u64::from_str_radix(text, 16).map_err(|_| format!("invalid hex word {text:?}"))
        })
        .collect()
}

/// Packs `u16` values into a lowercase hex string, 4 digits per value.
pub fn hex_from_u16s(values: &[u16]) -> String {
    let mut out = String::with_capacity(values.len() * 4);
    for v in values {
        let _ = write!(out, "{v:04x}");
    }
    out
}

/// Unpacks a [`hex_from_u16s`] string.
///
/// # Errors
///
/// Returns a message when the length is not a multiple of 4 or any
/// digit is not hex.
pub fn u16s_from_hex(s: &str) -> core::result::Result<Vec<u16>, String> {
    if !s.len().is_multiple_of(4) {
        return Err(format!("hex length {} is not a multiple of 4", s.len()));
    }
    s.as_bytes()
        .chunks(4)
        .map(|chunk| {
            let text = core::str::from_utf8(chunk).map_err(|_| "non-ASCII hex".to_string())?;
            u16::from_str_radix(text, 16).map_err(|_| format!("invalid hex word {text:?}"))
        })
        .collect()
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with its byte offset in the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting [`Json::parse`] accepts. Result documents
/// nest a handful of levels; 128 leaves two orders of magnitude of
/// headroom while keeping the recursive parser a safe distance from
/// stack exhaustion on hostile input.
pub const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError { pos: self.pos, msg: msg.to_string() }
    }

    /// Guards one level of container recursion.
    fn descend(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(self.err("nesting deeper than MAX_PARSE_DEPTH"));
        }
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected literal {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.descend()?;
        self.expect(b'[')?;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.descend()?;
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            // Last-wins would silently drop data from hand-edited
            // baselines and snapshots; refuse duplicates by name.
            if pairs.iter().any(|(existing, _)| *existing == key) {
                return Err(JsonError {
                    pos: self.pos,
                    msg: format!("duplicate object key \"{key}\""),
                });
            }
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(byte) if byte < 0x80 => {
                    out.push(byte as char);
                    self.pos += 1;
                }
                Some(byte) => {
                    // Copy one multi-byte UTF-8 scalar. The input is a
                    // &str, so boundaries are valid; decode only this
                    // scalar's bytes (validating the whole tail per
                    // character would make parsing quadratic).
                    let len = match byte {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (self.pos + len).min(self.bytes.len());
                    let s = core::str::from_utf8(&self.bytes[self.pos..end])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Parses the four hex digits after `\u`, combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: a `\uXXXX` low surrogate must follow.
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("unpaired high surrogate"));
        }
        if (0xDC00..0xE000).contains(&hi) {
            return Err(self.err("unpaired low surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a') as u32 + 10,
                Some(c @ b'A'..=b'F') => (c - b'A') as u32 + 10,
                _ => return Err(self.err("expected four hex digits")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = core::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII");
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>().map(Json::F64).map_err(|_| JsonError {
            pos: start,
            msg: format!("invalid number {text:?}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::U64(18_446_744_073_709_551_615).render(), "18446744073709551615");
        assert_eq!(Json::I64(-42).render(), "-42");
        assert_eq!(Json::F64(1.0).render(), "1.0");
        assert_eq!(Json::F64(0.1).render(), "0.1");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null");
    }

    #[test]
    fn escapes_strings() {
        let s = Json::Str("a\"b\\c\nd\te\u{01}f".into());
        assert_eq!(s.render(), "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
        // Non-ASCII passes through as UTF-8.
        assert_eq!(Json::Str("θ=8 → π".into()).render(), "\"θ=8 → π\"");
    }

    #[test]
    fn object_preserves_insertion_order() {
        let o = Json::obj([("z", 1u64), ("a", 2u64), ("m", 3u64)]);
        assert_eq!(o.render(), r#"{"z":1,"a":2,"m":3}"#);
    }

    #[test]
    fn round_trips_documents() {
        let doc = Json::obj([
            ("name", Json::from("fig11")),
            ("ok", Json::Bool(true)),
            ("nothing", Json::Null),
            ("count", Json::U64(u64::MAX)),
            ("delta", Json::I64(-7)),
            ("ratio", Json::F64(1.375)),
            ("tags", Json::arr(["a\"b", "θ"])),
            ("nested", Json::obj([("x", Json::arr([1u64, 2, 3]))])),
        ]);
        for rendered in [doc.render(), doc.render_pretty()] {
            let parsed = Json::parse(&rendered).expect("round trip parses");
            assert_eq!(parsed, doc, "mismatch for {rendered}");
        }
    }

    #[test]
    fn render_is_idempotent_through_parse() {
        let text = r#"{"a":[1,-2,3.5,"xA",true,null],"b":{"c":0.25}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(Json::parse(&v.render()).unwrap().render(), v.render());
    }

    #[test]
    fn parses_unicode_escapes_and_surrogates() {
        assert_eq!(Json::parse(r#""A""#).unwrap(), Json::Str("A".into()));
        // 😀 U+1F600 as a surrogate pair.
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\ude00""#).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\"}", "tru", "1 2", "\"abc", "{\"a\":}", "[1 2]"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn duplicate_object_keys_are_rejected_by_name() {
        let err = Json::parse(r#"{"a":1,"b":2,"a":3}"#).expect_err("must reject duplicate");
        assert!(err.msg.contains("duplicate object key \"a\""), "{err}");
        // Nested objects are checked too, and distinct keys still parse.
        assert!(Json::parse(r#"{"o":{"x":1,"x":2}}"#).is_err());
        assert!(Json::parse(r#"{"a":1,"b":{"a":2}}"#).is_ok());
    }

    #[test]
    fn depth_limit_rejects_pathological_nesting_without_overflow() {
        // Just inside the limit parses; past it errors (instead of
        // blowing the stack on hostile input).
        let deep_ok = format!("{}0{}", "[".repeat(127), "]".repeat(127));
        assert!(Json::parse(&deep_ok).is_ok());
        let too_deep = format!("{}0{}", "[".repeat(1_000_000), "]".repeat(1_000_000));
        let err = Json::parse(&too_deep).expect_err("must reject");
        assert!(err.msg.contains("nesting"), "{err}");
        let mixed = format!("{}1{}", "[{\"k\":".repeat(500_000), "}]".repeat(500_000));
        assert!(Json::parse(&mixed).is_err());
    }

    #[test]
    fn number_flavours_survive_parsing() {
        assert_eq!(Json::parse("12").unwrap(), Json::U64(12));
        assert_eq!(Json::parse("-12").unwrap(), Json::I64(-12));
        assert_eq!(Json::parse("12.5").unwrap(), Json::F64(12.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::F64(1000.0));
        assert_eq!(Json::parse("18446744073709551615").unwrap(), Json::U64(u64::MAX));
    }

    #[test]
    fn accessors() {
        let doc = Json::parse(r#"{"cells":[{"runtime_ns":42}],"name":"g"}"#).unwrap();
        assert_eq!(doc.get("name").and_then(Json::as_str), Some("g"));
        let cells = doc.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells[0].get("runtime_ns").and_then(Json::as_u64), Some(42));
        assert_eq!(cells[0].get("runtime_ns").and_then(Json::as_f64), Some(42.0));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn pretty_rendering_is_parseable_and_indented() {
        let doc = Json::obj([("a", Json::arr([1u64])), ("b", Json::obj::<&str, Json, _>([]))]);
        let pretty = doc.render_pretty();
        assert!(pretty.contains("\n  \"a\": ["));
        assert!(pretty.ends_with('\n'));
        assert_eq!(Json::parse(&pretty).unwrap(), doc);
    }

    #[test]
    fn strict_accessors_name_the_field() {
        let doc = Json::obj([
            ("n", Json::U64(7)),
            ("s", Json::from("x")),
            ("b", Json::Bool(true)),
            ("a", Json::arr([1u64])),
        ]);
        assert_eq!(doc.req_u64("n").unwrap(), 7);
        assert_eq!(doc.req_str("s").unwrap(), "x");
        assert!(doc.req_bool("b").unwrap());
        assert_eq!(doc.req_arr("a").unwrap().len(), 1);
        let err = doc.req_u64("missing").unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
        let err = doc.req_u64("s").unwrap_err();
        assert!(err.to_string().contains("\"s\""), "{err}");
        // Non-objects fail req with a type name, not a panic.
        assert!(Json::U64(1).req("k").is_err());
    }

    #[test]
    fn hex_packing_round_trips() {
        let words = vec![0u64, 1, u64::MAX, 0xDEAD_BEEF];
        let hex = hex_from_u64s(&words);
        assert_eq!(hex.len(), 64);
        assert_eq!(u64s_from_hex(&hex).unwrap(), words);
        assert!(u64s_from_hex("123").is_err());
        assert!(u64s_from_hex("zzzzzzzzzzzzzzzz").is_err());

        let values = vec![0u16, 7, u16::MAX];
        let hex = hex_from_u16s(&values);
        assert_eq!(u16s_from_hex(&hex).unwrap(), values);
        assert!(u16s_from_hex("12345").is_err());

        let doc = Json::obj([
            ("w", Json::Str(hex_from_u64s(&words))),
            ("v", Json::Str(hex_from_u16s(&values))),
        ]);
        assert_eq!(doc.req_u64s("w").unwrap(), words);
        assert_eq!(doc.req_u16s("v").unwrap(), values);
    }

    #[test]
    fn non_finite_finder_reports_the_path() {
        let clean = Json::obj([("a", Json::arr([Json::F64(1.0)]))]);
        assert_eq!(clean.find_non_finite(), None);
        let dirty = Json::obj([
            ("ok", Json::F64(2.0)),
            ("grids", Json::arr([Json::obj([("drift", Json::F64(f64::NAN))])])),
        ]);
        assert_eq!(dirty.find_non_finite().as_deref(), Some("grids[0].drift"));
        assert_eq!(Json::F64(f64::INFINITY).find_non_finite().as_deref(), Some(""));
    }

    #[test]
    fn non_finite_finder_descends_nested_arrays() {
        // Array-of-array payloads (figure series of rows) must be
        // walked all the way down — a NaN in an inner array renders as
        // `null` just as silently as a top-level one.
        let doc = Json::obj([(
            "series",
            Json::arr([
                Json::arr([Json::F64(1.0), Json::F64(2.0)]),
                Json::arr([Json::F64(3.0), Json::F64(f64::NAN)]),
            ]),
        )]);
        assert_eq!(doc.find_non_finite().as_deref(), Some("series[1][1]"));
        // Negative infinity hides as deep as NaN does, and the path
        // stays index-accurate through bare (un-keyed) nesting.
        let neg = Json::arr([Json::arr([Json::arr([
            Json::Null,
            Json::F64(f64::NEG_INFINITY),
        ])])]);
        assert_eq!(neg.find_non_finite().as_deref(), Some("[0][0][1]"));
        // Finite floats beside integers and strings stay clean.
        let clean = Json::arr([Json::arr([Json::F64(0.5), Json::U64(7), Json::from("x")])]);
        assert_eq!(clean.find_non_finite(), None);
    }
}
