//! A minimal JSON value, writer and parser, plus the derive-free [`ToJson`]
//! trait.
//!
//! This replaces `serde`/`serde_json` for experiment and report output and
//! for the `sentineld` wire protocol. The surface is deliberately small:
//! a [`Json`] tree, escaping-correct compact/pretty writers, a strict
//! recursive-descent parser, and [`ToJson`] implemented by hand (or via
//! [`impl_to_json!`](crate::impl_to_json)) instead of a derive macro.
//!
//! The parser is safe on untrusted input: [`Json::parse_bytes`] validates
//! UTF-8 in one pass and enforces a configurable maximum input size (both
//! reported as typed [`JsonErrorKind`]s), and nesting past [`MAX_DEPTH`]
//! is rejected. It then parses the validated text, copying each string as
//! the runs between its escapes, and accepts only RFC 8259 grammar.
//! Both output forms come from one *iterative* walker (a heap stack with
//! one entry per open container, no recursion), so a programmatically
//! built tree of any depth serializes without risking the thread stack —
//! the parser-side depth limit remains the only bound, pinned by
//! `tests/json_props.rs` in both directions.
//!
//! Numbers are normalized so writing and re-parsing a tree yields an equal
//! tree: non-negative integers are always `U64`, negative integers `I64`,
//! and non-finite floats serialize as `null` (as `serde_json` does).

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Negative integers only; non-negative integers normalize to [`Json::U64`].
    I64(i64),
    U64(u64),
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered object members.
    Obj(Vec<(String, Json)>),
}

/// What went wrong while parsing, beyond the human-readable message.
/// Network-facing callers (the `sentineld` codec) branch on this to pick a
/// typed wire error code instead of string-matching `message`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// Malformed JSON text (the default for grammar violations).
    Syntax,
    /// The input is not valid UTF-8 (only reachable through
    /// [`Json::parse_bytes`]; `&str` input is valid by construction).
    InvalidUtf8,
    /// The input exceeds the caller's maximum size
    /// ([`Json::parse_bytes_limited`]). `offset` carries the limit.
    TooLarge,
    /// Nesting exceeds [`MAX_DEPTH`].
    TooDeep,
}

/// Parse error: byte offset, message, and a typed [`JsonErrorKind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
    pub kind: JsonErrorKind,
}

impl fmt::Display for Json {
    /// Compact serialization: `to_string()` gives the compact text, and
    /// values drop into `format!`/`println!` — the wire layer and CLI
    /// clients print frames this way.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_compact(&mut out);
        f.write_str(&out)
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build an array from values.
    pub fn arr<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// A signed integer, normalized (`>= 0` becomes `U64`).
    #[must_use]
    pub fn int(v: i64) -> Json {
        if v >= 0 {
            Json::U64(v as u64)
        } else {
            Json::I64(v)
        }
    }

    /// Look up an object member by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Append the compact serialization (the text `to_string()` gives) to
    /// `out`, so a caller that sends it builds it in its own buffer once.
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, false);
    }

    /// Pretty serialization with two-space indentation and a trailing newline.
    #[must_use]
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, true);
        out.push('\n');
        out
    }

    /// Emit a scalar (anything but a non-empty container).
    fn write_scalar(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::I64(v) => push_fmt(out, format_args!("{v}")),
            Json::U64(v) => push_fmt(out, format_args!("{v}")),
            Json::F64(v) => write_f64(*v, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(_) => out.push_str("[]"),
            Json::Obj(_) => out.push_str("{}"),
        }
    }

    /// The one serializer behind both output forms. It walks the tree with
    /// a heap stack holding one iterator per open container instead of
    /// recursing, so serialization depth is bounded by the heap, not the
    /// thread stack. The parser enforces [`MAX_DEPTH`]; a programmatically
    /// built tree has no such bound and must still serialize safely.
    /// `pretty` puts each element on its own line, indented two spaces per
    /// level; empty containers stay compact in both forms.
    fn write(&self, out: &mut String, pretty: bool) {
        enum Open<'a> {
            Arr(std::slice::Iter<'a, Json>),
            Obj(std::slice::Iter<'a, (String, Json)>),
        }
        let mut stack = Vec::new();
        let mut value = self;
        loop {
            let mut first = match value {
                Json::Arr(items) if !items.is_empty() => {
                    out.push('[');
                    stack.push(Open::Arr(items.iter()));
                    true
                }
                Json::Obj(members) if !members.is_empty() => {
                    out.push('{');
                    stack.push(Open::Obj(members.iter()));
                    true
                }
                scalar => {
                    scalar.write_scalar(out);
                    false
                }
            };
            // Step to the next element, closing each container it leaves.
            value = loop {
                let depth = stack.len();
                let (next, close) = match stack.last_mut() {
                    None => return,
                    Some(Open::Arr(items)) => (items.next().map(|v| (None, v)), ']'),
                    Some(Open::Obj(members)) => (members.next().map(|(k, v)| (Some(k), v)), '}'),
                };
                let Some((key, next)) = next else {
                    stack.pop();
                    if pretty {
                        out.push('\n');
                        indent(out, depth - 1);
                    }
                    out.push(close);
                    first = false;
                    continue;
                };
                if !first {
                    out.push(',');
                }
                if pretty {
                    out.push('\n');
                    indent(out, depth);
                }
                if let Some(key) = key {
                    write_escaped(key, out);
                    out.push_str(if pretty { ": " } else { ":" });
                }
                break next;
            };
        }
    }

    /// Strict parse of a complete JSON document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(value)
    }

    /// Strict parse of a complete JSON document from raw bytes, as read off
    /// a socket: the input is validated as UTF-8 in one pass up front, with
    /// a typed error ([`JsonErrorKind::InvalidUtf8`]) instead of a panic,
    /// and the parser then reads only the validated text, so no malformed
    /// sequence reaches it.
    ///
    /// # Errors
    ///
    /// [`JsonErrorKind::InvalidUtf8`] with the offset of the first invalid
    /// byte, or any [`Json::parse`] error.
    pub fn parse_bytes(bytes: &[u8]) -> Result<Json, JsonError> {
        let text = std::str::from_utf8(bytes).map_err(|e| JsonError {
            offset: e.valid_up_to(),
            message: format!("invalid utf-8 at byte {}", e.valid_up_to()),
            kind: JsonErrorKind::InvalidUtf8,
        })?;
        Json::parse(text)
    }

    /// [`Json::parse_bytes`] with a maximum input size — the network-facing
    /// entry point. Inputs longer than `max_bytes` are rejected *before*
    /// any validation work with a typed [`JsonErrorKind::TooLarge`] error
    /// (offset = `max_bytes`), so a hostile peer cannot make the parser
    /// chew through an arbitrarily large payload.
    ///
    /// # Errors
    ///
    /// [`JsonErrorKind::TooLarge`] when `bytes.len() > max_bytes`, plus
    /// every [`Json::parse_bytes`] error.
    pub fn parse_bytes_limited(bytes: &[u8], max_bytes: usize) -> Result<Json, JsonError> {
        if bytes.len() > max_bytes {
            return Err(JsonError {
                offset: max_bytes,
                message: format!(
                    "input of {} bytes exceeds the {max_bytes}-byte limit",
                    bytes.len()
                ),
                kind: JsonErrorKind::TooLarge,
            });
        }
        Json::parse_bytes(bytes)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Append formatted text in place, without a temporary `String`.
fn push_fmt(out: &mut String, args: fmt::Arguments<'_>) {
    fmt::Write::write_fmt(out, args).expect("writing to a String cannot fail");
}

fn write_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        let start = out.len();
        push_fmt(out, format_args!("{v}"));
        // Keep floats distinguishable from integers on re-parse.
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

/// Write `s` as a JSON string: the text between two escaped bytes is
/// copied in one piece. Only ASCII bytes are escaped, so every cut falls
/// on a character boundary.
fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    let mut rest = s;
    while let Some(i) = rest.bytes().position(|b| matches!(b, b'"' | b'\\' | 0x00..=0x1F)) {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            b => push_fmt(out, format_args!("\\u{b:04x}")),
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// Maximum nesting depth the parser accepts.
pub const MAX_DEPTH: usize = 128;

/// Recursive-descent parser over validated text. Every position it stops
/// at to slice is on an ASCII byte or at the end, hence a character
/// boundary.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        self.err_kind(message, JsonErrorKind::Syntax)
    }

    fn err_kind(&self, message: &str, kind: JsonErrorKind) -> JsonError {
        JsonError { offset: self.pos, message: message.to_owned(), kind }
    }

    fn rest(&self) -> &'a [u8] {
        &self.text.as_bytes()[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.rest().first().copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
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
        if self.rest().starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{text}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err_kind("nesting too deep", JsonErrorKind::TooDeep));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
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
            items.push(self.value(depth + 1)?);
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
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // The run up to the next quote, backslash or control byte.
            let start = self.pos;
            let len = self.rest().iter().position(|&b| matches!(b, b'"' | b'\\' | 0x00..=0x1F));
            self.pos = len.map_or(self.text.len(), |len| start + len);
            let run = &self.text[start..self.pos];
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    // A string without escapes is one exact-size copy.
                    return Ok(if out.is_empty() { run.to_owned() } else { out + run });
                }
                Some(b'\\') => {
                    out.push_str(run);
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue; // past the hex digits already
                        }
                        _ => return Err(self.err("invalid escape")),
                    };
                    out.push(c);
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// The character of a `\u` escape whose `\u` is already consumed,
    /// joining a surrogate pair for astral-plane characters.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let cp = self.hex4()?;
        let c = if (0xD800..0xDC00).contains(&cp) {
            if self.rest().starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00))
            } else {
                None
            }
        } else {
            char::from_u32(cp)
        };
        c.ok_or_else(|| self.err("invalid \\u escape"))
    }

    /// Exactly four hex digits; a sign or any other byte is rejected at
    /// the start of the four.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self.rest().get(..4).ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut cp = 0;
        for &d in digits {
            let v = char::from(d).to_digit(16).ok_or_else(|| self.err("invalid \\u escape"))?;
            cp = cp << 4 | v;
        }
        self.pos += 4;
        Ok(cp)
    }

    /// One or more ASCII digits.
    fn digits(&mut self) -> Result<(), JsonError> {
        let len = self.rest().iter().take_while(|b| b.is_ascii_digit()).count();
        if len == 0 {
            return Err(self.err("invalid number"));
        }
        self.pos += len;
        Ok(())
    }

    /// A number in RFC 8259 §6 grammar: no leading zero, and a digit after
    /// `-`, after `.` and in the exponent; the error points at the first
    /// byte that breaks it.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("invalid number"));
            }
        } else {
            self.digits()?;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = &self.text[start..self.pos];
        if is_float {
            text.parse::<f64>().map(Json::F64).map_err(|_| self.err("invalid number"))
        } else if text.starts_with('-') {
            text.parse::<i64>().map(Json::int).map_err(|_| self.err("integer out of range"))
        } else {
            text.parse::<u64>().map(Json::U64).map_err(|_| self.err("integer out of range"))
        }
    }
}

/// Conversion into a [`Json`] tree; the workspace's derive-free replacement
/// for `serde::Serialize`. Implement it by hand for enums, or with
/// [`impl_to_json!`](crate::impl_to_json) for structs with named fields.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::F64(f64::from(*self))
    }
}

macro_rules! to_json_unsigned {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::U64(u64::from(*self))
            }
        }
    )+};
}
to_json_unsigned!(u8, u16, u32, u64);

macro_rules! to_json_signed {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::int(i64::from(*self))
            }
        }
    )+};
}
to_json_signed!(i8, i16, i32, i64);

impl ToJson for i128 {
    fn to_json(&self) -> Json {
        // Keep exact integers where JSON can; fall back to f64 beyond i64.
        match i64::try_from(*self) {
            Ok(v) => Json::int(v),
            Err(_) => Json::F64(*self as f64),
        }
    }
}

impl ToJson for u128 {
    fn to_json(&self) -> Json {
        match u64::try_from(*self) {
            Ok(v) => Json::U64(v),
            Err(_) => Json::F64(*self as f64),
        }
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::U64(*self as u64)
    }
}

impl ToJson for isize {
    fn to_json(&self) -> Json {
        Json::int(*self as i64)
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<K: AsRef<str>, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.as_ref().to_owned(), v.to_json())).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

/// Implement [`ToJson`] for a struct with named fields, mapping each listed
/// field to an object member of the same name:
///
/// ```
/// use sentinel_util::{impl_to_json, Json, ToJson};
///
/// struct Row { model: String, bytes: u64 }
/// impl_to_json!(Row { model, bytes });
///
/// let j = Row { model: "resnet".into(), bytes: 42 }.to_json();
/// assert_eq!(j.get("bytes"), Some(&Json::U64(42)));
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::obj([
                    $((stringify!($field), $crate::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_specials_and_controls() {
        let s = Json::Str("a\"b\\c\nd\te\u{1}\u{8}\u{c}λ€".into()).to_string();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\\b\\fλ€\"");
    }

    #[test]
    fn compact_writer_shape() {
        let j = Json::obj([
            ("a", Json::U64(1)),
            ("b", Json::arr([Json::Bool(true), Json::Null, Json::F64(1.5)])),
        ]);
        assert_eq!(j.to_string(), r#"{"a":1,"b":[true,null,1.5]}"#);
    }

    #[test]
    fn floats_stay_floats() {
        assert_eq!(Json::F64(2.0).to_string(), "2.0");
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn integer_normalization() {
        assert_eq!(Json::int(5), Json::U64(5));
        assert_eq!(Json::int(-5), Json::I64(-5));
        assert_eq!((-3i32).to_json(), Json::I64(-3));
        assert_eq!(3i32.to_json(), Json::U64(3));
    }

    /// Every rejection's `(kind, offset, message)`. Apart from the rows
    /// marked RFC 8259, each row is what the parser has always reported.
    #[test]
    fn parse_rejects_garbage() {
        use JsonErrorKind::{InvalidUtf8, Syntax, TooDeep};
        let deep = format!("{}1{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let cases: &[(&[u8], JsonErrorKind, usize, &str)] = &[
            (b"", Syntax, 0, "expected a value"),
            (b"{", Syntax, 1, "expected '\"'"),
            (b"[1,", Syntax, 3, "expected a value"),
            (b"tru", Syntax, 0, "expected 'true'"),
            (b"nul", Syntax, 0, "expected 'null'"),
            (b"{'a':1}", Syntax, 1, "expected '\"'"),
            (b"\"ab", Syntax, 3, "unterminated string"),
            (b"\"a\x01b\"", Syntax, 2, "control character in string"),
            (b"\"\\x\"", Syntax, 2, "invalid escape"),
            (b"\"\\u12\"", Syntax, 3, "truncated \\u escape"),
            (b"\"\\u00G1\"", Syntax, 3, "invalid \\u escape"),
            (b"\"\\uD800\"", Syntax, 7, "invalid \\u escape"),
            (b"\"\\uDC00\"", Syntax, 7, "invalid \\u escape"),
            (b"\"\\uD800\\u0041\"", Syntax, 13, "invalid low surrogate"),
            (b"{\"a\" 1}", Syntax, 5, "expected ':'"),
            (b"[1 2]", Syntax, 3, "expected ',' or ']'"),
            (b"[1", Syntax, 2, "expected ',' or ']'"),
            (b"{\"a\":1 \"b\"}", Syntax, 7, "expected ',' or '}'"),
            (b"{\"a\":1", Syntax, 6, "expected ',' or '}'"),
            (b"1 2", Syntax, 2, "trailing characters after value"),
            (b"18446744073709551616", Syntax, 20, "integer out of range"),
            (b"-9223372036854775809", Syntax, 20, "integer out of range"),
            (b"1e", Syntax, 2, "invalid number"),
            (b"1e+", Syntax, 3, "invalid number"),
            (deep.as_bytes(), TooDeep, MAX_DEPTH + 1, "nesting too deep"),
            (b"\"a\xFFb\"", InvalidUtf8, 2, "invalid utf-8 at byte 2"),
            // RFC 8259: `\u` takes exactly four hex digits (no sign) ...
            (b"\"\\u+041\"", Syntax, 3, "invalid \\u escape"),
            // ... and a number has no leading zero and a digit after `-`,
            // after `.` and in the exponent.
            (b"01", Syntax, 1, "invalid number"),
            (b"-01", Syntax, 2, "invalid number"),
            (b"1.", Syntax, 2, "invalid number"),
            (b"-.5", Syntax, 1, "invalid number"),
            (b"1.e5", Syntax, 2, "invalid number"),
            (b"-", Syntax, 1, "invalid number"),
            (b"[-]", Syntax, 2, "invalid number"),
        ];
        for &(input, kind, offset, message) in cases {
            let got = Json::parse_bytes(input).unwrap_err();
            let want = JsonError { offset, message: message.to_owned(), kind };
            assert_eq!(got, want, "input {:?}", String::from_utf8_lossy(input));
        }
        let e = Json::parse_bytes_limited(b"[1,2,3,4,5]", 4).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TooLarge);
        assert_eq!(
            (e.offset, e.message.as_str()),
            (4, "input of 11 bytes exceeds the 4-byte limit")
        );
    }

    /// RFC numbers at the grammar's edges still parse.
    #[test]
    fn rfc_numbers_parse() {
        for (text, want) in [
            ("0", Json::U64(0)),
            ("-0", Json::U64(0)),
            ("10", Json::U64(10)),
            ("-7", Json::I64(-7)),
            ("0.5", Json::F64(0.5)),
            ("-0.0", Json::F64(-0.0)),
            ("1E+2", Json::F64(100.0)),
            ("2e-1", Json::F64(0.2)),
            ("0e0", Json::F64(0.0)),
        ] {
            assert_eq!(Json::parse(text).unwrap(), want, "{text}");
        }
    }

    #[test]
    fn parse_surrogate_pair() {
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
    }

    #[test]
    fn nested_values_round_trip_through_text() {
        let j = Json::obj([
            ("name", Json::Str("quote \" slash \\ newline \n tab \t λ€😀".into())),
            ("count", Json::U64(u64::MAX)),
            ("delta", Json::I64(i64::MIN)),
            ("ratio", Json::F64(0.125)),
            ("flags", Json::arr([Json::Bool(true), Json::Bool(false), Json::Null])),
            (
                "nested",
                Json::obj([
                    ("empty_arr", Json::arr([])),
                    ("empty_obj", Json::Obj(Vec::new())),
                    ("deep", Json::arr([Json::arr([Json::obj([("k", Json::U64(7))])])])),
                ]),
            ),
        ]);
        for text in [j.to_string(), j.to_pretty_string()] {
            assert_eq!(Json::parse(&text).unwrap(), j, "round-trip failed for {text}");
        }
    }

    #[test]
    fn get_finds_members() {
        let j = Json::obj([("x", Json::U64(1))]);
        assert_eq!(j.get("x"), Some(&Json::U64(1)));
        assert_eq!(j.get("y"), None);
    }

    #[test]
    fn parse_bytes_round_trips_valid_input() {
        let j = Json::obj([("λ", Json::Str("€😀".into())), ("n", Json::U64(7))]);
        let text = j.to_string();
        assert_eq!(Json::parse_bytes(text.as_bytes()).unwrap(), j);
    }

    #[test]
    fn parse_bytes_rejects_invalid_utf8_with_typed_error() {
        // 0xFF can never appear in UTF-8.
        let e = Json::parse_bytes(b"\"a\xFFb\"").unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::InvalidUtf8);
        assert_eq!(e.offset, 2);
        // Truncated multi-byte sequence at end of input.
        let e = Json::parse_bytes(b"\"\xE2\x82\"").unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::InvalidUtf8);
    }

    #[test]
    fn parse_bytes_limit_is_enforced_before_parsing() {
        let e = Json::parse_bytes_limited(b"[1,2,3,4,5]", 4).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TooLarge);
        assert_eq!(e.offset, 4);
        assert_eq!(Json::parse_bytes_limited(b"[1]", 4).unwrap(), Json::arr([Json::U64(1)]));
        // An exact fit is accepted: the limit is inclusive.
        assert_eq!(Json::parse_bytes_limited(b"[17]", 4).unwrap(), Json::arr([Json::U64(17)]));
    }

    #[test]
    fn invalid_utf8_leads_fail_at_their_own_offset() {
        // Bare continuation bytes, overlong leads and leads past U+10FFFF
        // can never begin a character.
        let leads = (0x80..=0xBFu8).chain([0xC0, 0xC1]).chain(0xF5..=0xFF);
        for lead in leads {
            let e = Json::parse_bytes(&[b'"', b'a', b'b', lead, b'"']).unwrap_err();
            assert_eq!((e.kind, e.offset), (JsonErrorKind::InvalidUtf8, 3), "lead {lead:#x}");
        }
    }

    #[test]
    fn nesting_past_max_depth_is_a_typed_error() {
        let text = format!("{}1{}", "[".repeat(MAX_DEPTH + 2), "]".repeat(MAX_DEPTH + 2));
        let e = Json::parse(&text).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TooDeep);
        // One level inside the limit still parses.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
    }

    /// Build a tree of `depth` nested single-element arrays around a leaf,
    /// and a matching dismantler (popping layer by layer) so dropping the
    /// deep tree cannot itself recurse through drop glue.
    fn deep_tree(depth: usize) -> Json {
        let mut j = Json::U64(7);
        for _ in 0..depth {
            j = Json::Arr(vec![j]);
        }
        j
    }

    fn dismantle(mut j: Json) {
        while let Json::Arr(mut items) = j {
            match items.pop() {
                Some(inner) => j = inner, // the emptied wrapper drops O(1)
                None => break,
            }
        }
    }

    #[test]
    fn serialization_is_stack_safe_on_very_deep_trees() {
        // Far past any plausible thread-stack budget for a recursive
        // writer; the iterative writers only grow a heap Vec.
        let depth = 200_000;
        let j = deep_tree(depth);
        let compact = j.to_string();
        assert_eq!(compact.len(), 2 * depth + 1);
        assert!(compact.starts_with("[[") && compact.ends_with("]]"));
        dismantle(j);
        // Pretty output carries per-level indentation, so its size is
        // quadratic in depth — exercise it past the stack budget but at a
        // depth whose output stays small.
        let depth = 3_000;
        let j = deep_tree(depth);
        let pretty = j.to_pretty_string();
        assert!(pretty.starts_with("[\n"));
        let compact = j.to_string();
        // Serialize side has no depth bound; the parse side keeps its
        // typed limit, so the round trip of a too-deep tree fails *safely*.
        assert_eq!(Json::parse(&compact).unwrap_err().kind, JsonErrorKind::TooDeep);
        dismantle(j);
    }
}
