//! Offline stand-in for `serde`.
//!
//! The seed sources only tag types with `#[derive(Serialize, Deserialize)]`
//! so downstream tooling *could* serialize reports; those derives expand to
//! nothing and the traits are empty markers with blanket implementations.
//!
//! The [`json`] module is the one real serialization facility: a minimal
//! JSON document model (`Value`), a recursive-descent parser, and a
//! deterministic renderer. `lv_core`'s persistent verdict cache uses it for
//! its on-disk format. When registry access appears and the real `serde` /
//! `serde_json` can be vendored, `json::Value` maps 1:1 onto
//! `serde_json::Value` and the cache code ports mechanically.

pub use serde_derive::{Deserialize, Serialize};

/// Marker trait standing in for `serde::Serialize`.
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker trait standing in for `serde::Deserialize`.
pub trait Deserialize<'de> {}
impl<'de, T: ?Sized> Deserialize<'de> for T {}

pub mod json {
    //! A minimal JSON document model with a parser and a renderer.
    //!
    //! Supports the full JSON grammar except that numbers are restricted to
    //! `i64` (the workspace only persists counters, hashes — stored as hex
    //! strings — and enum tags, never floats). Object key order is preserved
    //! on parse and render, so a load/store round-trip is byte-stable.
    //!
    //! Two serialization paths produce byte-identical output:
    //!
    //! * [`Value`]'s `Display`/`to_string` renders a pre-built document tree;
    //! * [`Emitter`] streams tokens directly into any [`io::Write`] without
    //!   building a tree or an intermediate `String` — the path the verdict
    //!   cache streams its snapshot through.
    //!
    //! [`to_writer`] bridges the two: it walks a [`Value`] through an
    //! [`Emitter`], so callers that already hold a document can stream it.

    use std::fmt;
    use std::io;

    /// A JSON value.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// An integer (the only number form the workspace persists).
        Int(i64),
        /// A string.
        Str(String),
        /// An array.
        Array(Vec<Value>),
        /// An object, with key order preserved.
        Object(Vec<(String, Value)>),
    }

    impl Value {
        /// The string payload, if this is a `Str`.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The integer payload, if this is an `Int`.
        pub fn as_int(&self) -> Option<i64> {
            match self {
                Value::Int(v) => Some(*v),
                _ => None,
            }
        }

        /// The elements, if this is an `Array`.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(items) => Some(items),
                _ => None,
            }
        }

        /// Looks up a key, if this is an `Object`.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(entries) => entries.iter().find_map(|(k, v)| (k == key).then_some(v)),
                _ => None,
            }
        }
    }

    impl fmt::Display for Value {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                Value::Null => write!(f, "null"),
                Value::Bool(b) => write!(f, "{}", b),
                Value::Int(v) => write!(f, "{}", v),
                Value::Str(s) => write_escaped(f, s),
                Value::Array(items) => {
                    write!(f, "[")?;
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{}", item)?;
                    }
                    write!(f, "]")
                }
                Value::Object(entries) => {
                    write!(f, "{{")?;
                    for (i, (key, value)) in entries.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write_escaped(f, key)?;
                        write!(f, ":{}", value)?;
                    }
                    write!(f, "}}")
                }
            }
        }
    }

    fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
        write!(f, "\"")?;
        for c in s.chars() {
            match c {
                '"' => write!(f, "\\\"")?,
                '\\' => write!(f, "\\\\")?,
                '\n' => write!(f, "\\n")?,
                '\r' => write!(f, "\\r")?,
                '\t' => write!(f, "\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => write!(f, "{}", c)?,
            }
        }
        write!(f, "\"")
    }

    /// Writes `s` to `w` as a JSON string literal, escaping exactly like the
    /// [`fmt::Display`] renderer so the two paths stay byte-identical. Clean
    /// runs are written as whole slices, so the common no-escape case is one
    /// `write_all` and never allocates.
    fn escape_into<W: io::Write + ?Sized>(w: &mut W, s: &str) -> io::Result<()> {
        w.write_all(b"\"")?;
        let bytes = s.as_bytes();
        let mut clean = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let escape: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                _ if b < 0x20 => b"",
                _ => continue,
            };
            w.write_all(&bytes[clean..i])?;
            if escape.is_empty() {
                write!(w, "\\u{:04x}", b)?;
            } else {
                w.write_all(escape)?;
            }
            clean = i + 1;
        }
        w.write_all(&bytes[clean..])?;
        w.write_all(b"\"")
    }

    /// Maximum container nesting depth [`Emitter`] supports (the comma
    /// bookkeeping is a fixed bitset so emission never allocates).
    pub const MAX_EMIT_DEPTH: usize = 64;

    /// A streaming JSON serializer: tokens are written directly to the
    /// underlying [`io::Write`], with no intermediate document tree or
    /// `String`. Output is byte-identical to `Value::to_string` for the
    /// same document shape.
    ///
    /// The caller drives structure explicitly — [`Emitter::begin_object`] /
    /// [`Emitter::key`] / value calls / [`Emitter::end_object`] — and the
    /// emitter handles comma placement. Nesting deeper than
    /// [`MAX_EMIT_DEPTH`] panics (the workspace's formats are depth ≤ 4).
    #[derive(Debug)]
    pub struct Emitter<W: io::Write> {
        out: W,
        /// Bit `d` set ⇔ the container at depth `d+1` already holds an
        /// element, so the next element at that depth needs a comma.
        seen: u64,
        depth: usize,
        /// A key was just written; the next value call must not emit a comma.
        pending_key: bool,
    }

    impl<W: io::Write> Emitter<W> {
        /// An emitter writing to `out`.
        pub fn new(out: W) -> Emitter<W> {
            Emitter {
                out,
                seen: 0,
                depth: 0,
                pending_key: false,
            }
        }

        /// Consumes the emitter, returning the underlying writer.
        pub fn into_inner(self) -> W {
            self.out
        }

        fn value_prefix(&mut self) -> io::Result<()> {
            if self.pending_key {
                self.pending_key = false;
            } else if self.depth > 0 {
                let bit = 1u64 << (self.depth - 1);
                if self.seen & bit != 0 {
                    self.out.write_all(b",")?;
                }
                self.seen |= bit;
            }
            Ok(())
        }

        fn push(&mut self) {
            assert!(self.depth < MAX_EMIT_DEPTH, "emitter nesting too deep");
            self.depth += 1;
            self.seen &= !(1u64 << (self.depth - 1));
        }

        /// Opens an object (`{`).
        pub fn begin_object(&mut self) -> io::Result<()> {
            self.value_prefix()?;
            self.push();
            self.out.write_all(b"{")
        }

        /// Closes the innermost object (`}`).
        pub fn end_object(&mut self) -> io::Result<()> {
            self.depth -= 1;
            self.out.write_all(b"}")
        }

        /// Opens an array (`[`).
        pub fn begin_array(&mut self) -> io::Result<()> {
            self.value_prefix()?;
            self.push();
            self.out.write_all(b"[")
        }

        /// Closes the innermost array (`]`).
        pub fn end_array(&mut self) -> io::Result<()> {
            self.depth -= 1;
            self.out.write_all(b"]")
        }

        /// Writes an object key (escaped, followed by `:`).
        pub fn key(&mut self, key: &str) -> io::Result<()> {
            let bit = 1u64 << (self.depth - 1);
            if self.seen & bit != 0 {
                self.out.write_all(b",")?;
            }
            self.seen |= bit;
            escape_into(&mut self.out, key)?;
            self.out.write_all(b":")?;
            self.pending_key = true;
            Ok(())
        }

        /// Writes a string value.
        pub fn str(&mut self, s: &str) -> io::Result<()> {
            self.value_prefix()?;
            escape_into(&mut self.out, s)
        }

        /// Writes an integer value.
        pub fn int(&mut self, v: i64) -> io::Result<()> {
            self.value_prefix()?;
            write!(self.out, "{}", v)
        }

        /// Writes a boolean value.
        pub fn bool(&mut self, b: bool) -> io::Result<()> {
            self.value_prefix()?;
            self.out.write_all(if b { b"true" } else { b"false" })
        }

        /// Writes a `null` value.
        pub fn null(&mut self) -> io::Result<()> {
            self.value_prefix()?;
            self.out.write_all(b"null")
        }

        /// Writes a `u64` as the workspace's 16-digit lower-case hex string
        /// (JSON numbers cannot hold a `u64`).
        pub fn hex(&mut self, v: u64) -> io::Result<()> {
            self.value_prefix()?;
            write!(self.out, "\"{:016x}\"", v)
        }

        /// Writes a pre-built [`Value`] subtree at the current value
        /// position (for documents that mix streamed fields with an
        /// already-assembled branch).
        pub fn value(&mut self, value: &Value) -> io::Result<()> {
            match value {
                Value::Null => self.null(),
                Value::Bool(b) => self.bool(*b),
                Value::Int(v) => self.int(*v),
                Value::Str(s) => self.str(s),
                Value::Array(items) => {
                    self.begin_array()?;
                    for item in items {
                        self.value(item)?;
                    }
                    self.end_array()
                }
                Value::Object(entries) => {
                    self.begin_object()?;
                    for (key, item) in entries {
                        self.key(key)?;
                        self.value(item)?;
                    }
                    self.end_object()
                }
            }
        }

        /// `key` + string value.
        pub fn field_str(&mut self, key: &str, s: &str) -> io::Result<()> {
            self.key(key)?;
            self.str(s)
        }

        /// `key` + integer value.
        pub fn field_int(&mut self, key: &str, v: i64) -> io::Result<()> {
            self.key(key)?;
            self.int(v)
        }

        /// `key` + boolean value.
        pub fn field_bool(&mut self, key: &str, b: bool) -> io::Result<()> {
            self.key(key)?;
            self.bool(b)
        }

        /// `key` + hex-encoded `u64` value.
        pub fn field_hex(&mut self, key: &str, v: u64) -> io::Result<()> {
            self.key(key)?;
            self.hex(v)
        }
    }

    /// Streams `value` into `w` through an [`Emitter`]; output is
    /// byte-identical to `value.to_string()`.
    pub fn to_writer<W: io::Write>(w: W, value: &Value) -> io::Result<()> {
        Emitter::new(w).value(value)
    }

    /// An [`io::Write`] sink that discards its input and counts bytes — how
    /// serialized sizes are measured without rendering into a `String`.
    #[derive(Debug, Default, Clone, Copy)]
    pub struct CountingWriter {
        /// Bytes written so far.
        pub bytes: u64,
    }

    impl io::Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.bytes += buf.len() as u64;
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Serialized size of `value` in bytes (no allocation beyond the walk).
    pub fn serialized_len(value: &Value) -> u64 {
        let mut counter = CountingWriter::default();
        to_writer(&mut counter, value).expect("counting never fails");
        counter.bytes
    }

    /// A parse failure, with a byte offset into the input.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ParseError {
        /// Byte offset of the failure.
        pub at: usize,
        /// What went wrong.
        pub message: String,
    }

    impl fmt::Display for ParseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
        }
    }

    impl std::error::Error for ParseError {}

    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(input, bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing characters after the document"));
        }
        Ok(value)
    }

    fn err(at: usize, message: impl Into<String>) -> ParseError {
        ParseError {
            at,
            message: message.into(),
        }
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while let Some(&b) = bytes.get(*pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                *pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, token: u8) -> Result<(), ParseError> {
        if bytes.get(*pos) == Some(&token) {
            *pos += 1;
            Ok(())
        } else {
            Err(err(*pos, format!("expected `{}`", token as char)))
        }
    }

    fn parse_value(input: &str, bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => Err(err(*pos, "unexpected end of input")),
            Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
            Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(parse_string(input, bytes, pos)?)),
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(parse_value(input, bytes, pos)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(err(*pos, "expected `,` or `]` in array")),
                    }
                }
            }
            Some(b'{') => {
                *pos += 1;
                let mut entries = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Object(entries));
                }
                loop {
                    skip_ws(bytes, pos);
                    let key = parse_string(input, bytes, pos)?;
                    skip_ws(bytes, pos);
                    expect(bytes, pos, b':')?;
                    let value = parse_value(input, bytes, pos)?;
                    entries.push((key, value));
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Object(entries));
                        }
                        _ => return Err(err(*pos, "expected `,` or `}` in object")),
                    }
                }
            }
            Some(b) if *b == b'-' || b.is_ascii_digit() => parse_int(bytes, pos),
            Some(&b) => Err(err(*pos, format!("unexpected byte `{}`", b as char))),
        }
    }

    fn parse_keyword(
        bytes: &[u8],
        pos: &mut usize,
        word: &str,
        value: Value,
    ) -> Result<Value, ParseError> {
        if bytes[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(value)
        } else {
            Err(err(*pos, format!("expected `{}`", word)))
        }
    }

    fn parse_int(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
        let start = *pos;
        if bytes.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        let digits_start = *pos;
        while bytes.get(*pos).is_some_and(|b| b.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == digits_start {
            return Err(err(*pos, "expected digits"));
        }
        if bytes
            .get(*pos)
            .is_some_and(|&b| b == b'.' || b == b'e' || b == b'E')
        {
            return Err(err(*pos, "floating-point numbers are not supported"));
        }
        let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
        text.parse::<i64>()
            .map(Value::Int)
            .map_err(|e| err(start, format!("invalid integer `{}`: {}", text, e)))
    }

    fn parse_string(input: &str, bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
        expect(bytes, pos, b'"')?;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err(err(*pos, "unterminated string")),
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
                                .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| err(*pos, "non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| err(*pos, "invalid \\u escape"))?;
                            // Surrogate pairs are not needed for the cache
                            // format; reject them rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| err(*pos, "\\u escape is not a scalar value"))?;
                            out.push(c);
                            *pos += 4;
                        }
                        _ => return Err(err(*pos, "invalid escape")),
                    }
                    *pos += 1;
                }
                Some(&b) if b < 0x80 => {
                    out.push(b as char);
                    *pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the whole scalar value.
                    let rest = &input[*pos..];
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn round_trips_a_document() {
            let doc = Value::Object(vec![
                ("version".to_string(), Value::Int(1)),
                (
                    "entries".to_string(),
                    Value::Array(vec![
                        Value::Str("tab\t\"quote\" \\ \u{1F600} newline\n".to_string()),
                        Value::Int(-42),
                        Value::Bool(true),
                        Value::Null,
                    ]),
                ),
            ]);
            let text = doc.to_string();
            assert_eq!(parse(&text).unwrap(), doc);
            // Render is deterministic: a second round trip is byte-identical.
            assert_eq!(parse(&text).unwrap().to_string(), text);
        }

        #[test]
        fn parses_whitespace_and_nested_structures() {
            let text = " { \"a\" : [ 1 , 2 , { \"b\" : \"c\" } ] , \"d\" : null } ";
            let v = parse(text).unwrap();
            assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
            assert_eq!(
                v.get("a").unwrap().as_array().unwrap()[2]
                    .get("b")
                    .unwrap()
                    .as_str(),
                Some("c")
            );
            assert_eq!(v.get("d"), Some(&Value::Null));
        }

        #[test]
        fn rejects_garbage() {
            assert!(parse("").is_err());
            assert!(parse("{").is_err());
            assert!(parse("[1,]").is_err());
            assert!(parse("1.5").is_err());
            assert!(parse("\"unterminated").is_err());
            assert!(parse("{} trailing").is_err());
            assert!(parse("{\"a\"}").is_err());
        }

        #[test]
        fn emitter_matches_display_byte_for_byte() {
            let doc = Value::Object(vec![
                ("version".to_string(), Value::Int(1)),
                ("hash".to_string(), Value::Str(format!("{:016x}", u64::MAX))),
                (
                    "entries".to_string(),
                    Value::Array(vec![
                        Value::Str("tab\t\"quote\" \\ \u{1F600} newline\n ctrl\u{1}".to_string()),
                        Value::Int(-42),
                        Value::Bool(true),
                        Value::Null,
                        Value::Array(vec![]),
                        Value::Object(vec![]),
                        Value::Object(vec![("k".to_string(), Value::Array(vec![Value::Int(7)]))]),
                    ]),
                ),
            ]);
            let mut streamed = Vec::new();
            to_writer(&mut streamed, &doc).unwrap();
            assert_eq!(String::from_utf8(streamed).unwrap(), doc.to_string());
            assert_eq!(serialized_len(&doc), doc.to_string().len() as u64);
        }

        #[test]
        fn emitter_drives_structure_by_hand() {
            let mut out = Vec::new();
            let mut e = Emitter::new(&mut out);
            e.begin_object().unwrap();
            e.field_int("version", 1).unwrap();
            e.field_hex("hash", 0xdead_beef).unwrap();
            e.key("jobs").unwrap();
            e.begin_array().unwrap();
            e.str("a\nb").unwrap();
            e.begin_object().unwrap();
            e.field_bool("ok", false).unwrap();
            e.key("note").unwrap();
            e.null().unwrap();
            e.end_object().unwrap();
            e.end_array().unwrap();
            e.end_object().unwrap();
            let text = String::from_utf8(out).unwrap();
            assert_eq!(
                text,
                "{\"version\":1,\"hash\":\"00000000deadbeef\",\
                 \"jobs\":[\"a\\nb\",{\"ok\":false,\"note\":null}]}"
            );
            // The streamed text round-trips through the parser.
            assert!(parse(&text).is_ok());
        }

        #[test]
        fn unicode_escapes_decode() {
            assert_eq!(
                parse("\"\\u0041\\u00e9\"").unwrap(),
                Value::Str("Aé".to_string())
            );
            assert!(parse("\"\\ud800\"").is_err(), "lone surrogate rejected");
        }
    }
}

pub mod bin {
    //! Little-endian binary codec primitives: the counterpart of
    //! [`crate::json`] for the compact on-disk formats.
    //!
    //! Two halves, mirroring `Emitter`/`parse`:
    //!
    //! * the `put_*` functions append fixed-width little-endian integers,
    //!   LEB128 varints, and varint-length-prefixed byte strings to a
    //!   `Vec<u8>` (infallible — the scratch-buffer append path the
    //!   service's wire codec streams through);
    //! * [`Reader`] is a bounds-checked cursor over a byte slice decoding
    //!   the same primitives, returning `Err(String)` — never panicking,
    //!   never reading past the slice — so corrupt input surfaces as a
    //!   typed decode error.
    //!
    //! All multi-byte integers are little-endian. Varints are unsigned
    //! LEB128 (7 bits per byte, high bit = continuation), at most 10 bytes.

    /// Appends `v` as one byte.
    pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
        buf.push(v);
    }

    /// Appends `v` as 4 little-endian bytes.
    pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends `v` as 8 little-endian bytes.
    pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends `v` as an unsigned LEB128 varint (1–10 bytes).
    pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                buf.push(byte);
                return;
            }
            buf.push(byte | 0x80);
        }
    }

    /// Appends `bytes` prefixed by its varint length.
    pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
        put_varint(buf, bytes.len() as u64);
        buf.extend_from_slice(bytes);
    }

    /// Appends `s`'s UTF-8 bytes prefixed by their varint length.
    pub fn put_str(buf: &mut Vec<u8>, s: &str) {
        put_bytes(buf, s.as_bytes());
    }

    /// A bounds-checked decoding cursor over a byte slice.
    #[derive(Debug, Clone)]
    pub struct Reader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        /// A cursor at the start of `bytes`.
        pub fn new(bytes: &'a [u8]) -> Reader<'a> {
            Reader { bytes, pos: 0 }
        }

        /// Bytes left to read.
        pub fn remaining(&self) -> usize {
            self.bytes.len() - self.pos
        }

        /// `true` once every byte has been consumed.
        pub fn is_empty(&self) -> bool {
            self.remaining() == 0
        }

        /// The cursor's byte offset from the start of the slice.
        pub fn pos(&self) -> usize {
            self.pos
        }

        /// Takes the next `n` raw bytes.
        pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
            let end = self
                .pos
                .checked_add(n)
                .filter(|&end| end <= self.bytes.len())
                .ok_or_else(|| {
                    format!(
                        "truncated input: need {} bytes at offset {}, have {}",
                        n,
                        self.pos,
                        self.remaining()
                    )
                })?;
            let slice = &self.bytes[self.pos..end];
            self.pos = end;
            Ok(slice)
        }

        /// Decodes one byte.
        pub fn u8(&mut self) -> Result<u8, String> {
            Ok(self.bytes(1)?[0])
        }

        /// Decodes 4 little-endian bytes.
        pub fn u32(&mut self) -> Result<u32, String> {
            Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
        }

        /// Decodes 8 little-endian bytes.
        pub fn u64(&mut self) -> Result<u64, String> {
            Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
        }

        /// Decodes an unsigned LEB128 varint.
        pub fn varint(&mut self) -> Result<u64, String> {
            let mut value = 0u64;
            let mut shift = 0u32;
            loop {
                let byte = self.u8().map_err(|e| format!("truncated varint: {}", e))?;
                if shift == 63 && byte > 1 {
                    return Err("varint overflows u64".to_string());
                }
                value |= u64::from(byte & 0x7f) << shift;
                if byte & 0x80 == 0 {
                    return Ok(value);
                }
                shift += 7;
                if shift > 63 {
                    return Err("varint longer than 10 bytes".to_string());
                }
            }
        }

        /// Decodes a varint-length-prefixed byte string.
        pub fn length_prefixed(&mut self) -> Result<&'a [u8], String> {
            let len = self.varint()?;
            let len =
                usize::try_from(len).map_err(|_| "length prefix overflows usize".to_string())?;
            self.bytes(len)
        }

        /// Decodes a varint-length-prefixed UTF-8 string.
        pub fn str(&mut self) -> Result<&'a str, String> {
            std::str::from_utf8(self.length_prefixed()?)
                .map_err(|e| format!("string field is not UTF-8: {}", e))
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn primitives_round_trip() {
            let mut buf = Vec::new();
            put_u8(&mut buf, 0xab);
            put_u32(&mut buf, 0xdead_beef);
            put_u64(&mut buf, u64::MAX - 1);
            put_varint(&mut buf, 0);
            put_varint(&mut buf, 127);
            put_varint(&mut buf, 128);
            put_varint(&mut buf, u64::MAX);
            put_str(&mut buf, "héllo\n\"world\"");
            let mut r = Reader::new(&buf);
            assert_eq!(r.u8().unwrap(), 0xab);
            assert_eq!(r.u32().unwrap(), 0xdead_beef);
            assert_eq!(r.u64().unwrap(), u64::MAX - 1);
            assert_eq!(r.varint().unwrap(), 0);
            assert_eq!(r.varint().unwrap(), 127);
            assert_eq!(r.varint().unwrap(), 128);
            assert_eq!(r.varint().unwrap(), u64::MAX);
            assert_eq!(r.str().unwrap(), "héllo\n\"world\"");
            assert!(r.is_empty());
        }

        #[test]
        fn varint_sizes_are_minimal() {
            for (v, len) in [(0u64, 1usize), (127, 1), (128, 2), (16_383, 2), (16_384, 3)] {
                let mut buf = Vec::new();
                put_varint(&mut buf, v);
                assert_eq!(buf.len(), len, "varint({})", v);
            }
            let mut buf = Vec::new();
            put_varint(&mut buf, u64::MAX);
            assert_eq!(buf.len(), 10);
        }

        #[test]
        fn truncation_and_overflow_are_errors_not_panics() {
            let mut r = Reader::new(&[0x01, 0x02]);
            assert!(r.u32().is_err());
            let mut r = Reader::new(&[0x80, 0x80]);
            assert!(r.varint().is_err(), "unterminated varint");
            let eleven = [0xffu8; 11];
            assert!(Reader::new(&eleven).varint().is_err(), "overlong varint");
            // Length prefix pointing past the end of the slice.
            let mut buf = Vec::new();
            put_varint(&mut buf, 100);
            buf.push(b'x');
            assert!(Reader::new(&buf).length_prefixed().is_err());
            // Non-UTF-8 string payload.
            let mut buf = Vec::new();
            put_bytes(&mut buf, &[0xff, 0xfe]);
            assert!(Reader::new(&buf).str().is_err());
        }
    }
}
