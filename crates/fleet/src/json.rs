//! The workspace's one JSON reader: a full (nested) decoder plus a tree
//! encoder.
//!
//! [`gecko_sim::report`] owns the *encoder*: every artifact this workspace
//! writes (journal, memo and telemetry lines, experiment rows, bench
//! summaries, wire documents) goes through [`Value::write_json`],
//! [`write_json_string`] or [`json_kv`]. Everything above `gecko-store`
//! reads back through [`Json::parse`]: campaign and checker journals, the
//! memo store, job files and HTTP request bodies. (The store keeps its own
//! tiny codec for `prune.json` because it sits below this crate.)
//!
//! * [`Json`] — an owned JSON tree whose scalar variants mirror
//!   [`Value`] (`u64`/`i64`/`f64` are kept distinct so integers survive
//!   round trips bit-exactly).
//! * [`Json::parse`] — a recursive-descent parser with byte-offset
//!   [`ParseError`]s ("byte 41: expected ':' after object key"). It runs
//!   in time linear in the input, caps nesting at [`MAX_DEPTH`], and
//!   never yields a non-finite number, so hostile input costs at most a
//!   clean error.
//! * [`Json::parse_record`] — the JSON-lines view: one line, one object,
//!   and anything else (a torn tail, garbage, a bare scalar) reads as
//!   "absent", so a line cut by a power failure is skipped, never fatal.
//! * [`Json::encode`] — the inverse, emitting the exact same float
//!   formatting as [`Value::write_json`], so
//!   `Json::parse(doc)?.encode() == doc` for every document this
//!   workspace produces (the property the JSON codec suite pins down).
//!
//! [`json_kv`]: gecko_sim::report::json_kv

use std::fmt;

use gecko_sim::report::{write_json_string, Value};

/// Maximum nesting depth [`Json::parse`] accepts. Deep enough for every
/// wire document in the workspace, shallow enough that a hostile request
/// cannot overflow the parser's stack.
pub const MAX_DEPTH: usize = 64;

/// An owned JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (no `.`, exponent, or sign).
    U64(u64),
    /// A negative integer literal.
    I64(i64),
    /// A float literal (contains `.` or an exponent).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving key order (the encoder's order is part of
    /// the round-trip contract).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing garbage is an error).
    ///
    /// # Errors
    ///
    /// A [`ParseError`] carrying the byte offset of the first problem and
    /// what the parser expected there.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        let doc = p.value(0)?;
        p.skip_ws();
        if p.i != p.bytes.len() {
            return Err(p.err("end of document"));
        }
        Ok(doc)
    }

    /// Parses one JSON-lines record. `Some` only for a complete JSON
    /// object; a torn, garbled or non-object line is `None`, which every
    /// line decoder treats as "no record here".
    pub fn parse_record(line: &str) -> Option<Json> {
        Json::parse(line)
            .ok()
            .filter(|doc| matches!(doc, Json::Obj(_)))
    }

    /// Encodes the tree as compact JSON, using the same scalar formatting
    /// as [`Value::write_json`] (floats keep a `.0` when integral; NaN
    /// and infinities encode as `null`).
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(64);
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => Value::Null.write_json(out),
            Json::Bool(b) => Value::Bool(*b).write_json(out),
            Json::U64(v) => Value::U64(*v).write_json(out),
            Json::I64(v) => Value::I64(*v).write_json(out),
            Json::F64(v) => Value::F64(*v).write_json(out),
            Json::Str(s) => write_json_string(s, out),
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Converts ordered `(key, value)` fields (a [`Record`]'s, say) into
    /// an object.
    ///
    /// [`Record`]: gecko_sim::report::Record
    pub fn from_fields(fields: Vec<(&str, Value)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(key, value)| {
                    let node = match value {
                        Value::Str(s) => Json::Str(s),
                        Value::U64(v) => Json::U64(v),
                        Value::I64(v) => Json::I64(v),
                        Value::F64(v) => Json::F64(v),
                        Value::Bool(b) => Json::Bool(b),
                        Value::Null => Json::Null,
                    };
                    (key.to_string(), node)
                })
                .collect(),
        )
    }

    /// A short name for this node's type, for error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::U64(_) | Json::I64(_) | Json::F64(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
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

    /// The value as `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
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

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Object-field lookup by key (`None` when absent or not an object).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// A parse failure: where, and what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What the parser expected at that offset.
    pub expected: String,
    /// What it found instead (a short excerpt, or "end of input").
    pub found: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "byte {}: expected {}, found {}",
            self.offset, self.expected, self.found
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, expected: &str) -> ParseError {
        let found = if self.i >= self.bytes.len() {
            "end of input".to_string()
        } else {
            let end = (self.i + 12).min(self.bytes.len());
            let excerpt = String::from_utf8_lossy(&self.bytes[self.i..end]);
            format!("{excerpt:?}")
        };
        ParseError {
            offset: self.i,
            expected: expected.to_string(),
            found,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.i).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("shallower nesting (depth limit reached)"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'{');
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("'\"' starting an object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("':' after object key"));
            }
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            return Err(self.err("',' or '}' in object"));
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'[');
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            return Err(self.err("',' or ']' in array"));
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        let end = self.i + word.len();
        if self.bytes.get(self.i..end) == Some(word.as_bytes()) {
            self.i = end;
            Ok(value)
        } else {
            Err(self.err(&format!("'{word}'")))
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote or escape
            // in one go. Both delimiters are ASCII, so the run ends on a
            // char boundary of the (valid UTF-8) input.
            let start = self.i;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\') {
                self.i += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.i])
                    .map_err(|_| self.err("valid UTF-8"))?,
            );
            match self.peek() {
                None => return Err(self.err("closing '\"'")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // A backslash: decode one escape.
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.i + 1..self.i + 5)
                                .ok_or_else(|| self.err("four hex digits after '\\u'"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("four hex digits after '\\u'"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("a valid unicode scalar"))?,
                            );
                            self.i += 4;
                        }
                        _ => return Err(self.err("a valid escape character")),
                    }
                    self.i += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.i;
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.i += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.i += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.i]).expect("ASCII span");
        let integer = if is_float {
            None
        } else if text.starts_with('-') {
            text.parse().ok().map(Json::I64)
        } else {
            text.parse().ok().map(Json::U64)
        };
        // An integer literal too wide for u64/i64 is how the encoder
        // writes an integral float of 2^64 or more; read it back as one.
        // Literals that overflow f64 are rejected: the encoder never
        // writes them, and an infinity would re-encode as `null`.
        let parsed = integer.or_else(|| {
            text.parse()
                .ok()
                .filter(|v: &f64| v.is_finite())
                .map(Json::F64)
        });
        parsed.ok_or_else(|| {
            self.i = start;
            self.err("a number")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = Json::parse(r#"{"a": [1, -2, 3.5, null], "b": {"c": "x", "d": true}}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(doc.get("b").unwrap().get("c").unwrap().as_str(), Some("x"));
        assert_eq!(
            doc.get("b").unwrap().get("d").unwrap().as_bool(),
            Some(true)
        );
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap()[1], Json::I64(-2));
    }

    #[test]
    fn encode_round_trips_bit_exactly() {
        let doc = Json::Obj(vec![
            ("u".into(), Json::U64(u64::MAX)),
            ("i".into(), Json::I64(-42)),
            ("f".into(), Json::F64(0.1 + 0.2)),
            ("g".into(), Json::F64(2.0)),
            ("s".into(), Json::Str("a\"b\\c\nd".into())),
            (
                "arr".into(),
                Json::Arr(vec![Json::Null, Json::Bool(false), Json::F64(3.1e-7)]),
            ),
            ("obj".into(), Json::Obj(vec![("k".into(), Json::U64(1))])),
        ]);
        let text = doc.encode();
        let reparsed = Json::parse(&text).unwrap();
        assert_eq!(reparsed, doc);
        assert_eq!(reparsed.encode(), text, "encode→decode→encode is identity");
    }

    #[test]
    fn errors_carry_offset_and_expectation() {
        let e = Json::parse(r#"{"a" 1}"#).unwrap_err();
        assert_eq!(e.offset, 5);
        assert!(e.expected.contains("':'"), "{e}");
        let e = Json::parse(r#"{"a": 1"#).unwrap_err();
        assert!(e.found.contains("end of input"), "{e}");
        let e = Json::parse("[1, 2,]").unwrap_err();
        assert!(e.to_string().starts_with("byte 6"), "{e}");
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("nope").is_err());
    }

    #[test]
    fn depth_limit_rejects_hostile_nesting() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let e = Json::parse(&deep).unwrap_err();
        assert!(e.expected.contains("depth"), "{e}");
        let ok = "[".repeat(MAX_DEPTH / 2) + &"]".repeat(MAX_DEPTH / 2);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn number_taxonomy_matches_the_encoder() {
        assert_eq!(Json::parse("7").unwrap(), Json::U64(7));
        assert_eq!(Json::parse("-7").unwrap(), Json::I64(-7));
        assert_eq!(Json::parse("7.0").unwrap(), Json::F64(7.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::F64(1000.0));
        // The encoder writes non-finite floats as null; parsing never
        // produces a non-finite number.
        assert_eq!(Json::F64(f64::NAN).encode(), "null");
        for overflow in ["1e999", "-1e999", "[1e999]"] {
            let e = Json::parse(overflow).unwrap_err();
            assert!(e.expected.contains("a number"), "{overflow}: {e}");
        }
        // Integral floats of 2^64 and up encode without a fraction; they
        // read back as the same float, and re-encode to the same text.
        for wide in [1e21, -1e21, 2f64.powi(64)] {
            let text = Json::F64(wide).encode();
            assert_eq!(Json::parse(&text).unwrap(), Json::F64(wide), "{text}");
            assert_eq!(Json::parse(&text).unwrap().encode(), text);
        }
    }

    #[test]
    fn string_scan_is_linear_in_the_input() {
        // A hostile request body: one 1 MiB string with escapes and
        // multi-byte characters sprinkled in. A per-character rescan of
        // the remaining input would take minutes here.
        let raw = r"abcdefgh\\é\n€xyz0123456789";
        let decoded = "abcdefgh\\é\n€xyz0123456789";
        let reps = (1 << 20) / raw.len() + 1;
        let doc = format!("\"{}\"", raw.repeat(reps));
        let started = std::time::Instant::now();
        let parsed = Json::parse(&doc).unwrap();
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "1 MiB string took {elapsed:?}"
        );
        assert_eq!(parsed, Json::Str(decoded.repeat(reps)));
    }

    #[test]
    fn parse_record_accepts_only_whole_objects() {
        assert!(Json::parse_record(r#"{"a":1,"b":[2]}"#).is_some());
        assert!(Json::parse_record("{}").is_some());
        for line in ["", "{\"a\":1", "[1]", "7", "\"s\"", "{\"a\":1} trailing"] {
            assert!(Json::parse_record(line).is_none(), "{line:?}");
        }
    }
}
