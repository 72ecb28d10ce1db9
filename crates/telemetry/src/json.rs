//! Minimal JSON value model: a writer and a recursive-descent reader.
//!
//! The build environment has no crates.io access, so `serde`/`serde_json`
//! are unavailable; this module hand-rolls exactly the subset the
//! workspace needs — enough to serialize telemetry events and run
//! reports, and to parse them back for validation (the CI smoke step
//! re-reads the bench `--json` output with this parser).
//!
//! Numbers keep an integer/float split so counters round-trip exactly;
//! non-finite floats serialize as `null` (JSON has no NaN/Inf). Object
//! keys preserve insertion order — reports stay diffable.

use std::fmt;

/// A JSON document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part or exponent that fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, insertion-ordered.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience constructor for an object.
    #[must_use]
    pub fn object(fields: Vec<(String, JsonValue)>) -> Self {
        JsonValue::Object(fields)
    }

    /// Looks up a field of an object (`None` for non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64` (ints widen; everything else is `None`).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as an `i64`.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value to compact JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends the compact serialization to `out`.
    pub(crate) fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{i}"));
            }
            JsonValue::Float(f) => write_f64(out, *f),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (k, (key, value)) in fields.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (exactly one value, surrounding whitespace
    /// allowed).
    ///
    /// # Errors
    ///
    /// [`JsonError`] with a byte offset and message on malformed input,
    /// trailing garbage, or nesting deeper than 128 levels.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

/// Serializes a finite float in round-trip form; non-finite → `null`.
fn write_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        let _ = fmt::Write::write_fmt(out, format_args!("{f}"));
        // `{}` omits the ".0" for whole floats; that is still valid JSON
        // (it re-parses as Int, which as_f64 widens back).
    } else {
        out.push_str("null");
    }
}

/// Writes `s` as a quoted JSON string with the mandatory escapes.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub(crate) offset: usize,
    /// Human-readable description.
    pub(crate) message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Array(items));
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
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Object(fields));
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
                    self.depth -= 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?;
                s.push_str(chunk);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    s.push(self.escape()?);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let c = self.peek().ok_or_else(|| self.err("truncated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: must pair with \uDC00..\uDFFF.
                    if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))?
                    } else {
                        return Err(self.err("unpaired high surrogate"));
                    }
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                }
            }
            _ => return Err(self.err("unknown escape character")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("non-hex digit in \\u escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digits()?;
        if int_digits > 1
            && self.bytes[if self.bytes[start] == b'-' {
                start + 1
            } else {
                start
            }] == b'0'
        {
            return Err(self.err("leading zero in number"));
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Int(i));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| self.err("malformed number"))
    }

    fn digits(&mut self) -> Result<usize, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected digits"));
        }
        Ok(self.pos - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) -> JsonValue {
        let v = JsonValue::parse(text).expect("parse");
        let again = JsonValue::parse(&v.to_json()).expect("reparse");
        assert_eq!(v, again, "round-trip changed the value");
        v
    }

    #[test]
    fn scalars_round_trip() {
        assert_eq!(roundtrip("null"), JsonValue::Null);
        assert_eq!(roundtrip("true"), JsonValue::Bool(true));
        assert_eq!(roundtrip("-42"), JsonValue::Int(-42));
        assert_eq!(roundtrip("2.5e-3"), JsonValue::Float(0.0025));
        assert_eq!(roundtrip("\"a\\nb\""), JsonValue::Str("a\nb".into()));
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = roundtrip(r#"{"spans":[{"name":"op","dur_s":1.5,"n":3}],"ok":true}"#);
        let spans = v.get("spans").and_then(JsonValue::as_array).expect("spans");
        assert_eq!(spans[0].get("n").and_then(JsonValue::as_i64), Some(3));
        assert_eq!(spans[0].get("dur_s").and_then(JsonValue::as_f64), Some(1.5));
    }

    #[test]
    fn string_escapes_and_unicode() {
        let v = roundtrip(r#""quote \" backslash \\ tab \t µm² \u00e9 \ud83d\ude00""#);
        assert_eq!(v.as_str(), Some("quote \" backslash \\ tab \t µm² é 😀"));
        // Control characters are escaped on output.
        assert_eq!(JsonValue::Str("\u{1}".into()).to_json(), r#""\u0001""#);
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(JsonValue::Float(f64::NAN).to_json(), "null");
        assert_eq!(JsonValue::Float(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn integers_keep_exact_width() {
        let v = roundtrip("9007199254740993"); // 2^53 + 1: not representable in f64
        assert_eq!(v.as_i64(), Some(9_007_199_254_740_993));
    }

    #[test]
    fn malformed_inputs_report_offsets() {
        for (text, what) in [
            ("", "empty"),
            ("{", "open object"),
            ("[1,]", "trailing comma"),
            ("{\"a\" 1}", "missing colon"),
            ("01", "leading zero"),
            ("\"abc", "unterminated string"),
            ("nul", "bad literal"),
            ("1 2", "trailing garbage"),
            ("\"\\ud800\"", "unpaired surrogate"),
        ] {
            let err = JsonValue::parse(text).expect_err(what);
            assert!(err.offset <= text.len(), "{what}: offset out of range");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(JsonValue::parse(&deep).is_err());
    }

    #[test]
    fn insertion_order_is_preserved() {
        let v = roundtrip(r#"{"z":1,"a":2}"#);
        assert_eq!(v.to_json(), r#"{"z":1,"a":2}"#);
    }
}
