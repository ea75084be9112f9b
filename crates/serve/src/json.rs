//! A minimal, dependency-free JSON value: deterministic writer and a
//! strict recursive-descent parser.
//!
//! The build environment vendors its external crates and has no `serde`,
//! so the wire codec carries its own JSON. The subset is deliberate:
//!
//! * Objects preserve **insertion order** (a `Vec` of pairs, not a map),
//!   so encoding is byte-deterministic — the load harness compares
//!   served responses byte-for-byte against locally encoded ones.
//! * Numbers are `f64`. Integral values within the exact-`f64` range
//!   print without a fractional part; everything else uses Rust's
//!   shortest round-trip `Display`, which `str::parse::<f64>` inverts
//!   exactly. Non-finite numbers have no JSON form and encode as `null`
//!   (see [`Json::num_or_null`]).
//! * The parser rejects trailing garbage, unterminated strings, bad
//!   escapes, and nesting deeper than [`MAX_DEPTH`] (stack safety on
//!   hostile frames).

use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts.
pub const MAX_DEPTH: usize = 64;

/// A JSON value with order-preserving objects.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always finite; non-finite values encode as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// `Num` for finite values, `null` for NaN/±∞ (e.g. the weather
    /// Monte Carlo's "mostly disconnected" percentiles).
    pub fn num_or_null(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(v)
        } else {
            Json::Null
        }
    }

    /// The value under `key` when this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// This value as a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a non-negative integer (rejects fractional parts).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_num()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }

    /// Serialize to a compact JSON string (no whitespace).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
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
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
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
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
        return;
    }
    // 2^53: the largest range where every integer is exactly one f64,
    // so the integral fast path cannot change the value it prints.
    if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Why a parse failed (position is a byte offset into the input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(self.err("invalid number")),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the run of ordinary characters up to the next
                    // quote, backslash or control byte. Those are ASCII,
                    // which never occurs inside a multi-byte UTF-8
                    // sequence, so the run ends on a char boundary.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.input[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    /// Parse the 4 hex digits after `\u` (and a following low surrogate
    /// when needed); leaves `pos` after the escape.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require a \uXXXX low surrogate.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos.checked_add(4).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or_else(|| self.err("truncated unicode escape"))?;
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
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

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_basics() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Num(1.0)),
            ("b".into(), Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("s".into(), Json::Str("hi \"there\"\n".into())),
            ("f".into(), Json::Num(3.961_71)),
        ]);
        let text = v.encode();
        assert_eq!(
            text,
            r#"{"a":1,"b":[null,true],"s":"hi \"there\"\n","f":3.96171}"#
        );
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn float_round_trip_is_exact() {
        for n in [
            0.0,
            -0.0,
            1.5,
            3.961_709_234_117_3,
            f64::MIN_POSITIVE,
            1e300,
            -2.2250738585072014e-308,
        ] {
            let text = Json::Num(n).encode();
            let back = parse(&text).unwrap().as_num().unwrap();
            assert_eq!(back, n, "{text}");
        }
    }

    #[test]
    fn non_finite_encodes_as_null() {
        assert_eq!(Json::num_or_null(f64::INFINITY), Json::Null);
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\":}",
            "nul",
            "1 2",
            "\"\\q\"",
            "\"unterminated",
            "{\"a\" 1}",
            "[01e]",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let doc = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&doc).is_err());
    }

    #[test]
    fn megabyte_string_round_trips_in_bounded_time() {
        // A frame or HTTP body may reach 1 MiB, and one string that size
        // must not stall the event loop that decodes it.
        let unit = "licensee é 😀 \"quoted\"\n\\ ";
        let text: String = unit.chars().cycle().take(1 << 20).collect();
        let doc = Json::Obj(vec![("licensee".into(), Json::Str(text))]);
        let encoded = doc.encode();
        assert!(encoded.len() > 1 << 20);
        let started = std::time::Instant::now();
        let back = parse(&encoded).unwrap();
        let took = started.elapsed();
        assert_eq!(back, doc);
        assert_eq!(back.encode(), encoded);
        assert!(took.as_secs_f64() < 5.0, "parse took {took:?}");
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap(), Json::Str("😀".into()));
    }

    #[test]
    fn object_lookup_helpers() {
        let v = parse(r#"{"n":42,"s":"x","a":[1]}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(42));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert!(v.get("missing").is_none());
    }
}
