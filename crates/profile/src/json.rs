//! Minimal JSON value type, writer and parser for profile persistence.
//!
//! The build environment has no registry access, so instead of serde this
//! crate serializes profiles through an explicit [`Json`] tree. The
//! format is plain JSON (interoperable with any external tooling); the
//! subset is what profiles need: objects, arrays, strings, unsigned
//! integers and floats. Integers are kept in a dedicated variant so `u64`
//! counters round-trip exactly instead of passing through `f64`.

use std::collections::HashMap;
use std::fmt;

/// A parsed or to-be-written JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (exact, not via f64).
    UInt(u64),
    /// A floating-point number (also produced for negative or fractional
    /// literals when parsing).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved when writing.
    Object(Vec<(String, Json)>),
}

/// Error from [`Json::parse`] or the typed accessors, with a byte offset
/// for parse errors.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    msg: String,
    at: Option<usize>,
}

impl JsonError {
    fn parse(msg: impl Into<String>, at: usize) -> JsonError {
        JsonError {
            msg: msg.into(),
            at: Some(at),
        }
    }

    /// A shape/type error (wrong variant, missing key).
    pub(crate) fn shape(msg: impl Into<String>) -> JsonError {
        JsonError {
            msg: msg.into(),
            at: None,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.at {
            Some(at) => write!(f, "json error at byte {}: {}", at, self.msg),
            None => write!(f, "json error: {}", self.msg),
        }
    }
}

impl std::error::Error for JsonError {}

/// Serializes to compact JSON text (use `to_string()`).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl Json {
    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => out.push_str(&n.to_string()),
            Json::Float(x) => {
                if x.is_finite() {
                    // `{:?}` is Rust's shortest round-trip representation.
                    let s = format!("{x:?}");
                    out.push_str(&s);
                } else {
                    // JSON has no Inf/NaN; profiles never contain them.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text.
    ///
    /// Never panics on malformed, truncated or adversarial input: every
    /// failure — including nesting deeper than `MAX_DEPTH` (128), which
    /// would otherwise overflow the parser's recursion — is a typed
    /// [`JsonError`].
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::parse("trailing data", p.pos));
        }
        Ok(v)
    }

    /// This value as a `u64` ([`Json::UInt`], or an integral float).
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::UInt(n) => Ok(*n),
            Json::Float(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Ok(*x as u64)
            }
            other => Err(JsonError::shape(format!("expected integer, got {other:?}"))),
        }
    }

    /// This value as a `usize`.
    pub(crate) fn as_usize(&self) -> Result<usize, JsonError> {
        usize::try_from(self.as_u64()?).map_err(|_| JsonError::shape("integer out of usize range"))
    }

    /// This value as an `f64` (either numeric variant).
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::UInt(n) => Ok(*n as f64),
            Json::Float(x) => Ok(*x),
            other => Err(JsonError::shape(format!("expected number, got {other:?}"))),
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError::shape(format!("expected string, got {other:?}"))),
        }
    }

    /// This value as an array slice.
    pub fn as_array(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Array(v) => Ok(v),
            other => Err(JsonError::shape(format!("expected array, got {other:?}"))),
        }
    }

    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Result<&Json, JsonError> {
        match self {
            Json::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError::shape(format!("missing key {key:?}"))),
            other => Err(JsonError::shape(format!("expected object, got {other:?}"))),
        }
    }
}

/// Serializes a `HashMap<usize, u64>` as a PC-sorted array of
/// `[pc, count]` pairs (JSON objects cannot key on integers without
/// stringifying, and sorting keeps output deterministic).
pub(crate) fn pc_map_to_json(map: &HashMap<usize, u64>) -> Json {
    let mut pairs: Vec<(usize, u64)> = map.iter().map(|(&k, &v)| (k, v)).collect();
    pairs.sort_unstable();
    Json::Array(
        pairs
            .into_iter()
            .map(|(k, v)| Json::Array(vec![Json::UInt(k as u64), Json::UInt(v)]))
            .collect(),
    )
}

/// Inverse of [`pc_map_to_json`].
pub(crate) fn pc_map_from_json(v: &Json) -> Result<HashMap<usize, u64>, JsonError> {
    let mut map = HashMap::new();
    for pair in v.as_array()? {
        let pair = pair.as_array()?;
        if pair.len() != 2 {
            return Err(JsonError::shape("pc map entry is not a [pc, count] pair"));
        }
        map.insert(pair[0].as_usize()?, pair[1].as_u64()?);
    }
    Ok(map)
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Maximum container-nesting depth [`Json::parse`] accepts. The parser
/// is recursive-descent; without this bound a hostile input of a few
/// thousand `[` bytes overflows the stack (an abort, not a `Result`).
/// Real profiles nest 4 levels deep.
pub(crate) const MAX_DEPTH: usize = 128;

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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::parse(
                format!("expected {:?}", b as char),
                self.pos,
            ))
        }
    }

    fn expect_literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(JsonError::parse(format!("expected {lit:?}"), self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(JsonError::parse(
                format!("nesting deeper than {MAX_DEPTH}"),
                self.pos,
            ));
        }
        self.depth += 1;
        let v = match self.peek() {
            Some(b'n') => self.expect_literal("null", Json::Null),
            Some(b't') => self.expect_literal("true", Json::Bool(true)),
            Some(b'f') => self.expect_literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(JsonError::parse(
                format!("unexpected {:?}", b as char),
                self.pos,
            )),
            None => Err(JsonError::parse("unexpected end of input", self.pos)),
        };
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(JsonError::parse("expected ',' or ']'", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
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
                    return Ok(Json::Object(fields));
                }
                _ => return Err(JsonError::parse("expected ',' or '}'", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(JsonError::parse("unterminated string", start)),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| JsonError::parse("short \\u escape", start))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| JsonError::parse("bad \\u escape", start))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::parse("bad \\u escape", start))?;
                            // Surrogate pairs don't occur in profile data.
                            let c = char::from_u32(code)
                                .ok_or_else(|| JsonError::parse("bad \\u escape", start))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(JsonError::parse("bad escape", start)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| JsonError::parse("invalid utf-8", start))?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::parse("invalid number", start))?;
        if !float && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonError::parse("invalid number", start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "42", "18446744073709551615"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
        let v = Json::parse("-2.5").unwrap();
        assert_eq!(v, Json::Float(-2.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
    }

    #[test]
    fn uints_do_not_lose_precision() {
        let n = u64::MAX - 1;
        let v = Json::parse(&Json::UInt(n).to_string()).unwrap();
        assert_eq!(v.as_u64().unwrap(), n);
    }

    #[test]
    fn round_trips_structures() {
        let v = Json::Object(vec![
            ("name".into(), Json::Str("a \"b\"\n".into())),
            (
                "xs".into(),
                Json::Array(vec![Json::UInt(1), Json::Float(0.5), Json::Null]),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn accessors_check_shape() {
        let v = Json::parse(r#"{"a": [1, 2]}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert!(v.get("b").is_err());
        assert!(v.as_str().is_err());
        assert!(v.get("a").unwrap().as_u64().is_err());
    }

    #[test]
    fn pc_maps_round_trip_sorted() {
        let mut m = HashMap::new();
        m.insert(9usize, 1u64);
        m.insert(3, 7);
        let j = pc_map_to_json(&m);
        assert_eq!(j.to_string(), "[[3,7],[9,1]]");
        assert_eq!(pc_map_from_json(&j).unwrap(), m);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "\"x", "{\"a\" 1}", "01x", "[1] trailing"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        // Without MAX_DEPTH this input blows the parser's recursion and
        // aborts the process instead of returning Err.
        for text in ["[".repeat(100_000), "{\"k\":".repeat(100_000)] {
            let err = Json::parse(&text).unwrap_err();
            assert!(err.to_string().contains("nesting"), "got: {err}");
        }
        // Nesting at the limit still parses.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH - 1), "]".repeat(MAX_DEPTH - 1));
        assert!(Json::parse(&ok).is_ok());
        let too_deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&too_deep).is_err());
    }

    #[test]
    fn truncation_at_every_offset_is_a_typed_error() {
        let v = Json::Object(vec![
            ("name".into(), Json::Str("p \"q\" \\r".into())),
            ("xs".into(), Json::Array(vec![Json::UInt(7), Json::Null])),
            ("f".into(), Json::Float(1.25)),
        ]);
        let text = v.to_string();
        for cut in 0..text.len() {
            if !text.is_char_boundary(cut) {
                continue;
            }
            // Must be Err or a valid prefix-parse — never a panic. A
            // strict prefix of this document is never valid JSON.
            assert!(Json::parse(&text[..cut]).is_err(), "accepted cut at {cut}");
        }
    }
}
