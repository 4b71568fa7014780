//! A minimal JSON value parser, and the validator that is that parse.
//!
//! The vendored `serde_json` stand-in is serialize-only, so tests that
//! assert the exporters emit *well-formed* JSON need a checker, and the
//! acceptance pins need to *read* the committed `BENCH_*.json` artifacts.
//! One strict recursive descent over RFC 8259 serves both: [`parse_json`]
//! builds a [`Json`] value tree or reports the byte offset of the first
//! violation, and [`validate_json`] is the same parse with the tree
//! dropped. Nesting deeper than 128 arrays and objects is refused, so a
//! hostile text cannot overflow the stack.

use std::collections::BTreeMap;

/// A parsed JSON value.
///
/// Numbers are kept as `f64` (every value the artifacts emit fits; u64
/// precision above 2⁵³ is not needed for latency microseconds or counts —
/// callers that care use [`Json::as_u64`] and accept the rounding).
/// Object keys are name-sorted; the artifacts never rely on key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on objects (`None` otherwise).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Path lookup: `get("a").get("b")…` in one call.
    pub fn path(&self, keys: &[&str]) -> Option<&Json> {
        keys.iter().try_fold(self, |v, k| v.get(k))
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Validate that `s` is one complete JSON value. Returns the byte offset
/// and a description of the first error.
pub fn validate_json(s: &str) -> Result<(), String> {
    parse_json(s).map(|_| ())
}

/// Arrays and objects nest at most this deep. The committed artifacts nest
/// a handful of levels; the bound keeps a hostile text's recursion off the
/// end of the stack.
const MAX_DEPTH: usize = 128;

/// Parse `s` into a [`Json`] value tree.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let b = s.as_bytes();
    let pos = skip_ws(b, 0);
    let (v, pos) = parse_value(b, pos, 0)?;
    let pos = skip_ws(b, pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

/// A value at nesting `depth` (the number of arrays and objects around it).
fn parse_value(b: &[u8], pos: usize, depth: usize) -> Result<(Json, usize), String> {
    match b.get(pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(err(pos, "nesting too deep")),
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => {
            let (s, p) = parse_string(b, pos)?;
            Ok((Json::Str(s), p))
        }
        Some(b't') => literal(b, pos, b"true").map(|p| (Json::Bool(true), p)),
        Some(b'f') => literal(b, pos, b"false").map(|p| (Json::Bool(false), p)),
        Some(b'n') => literal(b, pos, b"null").map(|p| (Json::Null, p)),
        Some(c) if *c == b'-' || c.is_ascii_digit() => {
            let end = number(b, pos)?;
            let text = std::str::from_utf8(&b[pos..end]).map_err(|_| err(pos, "utf8"))?;
            let n: f64 = text.parse().map_err(|_| err(pos, "unparseable number"))?;
            Ok((Json::Num(n), end))
        }
        Some(_) => Err(err(pos, "unexpected character")),
        None => Err(err(pos, "unexpected end of input")),
    }
}

fn parse_object(b: &[u8], mut pos: usize, depth: usize) -> Result<(Json, usize), String> {
    let mut m = BTreeMap::new();
    pos = skip_ws(b, pos + 1); // past '{'
    if b.get(pos) == Some(&b'}') {
        return Ok((Json::Obj(m), pos + 1));
    }
    loop {
        if b.get(pos) != Some(&b'"') {
            return Err(err(pos, "expected object key"));
        }
        let (key, p) = parse_string(b, pos)?;
        pos = skip_ws(b, p);
        if b.get(pos) != Some(&b':') {
            return Err(err(pos, "expected ':'"));
        }
        pos = skip_ws(b, pos + 1);
        let (v, p) = parse_value(b, pos, depth)?;
        m.insert(key, v);
        pos = skip_ws(b, p);
        match b.get(pos) {
            Some(b',') => pos = skip_ws(b, pos + 1),
            Some(b'}') => return Ok((Json::Obj(m), pos + 1)),
            _ => return Err(err(pos, "expected ',' or '}'")),
        }
    }
}

fn parse_array(b: &[u8], mut pos: usize, depth: usize) -> Result<(Json, usize), String> {
    let mut v = Vec::new();
    pos = skip_ws(b, pos + 1); // past '['
    if b.get(pos) == Some(&b']') {
        return Ok((Json::Arr(v), pos + 1));
    }
    loop {
        let (item, p) = parse_value(b, pos, depth)?;
        v.push(item);
        pos = skip_ws(b, p);
        match b.get(pos) {
            Some(b',') => pos = skip_ws(b, pos + 1),
            Some(b']') => return Ok((Json::Arr(v), pos + 1)),
            _ => return Err(err(pos, "expected ',' or ']'")),
        }
    }
}

/// Parse a string, decoding its escapes.
fn parse_string(b: &[u8], mut pos: usize) -> Result<(String, usize), String> {
    let mut out = String::new();
    pos += 1; // past opening quote
    while let Some(&c) = b.get(pos) {
        match c {
            b'"' => return Ok((out, pos + 1)),
            b'\\' => {
                match b.get(pos + 1) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        if b.len() < pos + 6
                            || !b[pos + 2..pos + 6].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(err(pos, "invalid \\u escape"));
                        }
                        let hex = std::str::from_utf8(&b[pos + 2..pos + 6]).unwrap();
                        let cp = u32::from_str_radix(hex, 16).unwrap();
                        // Surrogates (paired or lone) are replaced — the
                        // artifacts never emit non-BMP escapes.
                        out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        pos += 6;
                        continue;
                    }
                    _ => return Err(err(pos, "invalid escape")),
                }
                pos += 2;
            }
            0x00..=0x1f => return Err(err(pos, "unescaped control character")),
            _ => {
                // Copy the full UTF-8 sequence starting here.
                let start = pos;
                pos += 1;
                while b.get(pos).is_some_and(|&x| x & 0xC0 == 0x80) {
                    pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&b[start..pos]).map_err(|_| err(start, "invalid utf8"))?,
                );
            }
        }
    }
    Err(err(pos, "unterminated string"))
}

fn err(pos: usize, what: &str) -> String {
    format!("{what} at byte {pos}")
}

fn skip_ws(b: &[u8], mut pos: usize) -> usize {
    while pos < b.len() && matches!(b[pos], b' ' | b'\t' | b'\n' | b'\r') {
        pos += 1;
    }
    pos
}

fn literal(b: &[u8], pos: usize, lit: &[u8]) -> Result<usize, String> {
    if b.len() >= pos + lit.len() && &b[pos..pos + lit.len()] == lit {
        Ok(pos + lit.len())
    } else {
        Err(err(pos, "invalid literal"))
    }
}

fn number(b: &[u8], mut pos: usize) -> Result<usize, String> {
    let start = pos;
    if b.get(pos) == Some(&b'-') {
        pos += 1;
    }
    match b.get(pos) {
        Some(b'0') => pos += 1,
        Some(c) if c.is_ascii_digit() => {
            while b.get(pos).is_some_and(u8::is_ascii_digit) {
                pos += 1;
            }
        }
        _ => return Err(err(start, "invalid number")),
    }
    if b.get(pos) == Some(&b'.') {
        pos += 1;
        if !b.get(pos).is_some_and(u8::is_ascii_digit) {
            return Err(err(pos, "digits required after '.'"));
        }
        while b.get(pos).is_some_and(u8::is_ascii_digit) {
            pos += 1;
        }
    }
    if matches!(b.get(pos), Some(b'e' | b'E')) {
        pos += 1;
        if matches!(b.get(pos), Some(b'+' | b'-')) {
            pos += 1;
        }
        if !b.get(pos).is_some_and(u8::is_ascii_digit) {
            return Err(err(pos, "digits required in exponent"));
        }
        while b.get(pos).is_some_and(u8::is_ascii_digit) {
            pos += 1;
        }
    }
    Ok(pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_json() {
        for s in [
            "{}",
            "[]",
            "null",
            "-12.5e3",
            "\"a \\\"quoted\\\" string\"",
            "{\"a\":[1,2,{\"b\":null}],\"c\":true}",
            " { \"x\" : [ 1 , 2 ] } ",
        ] {
            validate_json(s).unwrap_or_else(|e| panic!("{s}: {e}"));
        }
    }

    #[test]
    fn parses_values() {
        let v = parse_json("{\"a\":[1,2.5,{\"b\":null}],\"c\":true,\"s\":\"x\\ny\"}").unwrap();
        assert_eq!(v.path(&["a"]).and_then(Json::as_array).map(<[Json]>::len), Some(3));
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.path(&["a"]).unwrap().as_array().unwrap()[2].get("b"), Some(&Json::Null));
        assert_eq!(v.get("c").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x\ny"));
        assert_eq!(parse_json("-12.5e2").unwrap().as_f64(), Some(-1250.0));
        assert_eq!(parse_json("42").unwrap().as_u64(), Some(42));
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{} x").is_err());
    }

    /// Nesting past the bound is an error, not a stack overflow; nesting
    /// up to it parses.
    #[test]
    fn refuses_nesting_past_the_bound() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_json(&deep(MAX_DEPTH)).is_ok());
        let err = parse_json(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.starts_with("nesting too deep"), "{err}");
        assert!(validate_json(&"[".repeat(100_000)).is_err());
        assert!(validate_json(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn rejects_invalid_json() {
        for s in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "01",
            "1.",
            "\"unterminated",
            "{} trailing",
            "{'single':1}",
        ] {
            assert!(validate_json(s).is_err(), "accepted: {s}");
        }
    }
}
