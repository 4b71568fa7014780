//! The workspace's one JSON module: a writer and a strict reader.
//!
//! **Writing.** [`to_json`] returns a value's compact text, [`to_json_pretty`]
//! the same re-indented (`BENCH_*.json`, `figure1 --json`); neither can
//! fail. A record implements [`ToJson`] through one field list in a
//! [`json_record!`](crate::json_record) block, keys in the listed order.
//!
//! **Reading.** Tests that assert the exporters emit *well-formed* JSON
//! need a checker, and the acceptance pins need to *read* the committed
//! `BENCH_*.json` artifacts. One strict recursive descent over RFC 8259
//! serves both: [`parse_json`] builds a [`Json`] value tree or reports the
//! byte offset of the first violation, and [`validate_json`] is the same
//! parse with the tree dropped. Nesting deeper than 128 arrays and objects
//! is refused, so a hostile text cannot overflow the stack.

use sqo_core::QueryStats;
use sqo_overlay::{Metrics, SimLatency};
use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};

/// A value that appends its compact JSON text to a buffer.
pub trait ToJson {
    fn write_json(&self, out: &mut String);
}

/// The compact JSON text of `value`.
pub fn to_json<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// [`to_json`], re-indented: every non-empty array and object opens a
/// level of two spaces, each element goes on its own line, and a key is
/// followed by `": "`. Empty `[]` and `{}` stay on one line.
pub fn to_json_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let compact = to_json(value);
    let mut out = String::with_capacity(compact.len() * 2);
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        (0..depth).for_each(|_| out.push_str("  "));
    };
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    let mut chars = compact.chars().peekable();
    while let Some(c) = chars.next() {
        if in_string {
            // A string literal is copied verbatim; `\"` does not end it.
            out.push(c);
            (in_string, escaped) = (escaped || c != '"', !escaped && c == '\\');
            continue;
        }
        if matches!(c, '}' | ']') {
            depth = depth.saturating_sub(1);
            newline(&mut out, depth);
        }
        out.push(c);
        match c {
            '"' => in_string = true,
            // Empty containers stay on one line.
            '{' | '[' => match chars.next_if(|&n| n == '}' || n == ']') {
                Some(close) => out.push(close),
                None => {
                    depth += 1;
                    newline(&mut out, depth);
                }
            },
            ',' => newline(&mut out, depth),
            ':' => out.push(' '),
            _ => {}
        }
    }
    out
}

/// Append `s` as a JSON string literal. A quote or a backslash gets a
/// backslash in front, `\n`, `\r` and `\t` are written by name, every
/// other character below U+0020 as `\u00xx`, and everything else (U+2028
/// included) as itself.
pub fn write_json_string(s: &str, out: &mut String) {
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

macro_rules! display_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_json!(u32, u64, usize);

/// Rust's shortest round-trip form; NaN and ±∞, which JSON lacks, `null`.
impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

macro_rules! string_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                write_json_string(self, out);
            }
        }
    )*};
}
string_json!(str, String);

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

/// An object keyed by each key's `Display` text, in the map's order.
impl<K: Display, V: ToJson> ToJson for BTreeMap<K, V> {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(&k.to_string(), out);
            out.push(':');
            v.write_json(out);
        }
        out.push('}');
    }
}

/// `json_record! { Type { field, … }; … }` writes each `Type` as a JSON
/// object of its fields, keyed by field name, in the order listed.
///
/// The impl destructures the whole record (`let Type { field, … } = self;`
/// with no `..`), so a field added to a struct but not to its list is a
/// compile error: no field leaves an artifact unnoticed. Invoke it where
/// the fields are visible, with `Type` in scope as a plain name; a type
/// that borrows names its one lifetime (`Type<'a> { … }`).
///
/// ```
/// struct Point { x: u64, label: String }
/// sqo_obs::json_record! { Point { x, label }; }
/// let p = Point { x: 3, label: "a".into() };
/// assert_eq!(sqo_obs::to_json(&p), r#"{"x":3,"label":"a"}"#);
/// ```
#[macro_export]
macro_rules! json_record {
    ($($ty:ident $(<$lt:lifetime>)? { $first:ident $(, $field:ident)* $(,)? };)+) => {$(
        impl<$($lt)?> $crate::ToJson for $ty<$($lt)?> {
            fn write_json(&self, out: &mut String) {
                let $ty { $first, $($field),* } = self;
                out.push_str(concat!("{\"", stringify!($first), "\":"));
                $crate::ToJson::write_json($first, out);
                $(
                    out.push_str(concat!(",\"", stringify!($field), "\":"));
                    $crate::ToJson::write_json($field, out);
                )*
                out.push('}');
            }
        }
    )+};
}

// The records of the crates below this one that a report carries.
json_record! {
    QueryStats {
        traffic, sim, probes, candidates, edit_comparisons, matches, rounds, cache_hits,
        cache_misses, probes_coalesced, join_window_peak, join_window_shrinks,
        partitions_addressed, partitions_answered, retries, gave_up,
    };
    Metrics {
        messages, bytes, route_hops, forward_msgs, result_msgs, result_bytes, failed_routes,
        local_items_scanned,
    };
    SimLatency {
        start_us, end_us, elapsed_us, net_us, queue_us, service_us, timed_messages,
        retransmissions, crit_net_us, crit_queue_us, crit_service_us, crit_stall_us,
    };
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

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
    use proptest::prelude::*;

    /// The characters a string literal must get right: both escapes by
    /// backslash, every control character, the first non-ASCII code
    /// points of each UTF-8 width, and U+2028, which JSON allows raw.
    const HARD: [char; 12] =
        ['"', '\\', '/', '\u{0}', '\u{1f}', '\n', '\r', '\t', 'é', '\u{2028}', '漢', '🦀'];

    proptest! {
        #[test]
        fn strings_read_back_as_written(picks in prop::collection::vec(0usize..38, 0..24)) {
            // Half the draws are hard characters, the rest plain letters.
            let s: String = picks
                .iter()
                .map(|&i| match HARD.get(i) {
                    Some(&c) => c,
                    None => char::from(b'a' + (i - HARD.len()) as u8),
                })
                .collect();
            let text = to_json(&s);
            prop_assert_eq!(parse_json(&text), Ok(Json::Str(s.clone())), "{}", text);
            prop_assert_eq!(parse_json(&to_json_pretty(&s)), Ok(Json::Str(s)));
        }

        #[test]
        fn finite_floats_read_back_exactly(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            prop_assume!(x.is_finite());
            prop_assert_eq!(parse_json(&to_json(&x)), Ok(Json::Num(x)));
        }
    }

    #[test]
    fn every_control_character_is_escaped() {
        for c in (0u32..0x20).filter_map(char::from_u32) {
            let text = to_json(&c.to_string());
            assert!(text.chars().all(|t| t >= ' '), "{text:?}");
            assert_eq!(parse_json(&text), Ok(Json::Str(c.to_string())));
        }
        assert_eq!(to_json("a\"b\\c\u{1}"), r#""a\"b\\c\u0001""#);
    }

    #[test]
    fn numbers_and_absent_values() {
        assert_eq!(to_json(&f64::NAN), "null");
        assert_eq!(to_json(&f64::INFINITY), "null");
        assert_eq!(to_json(&f64::NEG_INFINITY), "null");
        assert_eq!(to_json(&Some(f64::NAN)), "null");
        assert_eq!(to_json(&None::<u64>), "null");
        assert_eq!(to_json(&1.0f64), "1");
        assert_eq!(to_json(&0.1f64), "0.1");
        assert_eq!(to_json(&u64::MAX), "18446744073709551615");
        assert_eq!(to_json(&u32::MAX), "4294967295");
        assert_eq!(to_json(&vec![1u32, 2]), "[1,2]");
        let map: BTreeMap<&str, Option<u64>> = [("b", Some(2)), ("a", None)].into();
        assert_eq!(to_json(&map), r#"{"a":null,"b":2}"#);
    }

    struct Row {
        name: String,
        values: Vec<u64>,
        none: Vec<u64>,
        empty: BTreeMap<u32, u64>,
        tags: BTreeMap<u32, String>,
        ratio: f64,
    }
    json_record! { Row { name, values, none, empty, tags, ratio }; }

    /// The pretty form is the compact one re-indented: same value, keys in
    /// field order, empty containers on one line.
    #[test]
    fn pretty_is_the_compact_value_reindented() {
        let row = Row {
            name: "x{}[],:\"".into(),
            values: vec![1, 2],
            none: vec![],
            empty: BTreeMap::new(),
            tags: [(7, "a, b".to_string())].into(),
            ratio: 0.25,
        };
        let compact = to_json(&row);
        assert_eq!(
            compact,
            r#"{"name":"x{}[],:\"","values":[1,2],"none":[],"empty":{},"tags":{"7":"a, b"},"ratio":0.25}"#
        );
        let pretty = to_json_pretty(&row);
        assert_eq!(
            pretty,
            "{\n  \"name\": \"x{}[],:\\\"\",\n  \"values\": [\n    1,\n    2\n  ],\n  \
             \"none\": [],\n  \"empty\": {},\n  \"tags\": {\n    \"7\": \"a, b\"\n  },\n  \
             \"ratio\": 0.25\n}"
        );
        assert_eq!(parse_json(&pretty), parse_json(&compact));
        assert_eq!(to_json_pretty(&Vec::<u64>::new()), "[]");
    }

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
