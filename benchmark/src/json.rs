//! Writing JSON by hand (reading goes through the workspace's own
//! `sqo::obs::parse_json`, see `surface.rs`).

/// A number with all its digits (Rust prints the shortest text that reads
/// back to the same `f64`). JSON has no NaN or infinity: those become 0.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An object from keys and already-encoded values, in the given order.
pub fn object<K: AsRef<str>>(fields: &[(K, String)]) -> String {
    let body: Vec<String> =
        fields.iter().map(|(k, v)| format!("{}: {v}", string(k.as_ref()))).collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::parse_json;

    #[test]
    fn output_parses_back() {
        let text = object(&[
            ("a", num(1.2034)),
            ("s", string("quote \" slash \\ newline \n")),
            ("nan", num(f64::NAN)),
            ("nested", object(&[("k".to_string(), num(3.0))])),
        ]);
        let doc = parse_json(&text).expect("valid JSON");
        assert_eq!(doc.get("a").and_then(|v| v.as_f64()), Some(1.2034));
        assert_eq!(doc.get("s").and_then(|v| v.as_str()), Some("quote \" slash \\ newline \n"));
        assert_eq!(doc.get("nan").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(doc.path(&["nested", "k"]).and_then(|v| v.as_f64()), Some(3.0));
    }
}
