//! The workspace's one std-only JSON codec (the offline build rules out
//! serde).
//!
//! Audit findings serialize through it, and the repo benchmark
//! (`benchmark/`) writes and compares its result records with it. The
//! dialect is deliberately strict where floats are concerned: `NaN`,
//! `Infinity` and overflowing literals like `1e999` are rejected on parse,
//! and non-finite numbers are rejected on write — a finding or measurement
//! containing one is corrupt by definition and must not silently enter a
//! committed file. Objects keep insertion order, so writes are stable.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (writing a NaN/infinite value is an error).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key/value list (order preserved, duplicate
    /// keys rejected on parse).
    Obj(Vec<(String, Json)>),
}

/// Nesting depth cap: deeper documents are rejected rather than risking
/// parser recursion overflow on adversarial input.
const MAX_DEPTH: usize = 64;

impl Json {
    /// Parses a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }

    /// Serializes the value compactly. Fails on non-finite numbers.
    pub fn write(&self) -> Result<String, String> {
        let mut out = String::new();
        write_value(self, &mut out)?;
        Ok(out)
    }

    /// Looks up a key of an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Appends a field to an object under construction (panics on
    /// non-objects — a construction bug, not data).
    pub fn push(&mut self, key: &str, value: Json) -> &mut Json {
        match self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            _ => unreachable!("Json::push on a non-object"),
        }
        self
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err("unexpected end of input".to_string());
    };
    match b {
        b'n' => parse_lit(bytes, pos, "null", Json::Null),
        b't' => parse_lit(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(bytes, pos, "false", Json::Bool(false)),
        b'"' => parse_string(bytes, pos).map(Json::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut fields: Vec<(String, Json)> = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                if fields.iter().any(|(k, _)| *k == key) {
                    return Err(format!("duplicate key `{key}`"));
                }
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {pos}", pos = *pos));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        // `NaN` / `Infinity` land here: not valid JSON, and not a number
        // this dialect will ever accept.
        _ => Err(format!("unexpected byte {b:#04x} at {pos}", pos = *pos)),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "non-utf8".to_string())?;
    let x: f64 = text
        .parse()
        .map_err(|_| format!("invalid number `{text}`"))?;
    if !x.is_finite() {
        // Overflowing literals (`1e999`) parse to infinity; refuse them.
        return Err(format!("non-finite number `{text}`"));
    }
    Ok(Json::Num(x))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        *pos += 4;
                        // Surrogates and other invalid code points degrade
                        // to the replacement character rather than failing.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("unknown escape \\{}", esc as char)),
                }
            }
            _ => {
                // Re-borrow the raw utf8 run for multi-byte characters.
                let run_start = *pos - 1;
                let mut end = *pos;
                while end < bytes.len() && bytes[end] != b'"' && bytes[end] != b'\\' {
                    end += 1;
                }
                let run = std::str::from_utf8(&bytes[run_start..end])
                    .map_err(|_| "non-utf8 string".to_string())?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

fn write_value(value: &Json, out: &mut String) -> Result<(), String> {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(x) => {
            if !x.is_finite() {
                return Err(format!("cannot serialize non-finite number {x}"));
            }
            if x.fract() == 0.0 && x.abs() < 9.0e15 {
                out.push_str(&format!("{}", *x as i64));
            } else {
                out.push_str(&format!("{x}"));
            }
        }
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out)?;
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                write_value(item, out)?;
            }
            out.push('}');
        }
    }
    Ok(())
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let src = r#"{"a":[1,2.5,-3],"b":{"c":"x\ny","d":null},"e":true}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(Json::parse(&v.write().unwrap()).unwrap(), v);
        assert_eq!(v.get("e"), Some(&Json::Bool(true)));
        assert_eq!(v.get("a").and_then(|a| a.get("c")), None);

        // Shortest-round-trip floats parse back bit-identical, and the
        // insertion order (b before a) survives.
        let mut doc = Json::Obj(Vec::new());
        doc.push("b", Json::Num(2.0))
            .push("a", Json::Num(0.1 + 0.2));
        let text = doc.write().unwrap();
        assert_eq!(text, "{\"b\":2,\"a\":0.30000000000000004}");
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn rejects_non_finite_both_ways() {
        assert!(Json::parse("NaN").is_err());
        assert!(Json::parse("Infinity").is_err());
        assert!(Json::parse("-Infinity").is_err());
        assert!(Json::parse("1e999").is_err(), "overflow to inf");
        assert!(Json::parse("[1, NaN]").is_err());
        assert!(Json::Num(f64::NAN).write().is_err());
        assert!(Json::Num(f64::INFINITY).write().is_err());
        assert!(Json::Arr(vec![Json::Num(f64::NEG_INFINITY)])
            .write()
            .is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,\"a\":2}", // duplicate key
            "tru",
            "\"unterminated",
            "{\"a\":1} trailing",
            "01x",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn depth_cap_enforced() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn accessors() {
        let doc = Json::parse("{\"n\": 5, \"s\": \"x\"}").unwrap();
        assert_eq!(doc.get("n"), Some(&Json::Num(5.0)));
        assert_eq!(doc.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("n").unwrap().as_str(), None);
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::Str("a\"b\\c\nd\te\u{0001}".to_string());
        let text = v.write().unwrap();
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\"").unwrap(),
            Json::Str("Aé".to_string())
        );
    }
}
