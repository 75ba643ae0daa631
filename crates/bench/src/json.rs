//! A minimal JSON value and recursive-descent parser.
//!
//! The workspace is dependency-free by construction, and the bench
//! tooling both writes JSON ([`Json::render`] is the one writer:
//! `antc bench`, `antc loadgen --out`, `antd`) and reads it back: the
//! `antc bench --baseline` perf guard compares a fresh run against a
//! stored `BENCH_runtime.json`, and the CLI tests validate the schema
//! structurally instead of by substring. This parser covers exactly
//! the JSON subset those artifacts use (no surrogate-pair escapes,
//! numbers via `f64`).

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the last value
    /// on lookup but both entries are retained for key-set checks).
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// [`JsonError`] with the byte offset of the first problem.
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let b = s.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(err(pos, "trailing characters after document"));
        }
        Ok(v)
    }

    /// Object field lookup (last occurrence wins); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's keys in source order; empty for non-objects.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// True for `null` (distinct from an absent key).
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Renders the value as pretty-printed JSON (2-space indent, a
    /// trailing newline at top level) — the inverse of [`Json::parse`]
    /// for everything this module represents. `antc loadgen --out` uses
    /// it to merge a new section into an existing `BENCH_runtime.json`
    /// without re-deriving the rest of the document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        render_value(self, 0, &mut out);
        out.push('\n');
        out
    }
}

fn render_value(v: &Json, indent: usize, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => {
            // `{}` on f64 round-trips through the parser (shortest
            // representation that parses back to the same value).
            out.push_str(&n.to_string());
        }
        Json::Str(s) => render_string(s, out),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent + 1));
                render_value(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push(']');
        }
        Json::Obj(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent + 1));
                render_string(k, out);
                out.push_str(": ");
                render_value(val, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push('}');
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn err(at: usize, msg: &str) -> JsonError {
    JsonError {
        at,
        msg: msg.to_string(),
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
        Some(_) => Err(err(*pos, "unexpected character")),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(err(*pos, "invalid literal"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .map(Json::Num)
        .ok_or_else(|| err(start, "invalid number"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = Vec::new();
    loop {
        match b.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| err(*pos, "invalid UTF-8 in string"));
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = b
                    .get(*pos)
                    .ok_or_else(|| err(*pos, "unterminated escape"))?;
                match esc {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0c),
                    b'u' => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| err(*pos, "invalid \\u escape"))?;
                        let c = char::from_u32(hex)
                            .ok_or_else(|| err(*pos, "\\u escape outside the BMP scalar range"))?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "unknown escape")),
                }
                *pos += 1;
            }
            Some(&c) => {
                out.push(c);
                *pos += 1;
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']' in array")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected string key"));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(err(*pos, "expected ':' after key"));
        }
        *pos += 1;
        fields.push((key, parse_value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(err(*pos, "expected ',' or '}' in object")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let doc = r#"{"a": 1.5, "b": [true, null, "x\n\"y\""], "c": {"d": -3e2}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(1.5));
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert!(arr[1].is_null());
        assert_eq!(arr[2].as_str(), Some("x\n\"y\""));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_f64(), Some(-300.0));
        assert_eq!(v.keys(), vec!["a", "b", "c"]);
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = Json::parse(r#""éA""#).unwrap();
        assert_eq!(v.as_str(), Some("éA"));
    }

    #[test]
    fn rejects_garbage_with_offsets() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"abc").is_err());
        let e = Json::parse("[1, nul]").unwrap_err();
        assert!(e.at >= 4, "{e}");
    }

    #[test]
    fn render_parse_roundtrip_is_identity() {
        let doc =
            r#"{"a": 1.5, "b": [true, null, "x\n\"y\""], "c": {"d": -300, "e": [], "f": {}}}"#;
        let v = Json::parse(doc).unwrap();
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v, "{rendered}");
        // Rendering is stable: render(parse(render(v))) == render(v).
        assert_eq!(Json::parse(&rendered).unwrap().render(), rendered);
        // Control characters escape; integers print without a fraction.
        assert_eq!(Json::Str("a\u{1}b".into()).render(), "\"a\\u0001b\"\n");
        assert_eq!(Json::Num(42.0).render(), "42\n");
    }

    #[test]
    fn roundtrips_a_bench_style_document() {
        let doc = "{\n  \"schema\": \"ant-bench/runtime-v2\",\n  \"quick\": true,\n  \"workloads\": [\n    {\"name\": \"mlp\", \"p999_us\": 12.34, \"allocs_per_request\": null}\n  ]\n}\n";
        let v = Json::parse(doc).unwrap();
        assert_eq!(
            v.get("schema").unwrap().as_str(),
            Some("ant-bench/runtime-v2")
        );
        let w = &v.get("workloads").unwrap().as_arr().unwrap()[0];
        assert_eq!(w.get("p999_us").unwrap().as_f64(), Some(12.34));
        assert!(w.get("allocs_per_request").unwrap().is_null());
        assert!(w.get("missing").is_none());
    }
}
