//! Minimal JSON writer and parser.
//!
//! The workspace has a no-external-registry constraint, so serialization
//! is hand-rolled: [`JsonObj`]/[`JsonArr`] build deterministic JSON text
//! (fixed field order, fixed number formatting), and [`Value::parse`] is
//! a small recursive-descent reader used by schema checkers
//! (`trace_check`) and, later, the scenario engine.

use std::fmt::Write as _;

/// Escapes `s` as JSON string *contents* (no surrounding quotes).
fn escape_into(s: &str, out: &mut String) {
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
}

/// Builder for one JSON object. Fields appear in insertion order.
#[derive(Debug)]
pub struct JsonObj {
    buf: String,
    has_fields: bool,
}

impl Default for JsonObj {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonObj {
    /// Starts an empty object.
    #[must_use]
    pub fn new() -> Self {
        JsonObj { buf: String::from("{"), has_fields: false }
    }

    fn key(&mut self, k: &str) {
        if self.has_fields {
            self.buf.push(',');
        }
        self.has_fields = true;
        self.buf.push('"');
        escape_into(k, &mut self.buf);
        self.buf.push_str("\":");
    }

    /// Adds an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) {
        self.key(k);
        let _ = write!(self.buf, "{v}");
    }

    /// Adds a float field, rendered with four decimal places (fixed
    /// formatting keeps exports byte-stable across platforms).
    pub fn f64(&mut self, k: &str, v: f64) {
        self.key(k);
        let _ = write!(self.buf, "{v:.4}");
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Adds a string field (escaped).
    pub fn str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.buf.push('"');
        escape_into(v, &mut self.buf);
        self.buf.push('"');
    }

    /// Adds a field whose value is already-rendered JSON.
    pub fn raw(&mut self, k: &str, v: &str) {
        self.key(k);
        self.buf.push_str(v);
    }

    /// Closes the object and returns its text.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Builder for one JSON array.
#[derive(Debug)]
pub struct JsonArr {
    buf: String,
    has_items: bool,
}

impl Default for JsonArr {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonArr {
    /// Starts an empty array.
    #[must_use]
    pub fn new() -> Self {
        JsonArr { buf: String::from("["), has_items: false }
    }

    /// Appends already-rendered JSON as the next element.
    pub fn raw(&mut self, v: &str) {
        if self.has_items {
            self.buf.push(',');
        }
        self.has_items = true;
        self.buf.push_str(v);
    }

    /// Closes the array and returns its text.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.buf.push(']');
        self.buf
    }
}

/// A parsed JSON value.
///
/// Numbers are kept as `f64`; every integer this workspace serializes is
/// well below 2^53, so the round-trip is exact where it matters.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses one JSON document, requiring it to consume the whole input.
    ///
    /// # Errors
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(s: &str) -> Result<Value, String> {
        let b = s.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }

    /// Looks up a key in an object (`None` for non-objects/missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at offset {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at offset {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("bad number {text:?} at offset {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar. Input came from &str so the
                // byte stream is valid UTF-8.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or_else(|| "unterminated string".to_string())?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        fields.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {}", *pos)),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_builds_objects_and_arrays() {
        let mut o = JsonObj::new();
        o.u64("a", 1);
        o.str("b", "x\"y\n");
        o.bool("c", true);
        o.f64("d", 0.5);
        let mut arr = JsonArr::new();
        arr.raw("1");
        arr.raw("2");
        o.raw("e", &arr.finish());
        assert_eq!(o.finish(), r#"{"a":1,"b":"x\"y\n","c":true,"d":0.5000,"e":[1,2]}"#);
    }

    #[test]
    fn parser_round_trips_writer_output() {
        let mut o = JsonObj::new();
        o.u64("at", 1234);
        o.str("kind", "recovered");
        o.f64("rate", 0.25);
        let text = o.finish();
        let v = Value::parse(&text).unwrap();
        assert_eq!(v.get("at").and_then(Value::as_u64), Some(1234));
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("recovered"));
        assert_eq!(v.get("rate").and_then(Value::as_f64), Some(0.25));
    }

    #[test]
    fn parser_handles_nesting_and_rejects_garbage() {
        let v = Value::parse(r#"{"a":[1,{"b":null},true],"c":{"d":"e"}}"#).unwrap();
        match v.get("a") {
            Some(Value::Arr(items)) => assert_eq!(items.len(), 3),
            other => panic!("bad: {other:?}"),
        }
        assert!(Value::parse("{").is_err());
        assert!(Value::parse(r#"{"a":1}x"#).is_err());
        assert!(Value::parse(r#"{"a":}"#).is_err());
        assert!(Value::parse("[1,2").is_err());
    }

    #[test]
    fn escapes_control_chars() {
        let mut s = String::new();
        escape_into("a\u{1}b", &mut s);
        assert_eq!(s, "a\\u0001b");
        assert_eq!(Value::parse("\"a\\u0041b\"").unwrap(), Value::Str("aAb".into()));
    }
}
