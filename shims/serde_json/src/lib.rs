//! Offline shim of `serde_json`: a complete JSON emitter and parser
//! over the serde shim's [`Value`](serde::export::Value) data model.
//!
//! Supports the subset of the real crate's API used by this workspace:
//! [`to_string`], [`to_string_pretty`], [`from_str`], [`Error`], and
//! a [`Value`] re-export.

use serde::de::Error as _;
use serde::export::{from_value, to_value, ValueDeserializer};
use serde::{DeserializeOwned, Serialize};
use std::fmt;

pub use serde::export::Value;

/// Serialization / deserialization error.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::new(msg.to_string())
    }
}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::new(msg.to_string())
    }
}

/// Convenience alias matching real `serde_json`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let v = to_value(value).map_err(|e| Error::new(e.to_string()))?;
    let mut out = String::new();
    write_value(&v, None, 0, &mut out)?;
    Ok(out)
}

/// Serializes `value` to an indented JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let v = to_value(value).map_err(|e| Error::new(e.to_string()))?;
    let mut out = String::new();
    write_value(&v, Some("  "), 0, &mut out)?;
    Ok(out)
}

/// Deserializes a `T` from a JSON string.
pub fn from_str<T: DeserializeOwned>(s: &str) -> Result<T> {
    let value = parse(s)?;
    from_value(value).map_err(|e| Error::new(e.to_string()))
}

/// Serializes `value` into a [`Value`] tree.
pub fn to_value_tree<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    to_value(value).map_err(|e| Error::new(e.to_string()))
}

/// Deserializes a `T` out of a [`Value`] tree.
pub fn from_value_tree<T: DeserializeOwned>(value: Value) -> Result<T> {
    T::deserialize(ValueDeserializer::new(value)).map_err(|e| Error::new(e.to_string()))
}

// ---------------------------------------------------------------------------
// Emitter
// ---------------------------------------------------------------------------

fn write_escaped(s: &str, out: &mut String) {
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

fn newline_indent(indent: Option<&str>, depth: usize, out: &mut String) {
    if let Some(pad) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(pad);
        }
    }
}

fn write_value(v: &Value, indent: Option<&str>, depth: usize, out: &mut String) -> Result<()> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Float(f) => {
            if !f.is_finite() {
                return Err(Error::new("cannot serialize non-finite float as JSON"));
            }
            // Keep integral floats recognizable as numbers either way; the
            // shim deserializer accepts both integer and float tokens for
            // float targets.
            let s = format!("{f}");
            out.push_str(&s);
        }
        Value::Str(s) => write_escaped(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_value(item, indent, depth + 1, out)?;
            }
            if !items.is_empty() {
                newline_indent(indent, depth, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, indent, depth + 1, out)?;
            }
            if !entries.is_empty() {
                newline_indent(indent, depth, out);
            }
            out.push('}');
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            None => Err(Error::new("unexpected end of input")),
            Some(b'n') => {
                if self.eat_keyword("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error::new(format!("invalid token at byte {}", self.pos)))
                }
            }
            Some(b't') => {
                if self.eat_keyword("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(Error::new(format!("invalid token at byte {}", self.pos)))
                }
            }
            Some(b'f') => {
                if self.eat_keyword("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(Error::new(format!("invalid token at byte {}", self.pos)))
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(Error::new(format!(
                "unexpected character `{}` at byte {}",
                b as char, self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(Error::new("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(Error::new("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.eat_keyword("\\u") {
                                    let hex2 = self
                                        .bytes
                                        .get(self.pos..self.pos + 4)
                                        .ok_or_else(|| Error::new("truncated \\u escape"))?;
                                    let hex2 = std::str::from_utf8(hex2)
                                        .map_err(|_| Error::new("invalid \\u escape"))?;
                                    let low = u32::from_str_radix(hex2, 16)
                                        .map_err(|_| Error::new("invalid \\u escape"))?;
                                    self.pos += 4;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(Error::new(
                                            "high surrogate not followed by low surrogate",
                                        ));
                                    }
                                    let combined =
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| Error::new("invalid surrogate pair"))?
                                } else {
                                    return Err(Error::new("lone surrogate in string"));
                                }
                            } else {
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(Error::new(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: re-decode from the byte slice.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let slice = self
                        .bytes
                        .get(start..start + len)
                        .ok_or_else(|| Error::new("truncated UTF-8 sequence"))?;
                    let s = std::str::from_utf8(slice)
                        .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .or_else(|_| text.parse::<f64>().map(Value::Float))
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .or_else(|_| text.parse::<f64>().map(Value::Float))
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    if first >= 0xF0 {
        4
    } else if first >= 0xE0 {
        3
    } else {
        2
    }
}

/// Suppresses an unused-import warning when no caller needs it; also a
/// tiny internal sanity hook used by unit tests.
#[allow(dead_code)]
fn _assert_error_is_de_error() {
    fn _take<E: serde::de::Error>() {}
    _take::<Error>();
    let _ = Error::custom("x");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(from_str::<u32>("42").unwrap(), 42);
        assert_eq!(to_string(&-7i64).unwrap(), "-7");
        assert_eq!(from_str::<i64>("-7").unwrap(), -7);
        assert_eq!(to_string(&true).unwrap(), "true");
        assert!(!from_str::<bool>("false").unwrap());
        assert_eq!(to_string("a\"b\n").unwrap(), "\"a\\\"b\\n\"");
        assert_eq!(from_str::<String>("\"a\\\"b\\n\"").unwrap(), "a\"b\n");
        assert_eq!(from_str::<f64>("2.5e1").unwrap(), 25.0);
    }

    #[test]
    fn round_trip_containers() {
        let v: Vec<(u32, String)> = vec![(1, "a".into()), (2, "b".into())];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[[1,\"a\"],[2,\"b\"]]");
        let back: Vec<(u32, String)> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn map_with_integer_keys() {
        use std::collections::BTreeMap;
        let mut m = BTreeMap::new();
        m.insert(3u32, "x".to_string());
        let json = to_string(&m).unwrap();
        assert_eq!(json, "{\"3\":\"x\"}");
        let back: BTreeMap<u32, String> = from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn unicode_and_escapes() {
        let s = "héllo \u{1F600} \u{8}";
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
        let surrogate: String = from_str("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(surrogate, "\u{1F600}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<u32>("4x").is_err());
        assert!(from_str::<u32>("").is_err());
        assert!(from_str::<Vec<u32>>("[1,").is_err());
        assert!(from_str::<bool>("truthy").is_err());
    }

    #[test]
    fn rejects_malformed_surrogates() {
        // High surrogate followed by a non-low-surrogate escape must be
        // an Err, not a panic or a mangled code point.
        assert!(from_str::<String>("\"\\ud83d\\u0041\"").is_err());
        // Lone high surrogate at end of string.
        assert!(from_str::<String>("\"\\ud83d\"").is_err());
    }
}
