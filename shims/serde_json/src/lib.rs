//! Offline stand-in for the `serde_json` crate.
//!
//! Works over the value-tree model of the sibling `serde` shim:
//! [`to_string`]/[`to_string_pretty`] render a [`Value`] tree to JSON
//! text, [`from_str`] parses JSON text back into any `Deserialize` type.
//!
//! Matches real serde_json conventions where they are observable here:
//! two-space pretty indentation, `null` for non-finite floats, and a
//! trailing `.0` on integral floats.

#![warn(missing_docs)]

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// JSON serialization/deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Self::new(e.to_string())
    }
}

/// Render any serializable value to compact JSON.
///
/// # Errors
///
/// Infallible for the value model used here; the `Result` mirrors the real
/// serde_json signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Render any serializable value to two-space-indented JSON.
///
/// # Errors
///
/// Infallible for the value model used here; the `Result` mirrors the real
/// serde_json signature.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parse JSON text into any deserializable type.
///
/// # Errors
///
/// Returns an error on malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        s: s.as_bytes(),
        i: 0,
        depth: 0,
    };
    let value = p.parse_value()?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.i)));
    }
    Ok(T::from_value(&value)?)
}

/// Parse JSON text into a raw [`Value`] tree.
///
/// # Errors
///
/// Returns an error on malformed JSON.
pub fn value_from_str(s: &str) -> Result<Value, Error> {
    from_str(s)
}

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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{f}");
    out.push_str(&s);
    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
        out.push_str(".0");
    }
}

fn push_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => write_f64(out, *f),
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (k, item) in items.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                push_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            push_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (k, (key, item)) in entries.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                push_indent(out, indent, depth + 1);
                write_escaped(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            push_indent(out, indent, depth);
            out.push('}');
        }
    }
}

/// Deepest array/object nesting [`from_str`] accepts. The parser
/// recurses once per level, so without a limit a line of `[`s from a
/// client or a damaged file overflows the stack and aborts the process.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.s.get(self.i) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.i
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(Error::new(format!("unexpected input at byte {}", self.i))),
        }
    }

    /// Parse one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.i
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_literal(&mut self, lit: &str, value: Value) -> Result<Value, Error> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(value)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.i)))
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Object(entries));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.i
                    )))
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.i
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
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
                            self.i += 1;
                            let hi = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect a following \uXXXX.
                                if self.s[self.i..].starts_with(b"\\u") {
                                    self.i += 2;
                                    let lo = self.parse_hex4()?;
                                    let combined =
                                        0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| Error::new("invalid \\u escape"))?);
                            continue;
                        }
                        _ => return Err(Error::new("invalid escape")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so the
                    // byte slice is valid UTF-8).
                    let rest = std::str::from_utf8(&self.s[self.i..])
                        .map_err(|_| Error::new("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        if self.i + 4 > self.s.len() {
            return Err(Error::new("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.s[self.i..self.i + 4])
            .map_err(|_| Error::new("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| Error::new("invalid \\u escape"))?;
        self.i += 4;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.i += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.i += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.s[start..self.i])
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_round_trip() {
        let v = Value::Object(vec![
            ("a".to_owned(), Value::UInt(1)),
            (
                "b".to_owned(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("c".to_owned(), Value::Str("x\"y\n".to_owned())),
        ]);
        let compact = to_string(&v).unwrap();
        assert_eq!(compact, "{\"a\":1,\"b\":[true,null],\"c\":\"x\\\"y\\n\"}");
        let back: Value = from_str(&compact).unwrap();
        assert_eq!(v, back);
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  \"a\": 1"));
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(to_string(&5.0_f64).unwrap(), "5.0");
        assert_eq!(to_string(&0.5_f64).unwrap(), "0.5");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        let x: f64 = from_str("2.5e3").unwrap();
        assert_eq!(x, 2500.0);
    }

    #[test]
    fn negative_and_large_integers() {
        let v: i64 = from_str("-42").unwrap();
        assert_eq!(v, -42);
        let u: u64 = from_str("18446744073709551615").unwrap();
        assert_eq!(u, u64::MAX);
    }

    #[test]
    fn nesting_is_limited_instead_of_overflowing_the_stack() {
        let deep =
            |open: &str, close: &str, depth: usize| open.repeat(depth) + "0" + &close.repeat(depth);
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            assert!(from_str::<Value>(&deep(open, close, MAX_DEPTH)).is_ok());
            let err = from_str::<Value>(&deep(open, close, MAX_DEPTH + 1)).unwrap_err();
            assert!(err.to_string().contains("nesting deeper than"), "{err}");
            // Far past any stack: refused at the limit, not parsed.
            assert!(from_str::<Value>(&open.repeat(200_000)).is_err());
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<Value>("1 2").is_err());
        assert!(from_str::<Value>("{\"a\":}").is_err());
    }
}
