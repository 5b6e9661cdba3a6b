//! The JSON value tree, text writer and parser backing the serde shim.

use std::fmt;

/// A parsed or to-be-written JSON value.
///
/// Integers keep their signedness ([`Value::U64`] / [`Value::I64`]) so that
/// 64-bit counters round-trip exactly; floats use the shortest
/// representation that round-trips (`{:?}` formatting).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative (or explicitly signed) integer.
    I64(i64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Human-readable kind name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::U64(_) | Value::I64(_) => "integer",
            Value::F64(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Looks up a field of an object.
    ///
    /// # Errors
    ///
    /// Returns an error if `self` is not an object or the field is absent.
    pub fn field(&self, name: &str) -> Result<&Value, Error> {
        match self {
            Value::Object(pairs) => pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| Error::msg(format!("missing field `{name}`"))),
            other => Err(Error::msg(format!("expected object, found {}", other.kind()))),
        }
    }

    /// The value as a `u64`.
    ///
    /// # Errors
    ///
    /// Returns an error for non-integral or negative values.
    pub fn as_u64(&self) -> Result<u64, Error> {
        match *self {
            Value::U64(x) => Ok(x),
            Value::I64(x) if x >= 0 => Ok(x as u64),
            Value::F64(x) if x >= 0.0 && x.fract() == 0.0 && x <= u64::MAX as f64 => Ok(x as u64),
            ref other => {
                Err(Error::msg(format!("expected unsigned integer, found {}", other.kind())))
            }
        }
    }

    /// The value as an `i64`.
    ///
    /// # Errors
    ///
    /// Returns an error for non-integral or out-of-range values.
    pub fn as_i64(&self) -> Result<i64, Error> {
        match *self {
            Value::I64(x) => Ok(x),
            Value::U64(x) => {
                i64::try_from(x).map_err(|_| Error::msg(format!("integer {x} overflows i64")))
            }
            Value::F64(x) if x.fract() == 0.0 && x.abs() <= i64::MAX as f64 => Ok(x as i64),
            ref other => Err(Error::msg(format!("expected integer, found {}", other.kind()))),
        }
    }

    /// The value as an `f64` (integers convert losslessly where possible).
    ///
    /// # Errors
    ///
    /// Returns an error for non-numeric values.
    pub fn as_f64(&self) -> Result<f64, Error> {
        match *self {
            Value::F64(x) => Ok(x),
            Value::U64(x) => Ok(x as f64),
            Value::I64(x) => Ok(x as f64),
            Value::Null => Ok(f64::NAN),
            ref other => Err(Error::msg(format!("expected number, found {}", other.kind()))),
        }
    }

    /// The value as a string slice.
    ///
    /// # Errors
    ///
    /// Returns an error for non-string values.
    pub fn as_str(&self) -> Result<&str, Error> {
        match self {
            Value::String(s) => Ok(s),
            other => Err(Error::msg(format!("expected string, found {}", other.kind()))),
        }
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// Returns an error for non-array values.
    pub fn as_array(&self) -> Result<&[Value], Error> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(Error::msg(format!("expected array, found {}", other.kind()))),
        }
    }

    /// Renders compact JSON text.
    pub fn to_json_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders pretty-printed JSON text (two-space indent).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_close, sep) = match indent {
            Some(w) => ("\n", " ".repeat(w * (depth + 1)), " ".repeat(w * depth), ": "),
            None => ("", String::new(), String::new(), ":"),
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(x) => out.push_str(&x.to_string()),
            Value::I64(x) => out.push_str(&x.to_string()),
            Value::F64(x) => {
                if x.is_finite() {
                    // `{:?}` prints the shortest representation that
                    // round-trips, and always includes `.0` for integral
                    // floats so the type survives re-parsing.
                    out.push_str(&format!("{x:?}"));
                } else {
                    // JSON has no NaN/Inf; null is the conventional stand-in.
                    out.push_str("null");
                }
            }
            Value::String(s) => write_json_string(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad_close);
                out.push(']');
            }
            Value::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    write_json_string(out, k);
                    out.push_str(sep);
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad_close);
                out.push('}');
            }
        }
    }
}

fn write_json_string(out: &mut String, s: &str) {
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

/// Serialization / deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Creates an error from a message.
    pub fn msg(message: impl Into<String>) -> Self {
        Error { message: message.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level and `tenoc serve` feeds it lines from the network, so
/// without a bound one long run of `[` overflows the stack — an abort no
/// `catch_unwind` can contain. Every document the workspace writes nests
/// fewer than 16 levels.
const MAX_DEPTH: usize = 64;

/// Parses JSON text into a [`Value`].
///
/// # Errors
///
/// Returns [`Error`] (with byte offset) on malformed input and on
/// containers nested deeper than 64 levels.
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error::msg(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("invalid literal (expected `{lit}`)")))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(&mut self, container: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
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
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    (0xdc00..0xe000)
                                        .contains(&lo)
                                        .then(|| 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00))
                                        .and_then(char::from_u32)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a valid &str).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("unexpected end"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
        }
        text.parse::<f64>().map(Value::F64).map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "-7", "18446744073709551615", "1.5", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(parse(&v.to_json_compact()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn roundtrip_nested() {
        let text = r#"{"a":[1,2,{"b":null}],"c":"x\ny","d":-2.25}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.to_json_compact(), text);
        assert_eq!(parse(&v.to_json_pretty()).unwrap(), v);
    }

    #[test]
    fn float_precision_roundtrips() {
        let v = Value::F64(0.1 + 0.2);
        let back = parse(&v.to_json_compact()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn u64_precision_roundtrips() {
        let v = Value::U64(u64::MAX);
        assert_eq!(parse(&v.to_json_compact()).unwrap(), v);
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in ["{not json", "[1,", "\"unterminated", "tru", "{\"a\" 1}", "1 2"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    /// What a hostile peer can put on a `tenoc serve` socket: the parser
    /// must answer every one with `Ok` or `Err`, never a panic or a stack
    /// overflow (which aborts the whole process).
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let close = if open == "[" { "]" } else { "}" };
            let nest = |n: usize| format!("{}1{}", open.repeat(n), close.repeat(n));
            assert!(parse(&nest(MAX_DEPTH)).is_ok(), "{MAX_DEPTH} levels of `{open}` parse");
            for n in [MAX_DEPTH + 1, 1_000, 300_000] {
                let err = parse(&nest(n)).expect_err("over-deep document");
                assert!(err.to_string().contains("nesting deeper"), "{n} x `{open}`: {err}");
                // Unclosed, as the reviewer's probe sent it.
                assert!(parse(&open.repeat(n)).is_err(), "{n} unclosed `{open}`");
            }
        }
        // Depth counts open containers, not containers seen: siblings are free.
        assert!(parse(&format!("[{}]", vec!["[[1]]"; 1_000].join(","))).is_ok());
    }

    #[test]
    fn truncated_escapes_and_huge_numbers_never_panic() {
        let escapes = [
            "\\",
            "\\u",
            "\\u1",
            "\\u12",
            "\\u123",
            "\\ud800",
            "\\ud800\\",
            "\\ud800\\u",
            "\\ud800\\u00",
            "\\ud800\\u0041",
            "\\ud800\\ud800",
            "\\udc00",
            "\\u+123",
            "\\x",
        ];
        for esc in escapes {
            for text in [format!("\"{esc}"), format!("\"{esc}\""), format!("[\"{esc}\",1]")] {
                let _ = parse(&text);
            }
        }
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap().as_str().unwrap(), "\u{1f600}");
        let digits = "9".repeat(5_000);
        for text in [
            digits.clone(),
            format!("-{digits}"),
            format!("{digits}.{digits}"),
            format!("1e{digits}"),
            format!("-1e-{digits}"),
            "1e".to_string(),
            "-".to_string(),
            "1.".to_string(),
        ] {
            if let Ok(v) = parse(&text) {
                assert!(matches!(v, Value::F64(_)), "{} chars parsed as {v:?}", text.len());
            }
        }
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#""aA\t\\\"é""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "aA\t\\\"é");
    }

    #[test]
    fn field_lookup() {
        let v = parse(r#"{"x":3}"#).unwrap();
        assert_eq!(v.field("x").unwrap().as_u64().unwrap(), 3);
        assert!(v.field("y").is_err());
    }
}
