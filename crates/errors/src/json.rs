//! The workspace's one JSON codec (no serde): a value model, a
//! depth-bounded parser, a string escaper, and a flat object writer.
//! Every JSON reader and writer in the workspace goes through it, so
//! they agree on the edge cases: integers that fit 64 bits stay exact
//! (`UInt`/`Int`, anything else is `Float`); duplicate keys are kept
//! and lookups return the last; a `\u` surrogate decodes to U+FFFD;
//! nesting stops at [`MAX_DEPTH`] containers, so hostile input cannot
//! overflow the parsing thread's stack; errors carry a byte offset.

use std::fmt::{self, Write as _};

/// The deepest container nesting the parser accepts.
pub const MAX_DEPTH: usize = 128;

/// Object fields in source order.
pub type Object = Vec<(String, JsonValue)>;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer literal (exact).
    UInt(u64),
    /// Negative integer literal (exact).
    Int(i64),
    /// Any other number: a fraction, an exponent, or out of 64-bit
    /// range.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<JsonValue>),
    /// Object, in source order (duplicate keys are kept; see [`field`]).
    Obj(Object),
}

/// Why a document was rejected, and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset at which parsing stopped.
    pub at: usize,
    /// What was wrong there.
    pub what: String,
}

/// Renders as `at byte N: {what}`; each caller prefixes what it was
/// reading and wraps the line in its own error kind.
impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at byte {}: {}", self.at, self.what)
    }
}

impl JsonValue {
    /// Parses a complete JSON document (trailing garbage is an error).
    ///
    /// # Errors
    ///
    /// [`JsonError`] naming the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            text,
            ..Default::default()
        };
        let v = p.value()?;
        p.end()?;
        Ok(v)
    }

    /// Object field lookup (last occurrence wins).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => field(fields, key),
            _ => None,
        }
    }

    /// The value as `u64` when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(u) => Some(*u),
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as `f64` for any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(u) => Some(*u as f64),
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_array(&self) -> Option<&Vec<JsonValue>> {
        match self {
            JsonValue::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Looks up `key` among object fields (last occurrence wins).
pub fn field<'a>(fields: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Parses a document that must be one object.
///
/// # Errors
///
/// [`JsonError`] naming the byte offset of the first problem.
pub fn parse_object(text: &str) -> Result<Object, JsonError> {
    match parse_object_prefix(text) {
        (fields, None) => Ok(fields),
        (_, Some(e)) => Err(e),
    }
}

/// Parses a document that should be one object, keeping every complete
/// top-level field read before the first problem. Returns those fields
/// plus the problem (`None` for an undamaged document), so a file torn
/// by a mid-write kill costs only its torn tail.
pub fn parse_object_prefix(text: &str) -> (Object, Option<JsonError>) {
    let mut p = Parser {
        text,
        ..Default::default()
    };
    let mut fields = Vec::new();
    let err = p.object(&mut fields).and_then(|()| p.end()).err();
    (fields, err)
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub fn write_escaped(out: &mut String, s: &str) {
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

/// Builds one flat JSON object field by field, in the layout
/// `{"k": v, "k2": v2}` with floats to six decimals.
#[derive(Debug, Default)]
pub struct ObjectWriter {
    buf: String,
}

impl ObjectWriter {
    /// An empty object.
    pub fn new() -> Self {
        ObjectWriter::default()
    }

    fn key(&mut self, key: &str) -> &mut String {
        self.buf
            .push_str(if self.buf.is_empty() { "{" } else { ", " });
        write_escaped(&mut self.buf, key);
        self.buf.push_str(": ");
        &mut self.buf
    }

    /// Adds a string field.
    pub fn str_field(&mut self, key: &str, value: &str) -> &mut Self {
        write_escaped(self.key(key), value);
        self
    }

    /// Adds an unsigned-integer field.
    pub fn u64_field(&mut self, key: &str, value: u64) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Adds a float field (`NaN`/infinities render as `null`).
    pub fn f64_field(&mut self, key: &str, value: f64) -> &mut Self {
        let out = self.key(key);
        if value.is_finite() {
            let _ = write!(out, "{value:.6}");
        } else {
            out.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    pub fn bool_field(&mut self, key: &str, value: bool) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Closes the object and returns the rendered text.
    pub fn finish(mut self) -> String {
        if self.buf.is_empty() {
            self.buf.push('{');
        }
        self.buf.push('}');
        self.buf
    }
}

#[derive(Default)]
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            what: what.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        self.skip_ws();
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", c as char)))
        }
    }

    fn end(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("trailing data"))
        }
    }

    /// Opens one container level, refusing to go past [`MAX_DEPTH`].
    fn enter(&mut self, open: u8) -> Result<(), JsonError> {
        self.expect(open)?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.skip_ws();
        Ok(())
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => {
                let mut fields = Vec::new();
                self.object(&mut fields)?;
                Ok(JsonValue::Obj(fields))
            }
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a value")),
        }
    }

    /// Parses an object into `fields`. Each pair is pushed as soon as it
    /// is complete, so on error `fields` holds the readable prefix.
    fn object(&mut self, fields: &mut Object) -> Result<(), JsonError> {
        self.enter(b'{')?;
        if !self.eat(b'}') {
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.expect(b':')?;
                let value = self.value()?;
                self.skip_ws();
                // A number that meets the end of input may be cut short.
                if self.peek().is_some() || value.as_f64().is_none() {
                    fields.push((key, value));
                }
                if self.eat(b'}') {
                    break;
                }
                if !self.eat(b',') {
                    return Err(self.err("expected ',' or '}'"));
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.enter(b'[')?;
        let mut items = Vec::new();
        if !self.eat(b']') {
            loop {
                items.push(self.value()?);
                self.skip_ws();
                if self.eat(b']') {
                    break;
                }
                if !self.eat(b',') {
                    return Err(self.err("expected ',' or ']'"));
                }
            }
        }
        self.depth -= 1;
        Ok(JsonValue::Arr(items))
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        let mut ok = int_digits == 1 || (int_digits > 1 && !leading_zero);
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            ok &= self.digits() > 0;
        }
        if self.eat(b'e') || self.eat(b'E') {
            integral = false;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            ok &= self.digits() > 0;
        }
        let text = &self.text[start..self.pos];
        let bad = || JsonError {
            at: start,
            what: format!("bad number {text:?}"),
        };
        if !ok {
            return Err(bad());
        }
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Int(i));
            }
        }
        text.parse::<f64>().map(JsonValue::Float).map_err(|_| bad())
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if !self.eat(b'"') {
            return Err(self.err("expected '\"'"));
        }
        let mut out = String::new();
        loop {
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            // The run stops at an ASCII byte or the end of input, so
            // both ends fall on char boundaries.
            out.push_str(&self.text[run..self.pos]);
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            if c == b'"' {
                return Ok(out);
            }
            out.push(self.escape()?);
        }
    }

    /// Decodes the escape after a `\`. A `\u` surrogate, which no
    /// writer here emits, becomes U+FFFD.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                self.pos += 1;
                let code = self
                    .text
                    .get(self.pos..self.pos + 4)
                    .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                    .ok_or_else(|| self.err("bad \\u escape"))?;
                self.pos += 4;
                return Ok(char::from_u32(code).unwrap_or('\u{FFFD}'));
            }
            _ => return Err(self.err("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = JsonValue::parse(
            r#"{"a": [1, -2, 3.5, "x\n", true, null], "b": {"c": 18446744073709551615}}"#,
        )
        .unwrap();
        let a = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1], JsonValue::Int(-2));
        assert_eq!(a[2].as_f64(), Some(3.5));
        assert_eq!(a[3].as_str(), Some("x\n"));
        assert_eq!(a[4].as_bool(), Some(true));
        assert_eq!(a[5], JsonValue::Null);
        // u64::MAX survives exactly.
        let c = v.get("b").and_then(|b| b.get("c")).unwrap();
        assert_eq!(c.as_u64(), Some(u64::MAX));
    }

    /// Malformed documents, gathered from every reader this module
    /// replaced: none of them may parse, as a value or as an object.
    const MALFORMED: &[&str] = &[
        "",
        "{",
        "[1,",
        "{\"a\"}",
        "{\"a\":}",
        "{\"a\" 1}",
        "{\"a\":1,}",
        "{\"a\": \"b\",}",
        "{\"a\":1} x",
        "{\"a\": \"b\"} trailing",
        "{\"a\":\"unterminated}",
        "\"unterminated",
        "{\"a\":tru}",
        "tru",
        "1 2",
        "{\"a\":1e}",
        "{\"k\": --1}",
        "{\"k\": 1 2}",
        "{\"k\": \"a\" \"b\"}",
        "{\"k\"; 1}",
        "{\"k\": nulll}",
        "{\"k\": \"\\u12\"}",
        "{\"k\": \"\\u+123\"}",
        "{\"k\": \"\\q\"}",
        "{\"k\": 01}",
        "{\"k\": .5}",
        "{\"k\": +1}",
        "{\"k\": 1.}",
        "{{}}",
    ];

    #[test]
    fn rejects_malformed_input() {
        for bad in MALFORMED {
            assert!(JsonValue::parse(bad).is_err(), "value accepted {bad:?}");
            assert!(parse_object(bad).is_err(), "object accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        // Valid JSON, but not an object.
        for bad in ["[1]", "[\"a\"]", "[1, 2]", "null", "\"s\""] {
            assert!(JsonValue::parse(bad).is_ok(), "{bad:?}");
            assert!(parse_object(bad).is_err(), "object accepted {bad:?}");
        }
    }

    #[test]
    fn errors_name_the_byte_offset() {
        let e = parse_object("{\"a\": 1,  ]").unwrap_err();
        assert_eq!(e.at, 10);
        assert_eq!(e.to_string(), "at byte 10: expected '\"'");
    }

    #[test]
    fn nesting_is_capped_without_recursing_deeply() {
        // 10^6 opening brackets would overflow a thread stack if the
        // parser recursed once per bracket without a cap.
        let deep = "[".repeat(1_000_000);
        let e = JsonValue::parse(&deep).unwrap_err();
        assert!(e.what.contains("nesting deeper than 128"), "{e}");
        assert_eq!(e.at, MAX_DEPTH + 1);
        let e = parse_object(&format!("{{\"workload\":{deep}")).unwrap_err();
        assert!(e.what.contains("nesting"), "{e}");
        // Exactly MAX_DEPTH levels still parse.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&ok).is_ok());
        let over = format!("[{ok}]");
        assert!(JsonValue::parse(&over).is_err());
    }

    #[test]
    fn last_duplicate_key_wins() {
        let v = JsonValue::parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(v.get("k").and_then(JsonValue::as_u64), Some(2));
        let fields = parse_object(r#"{"k": "first", "j": 0, "k": "last"}"#).unwrap();
        assert_eq!(fields.len(), 3, "duplicates are kept in source order");
        assert_eq!(
            field(&fields, "k").and_then(JsonValue::as_str),
            Some("last")
        );
    }

    #[test]
    fn surrogates_become_replacement_chars() {
        let v = JsonValue::parse(r#""\ud800 \udfff\u0041 \u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{FFFD} \u{FFFD}A é"));
    }

    #[test]
    fn numbers_keep_integers_exact_and_widen_the_rest() {
        let n = |t: &str| JsonValue::parse(t).unwrap();
        assert_eq!(n("0"), JsonValue::UInt(0));
        assert_eq!(n("-3"), JsonValue::Int(-3));
        assert_eq!(n("-3").as_u64(), None);
        assert_eq!(n("-9223372036854775808"), JsonValue::Int(i64::MIN));
        assert_eq!(
            n("18446744073709551616"),
            JsonValue::Float(18446744073709551616.0)
        );
        assert_eq!(n("18446744073709551616").as_u64(), None);
        assert_eq!(n("2.0"), JsonValue::Float(2.0));
        assert_eq!(n("2.0").as_u64(), None);
        assert_eq!(n("-1.5e-3"), JsonValue::Float(-1.5e-3));
        assert_eq!(n("1E+2"), JsonValue::Float(100.0));
    }

    #[test]
    fn object_prefix_keeps_complete_pairs() {
        let (fields, err) = parse_object_prefix(r#"{"a": "x", "b": [1, 2], "c": tr"#);
        assert_eq!(fields.len(), 2);
        assert!(err.unwrap().what.contains("literal"));
        // A number that meets the end of input may be cut short.
        let (fields, err) = parse_object_prefix(r#"{"a": true, "n": 12"#);
        assert_eq!(fields, vec![("a".to_owned(), JsonValue::Bool(true))]);
        assert!(err.is_some());
        let (fields, err) = parse_object_prefix(r#"{"a": "x"}"#);
        assert_eq!(fields.len(), 1);
        assert!(err.is_none());
    }

    #[test]
    fn escapes_round_trip() {
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\te\r\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\r\\u0001\"");
        let back = JsonValue::parse(&out).unwrap();
        assert_eq!(back.as_str(), Some("a\"b\\c\nd\te\r\u{1}"));
    }

    #[test]
    fn unicode_passes_through() {
        let v = JsonValue::parse(r#""héllo é → 丕""#).unwrap();
        assert_eq!(v.as_str(), Some("héllo é → 丕"));
    }

    #[test]
    fn parses_null_unicode_and_empty() {
        let fields = parse_object(r#"{"a": null, "u": "Aé", "e": ""}"#).unwrap();
        assert_eq!(field(&fields, "a"), Some(&JsonValue::Null));
        assert_eq!(field(&fields, "u").and_then(JsonValue::as_str), Some("Aé"));
        assert_eq!(field(&fields, "e").and_then(JsonValue::as_str), Some(""));
        assert!(parse_object("{}").unwrap().is_empty());
        assert!(parse_object(" { } ").unwrap().is_empty());
    }

    #[test]
    fn renders_flat_object() {
        let mut o = ObjectWriter::new();
        o.str_field("name", "SN4L+Dis+BTB")
            .u64_field("cycles", 123)
            .f64_field("ipc", 0.75)
            .bool_field("ok", true);
        assert_eq!(
            o.finish(),
            "{\"name\": \"SN4L+Dis+BTB\", \"cycles\": 123, \"ipc\": 0.750000, \"ok\": true}"
        );
        assert_eq!(ObjectWriter::new().finish(), "{}");
    }

    #[test]
    fn escapes_specials() {
        let mut o = ObjectWriter::new();
        o.str_field("k", "a\"b\\c\nd");
        assert_eq!(o.finish(), "{\"k\": \"a\\\"b\\\\c\\nd\"}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut o = ObjectWriter::new();
        o.f64_field("x", f64::NAN).f64_field("y", f64::INFINITY);
        assert_eq!(o.finish(), "{\"x\": null, \"y\": null}");
    }

    #[test]
    fn roundtrips_every_value_kind() {
        let mut w = ObjectWriter::new();
        w.str_field("s", "a \"quoted\"\nline\\")
            .u64_field("n", u64::MAX)
            .f64_field("x", 0.25)
            .bool_field("b", false);
        let fields = parse_object(&w.finish()).unwrap();
        assert_eq!(
            fields,
            vec![
                (
                    "s".to_owned(),
                    JsonValue::Str("a \"quoted\"\nline\\".to_owned())
                ),
                ("n".to_owned(), JsonValue::UInt(u64::MAX)),
                ("x".to_owned(), JsonValue::Float(0.25)),
                ("b".to_owned(), JsonValue::Bool(false)),
            ]
        );
        // The compact layout of older writers parses the same way.
        assert_eq!(
            parse_object(
                r#"{"s":"a \"quoted\"\nline\\","n":18446744073709551615,"x":0.250000,"b":false}"#
            )
            .unwrap(),
            fields
        );
    }
}
