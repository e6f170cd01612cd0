//! The workspace's one JSON module: the [`Value`] every document the
//! simulator writes is built as, one writer (`Display`) and one reader
//! ([`parse`]), with no serialization dependency.
//!
//! The writer puts an array or object on one line when it fits in
//! [`WIDTH`] columns, else one member per line, indented two spaces.
//! [`Value::U64`] prints exactly (no rounding past 2^53); [`Value::Num`]
//! prints integral values without `.0`, others as the shortest
//! round-trip string, non-finite ones as `null`. The reader parses every
//! number to [`Value::Num`] (so u64 seeds travel as hex strings) and
//! rejects nesting deeper than [`MAX_DEPTH`] rather than overflow the
//! stack.

use std::fmt::{self, Write as _};

/// The writer's line budget: a container goes on one line only if that
/// line, with a trailing comma, fits in this many columns.
pub const WIDTH: usize = 100;

/// The reader's nesting limit: a document with more arrays/objects open
/// at once is rejected.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// An unsigned integer, written exactly (the reader never yields it).
    U64(u64),
    /// Any number (f64, like JavaScript).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A required object field.
    pub fn field(&self, key: &str) -> Result<&Value, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// A required string field.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        match self.field(key)? {
            Value::Str(s) => Ok(s),
            other => Err(format!("field {key:?} must be a string, got {other:?}")),
        }
    }

    /// A required bool field.
    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        match self.field(key)? {
            Value::Bool(b) => Ok(*b),
            other => Err(format!("field {key:?} must be a bool, got {other:?}")),
        }
    }

    /// A required non-negative integer field (rejects fractions and
    /// anything beyond exact f64 range).
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        match self.field(key)? {
            Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n < 9.0e15 => Ok(*n as u64),
            Value::U64(n) => Ok(*n),
            other => Err(format!(
                "field {key:?} must be a non-negative integer, got {other:?}"
            )),
        }
    }
}

macro_rules! value_from {
    ($($t:ty => $make:expr),*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Value {
                $make(x)
            }
        }
    )*};
}

value_from!(
    bool => Value::Bool,
    u64 => Value::U64,
    usize => |n| Value::U64(n as u64),
    f64 => Value::Num,
    &str => |s: &str| Value::Str(s.to_string()),
    String => Value::Str
);

impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::Arr(items.into_iter().collect())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(&mut out, self, Some(0))?;
        f.write_str(&out)
    }
}

/// Appends `v`; `indent` is the indentation of the line `v` starts on,
/// or `None` when `v` must stay on that line.
fn write_value(out: &mut String, v: &Value, indent: Option<usize>) -> fmt::Result {
    match v {
        Value::Null => write!(out, "null"),
        Value::Bool(b) => write!(out, "{b}"),
        Value::U64(n) => write!(out, "{n}"),
        Value::Num(x) if !x.is_finite() => write!(out, "null"),
        Value::Num(x) if x.fract() == 0.0 && x.abs() < 9.0e15 => write!(out, "{}", *x as i64),
        Value::Num(x) => write!(out, "{x:?}"),
        Value::Str(s) => out.write_str(&quoted(s)),
        Value::Arr(items) => {
            write_container(out, "[]", items.iter().map(|v| (String::new(), v)), indent)
        }
        Value::Obj(fields) => {
            let members = fields.iter().map(|(k, v)| (quoted(k) + ": ", v));
            write_container(out, "{}", members, indent)
        }
    }
}

/// `s` as a quoted, escaped string literal.
fn quoted(s: &str) -> String {
    let mut out = String::from('"');
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
    out + "\""
}

/// Appends an array or object (`brackets` is `"[]"` or `"{}"`, each
/// member comes with its `"key": ` prefix): on one line if `indent` is
/// `None` or the line fits in [`WIDTH`], else one member per line.
fn write_container<'a>(
    out: &mut String,
    brackets: &str,
    members: impl Iterator<Item = (String, &'a Value)> + Clone,
    indent: Option<usize>,
) -> fmt::Result {
    let (open, close) = brackets.split_at(1);
    let column = out.len() - out.rfind('\n').map_or(0, |i| i + 1);
    let start = out.len();
    out.push_str(open);
    for (i, (key, v)) in members.clone().enumerate() {
        write!(out, "{}{key}", if i == 0 { "" } else { ", " })?;
        write_value(out, v, None)?;
    }
    out.push_str(close);
    let Some(indent) = indent else { return Ok(()) };
    // `<`: leave a column for the comma that may follow.
    if column + out.len() - start < WIDTH {
        return Ok(());
    }
    out.truncate(start);
    out.push_str(open);
    let inner = indent + 2;
    for (i, (key, v)) in members.enumerate() {
        write!(out, "{}\n{:inner$}{key}", if i == 0 { "" } else { "," }, "")?;
        write_value(out, v, Some(inner))?;
    }
    write!(out, "\n{:indent$}{close}", "")
}

/// Parses one JSON document (trailing non-whitespace is an error).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut reader = Reader { text, pos: 0 };
    let v = reader.value(0)?;
    reader.skip_ws();
    if reader.pos != text.len() {
        return Err(format!("trailing garbage at byte {}", reader.pos));
    }
    Ok(v)
}

/// A cursor over the document being parsed.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `want` if it comes next.
    fn eat(&mut self, want: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(want);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        if self.eat(want) {
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", want as char, self.pos))
        }
    }

    /// Parses the value at the cursor; `depth` counts the arrays and
    /// objects already open around it.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        if let Some(open @ (b'[' | b'{')) = self.peek() {
            if depth == MAX_DEPTH {
                return Err(format!("nested too deep at byte {}", self.pos));
            }
            self.pos += 1;
            let is_obj = open == b'{';
            let close = if is_obj { b'}' } else { b']' };
            let mut members = Vec::new();
            if !self.eat(close) {
                loop {
                    let mut key = String::new();
                    if is_obj {
                        key = self.string()?;
                        self.expect(b':')?;
                    }
                    members.push((key, self.value(depth + 1)?));
                    if self.eat(close) {
                        break;
                    }
                    self.expect(b',')?;
                }
            }
            return Ok(if is_obj {
                Value::Obj(members)
            } else {
                Value::Arr(members.into_iter().map(|(_, v)| v).collect())
            });
        }
        if self.peek() == Some(b'"') {
            return self.string().map(Value::Str);
        }
        let rest = &self.text[self.pos..];
        let literals = [
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("null", Value::Null),
        ];
        if let Some((lit, v)) = literals.into_iter().find(|(lit, _)| rest.starts_with(lit)) {
            self.pos += lit.len();
            return Ok(v);
        }
        let len = rest
            .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
            .unwrap_or(rest.len());
        let n = rest[..len]
            .parse()
            .map_err(|_| format!("bad value at byte {}", self.pos))?;
        self.pos += len;
        Ok(Value::Num(n))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let run = rest.find(['"', '\\']).ok_or("unterminated string")?;
            out.push_str(&rest[..run]);
            let at = self.pos + run;
            self.pos = at + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            let escape = self.peek();
            self.pos += 1;
            out.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => self
                    .unicode_escape()
                    .ok_or_else(|| format!("bad \\u escape at byte {at}"))?,
                _ => return Err(format!("bad escape at byte {at}")),
            });
        }
    }

    /// The char spelled by the four hex digits at the cursor; a high
    /// surrogate takes its low half from a second `\u` escape.
    fn unicode_escape(&mut self) -> Option<char> {
        let high = self.hex4()?;
        if !(0xD800..0xDC00).contains(&high) {
            // `None` for a lone low surrogate.
            return char::from_u32(high);
        }
        self.text[self.pos..].starts_with("\\u").then_some(())?;
        self.pos += 2;
        let low = self.hex4().filter(|low| (0xDC00..0xE000).contains(low))?;
        char::from_u32(0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00))
    }

    /// Exactly four hex digits at the cursor.
    fn hex4(&mut self) -> Option<u32> {
        let digits = self.text.as_bytes().get(self.pos..self.pos + 4)?;
        self.pos += 4;
        digits
            .iter()
            .try_fold(0, |acc, &b| Some(acc * 16 + char::from(b).to_digit(16)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a": [1, 2.5, true, null, "x\ny"], "b": {"c": -3}}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Value::Arr(vec![
                Value::Num(1.0),
                Value::Num(2.5),
                Value::Bool(true),
                Value::Null,
                Value::Str("x\ny".into()),
            ]))
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Num(-3.0)));
    }

    #[test]
    fn escape_round_trips() {
        let s = "quote\" slash\\ tab\t newline\n unicode\u{1F600}";
        let v = parse(&Value::from(s).to_string()).unwrap();
        assert_eq!(v, Value::Str(s.into()));
        // A surrogate pair is one char.
        let pair = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(pair, Value::Str("\u{1F600}".into()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse("nul").is_err());
        // `\u` takes exactly four hex digits, and surrogates must pair.
        for bad in [r#""\u+04a""#, r#""\u04a""#, r#""\ud83d""#, r#""\ude00""#] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn number_formatting_round_trips() {
        for v in [0.0, 1.0, -17.0, 2.5, 1e-3, 123456789.125] {
            let Value::Num(back) = parse(&Value::Num(v).to_string()).unwrap() else {
                panic!("number must parse as number");
            };
            assert_eq!(back, v);
        }
        assert_eq!(Value::Num(f64::NAN).to_string(), "null");
        assert_eq!(Value::Num(-17.0).to_string(), "-17");
        // Integers are written exactly, past 2^53 too.
        assert_eq!(Value::U64(u64::MAX).to_string(), "18446744073709551615");
    }

    #[test]
    fn string_escaping_covers_control_characters() {
        let s = Value::from("a\"b\\c\nd\u{1}").to_string();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(parse(&"[".repeat(1_000_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(1_000_000)).is_err());
        let at_limit = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&at_limit).is_ok());
        assert!(parse(&format!("[{at_limit}]")).is_err());
    }

    #[test]
    fn short_containers_stay_on_one_line_and_long_ones_break() {
        let long: Value = (0..40u64).map(Value::from).collect();
        let pair = Value::Arr(vec![1u64.into(), 2u64.into()]);
        let doc = Value::obj([
            ("empty", Value::Obj(vec![])),
            ("pair", pair),
            ("long", long),
        ]);
        let text = doc.to_string();
        let head = "{\n  \"empty\": {},\n  \"pair\": [1, 2],\n  \"long\": [\n    0,\n    1,\n";
        assert!(text.starts_with(head), "{text}");
        assert!(text.ends_with("    39\n  ]\n}"), "{text}");
        // A line that fits leaves room for its trailing comma.
        let edge: Value = (85..95)
            .rev()
            .map(|n| Value::Arr(vec!["x".repeat(n).into()]))
            .collect();
        assert!(edge.to_string().lines().all(|line| line.len() <= WIDTH));
    }
}
