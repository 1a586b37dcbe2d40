//! Minimal JSON emission, shared by every crate that writes artifacts.
//!
//! The workspace is dependency-free, so machine-readable output is
//! hand-rolled here once: string escaping per RFC 8259 and number
//! formatting that round-trips `f64` exactly while mapping the
//! non-finite values JSON cannot express to `null` (a simulator metric
//! like J/Kbit is legitimately infinite when nothing was delivered).
//!
//! # Examples
//!
//! ```
//! use bcp_sim::json::{escape, num};
//!
//! assert_eq!(escape("a\"b\n"), "\"a\\\"b\\n\"");
//! assert_eq!(num(0.5), "0.5");
//! assert_eq!(num(f64::INFINITY), "null");
//! ```

/// Quotes and escapes `s` as a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Formats a number as a JSON value: the shortest representation that
/// parses back to the same `f64`, or `null` for NaN/±∞.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        // Rust's {:?} for f64 is the shortest round-trip form; it always
        // contains '.' or 'e', both of which JSON accepts.
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// Formats an optional number (`None` → `null`).
pub fn opt_num(x: Option<f64>) -> String {
    x.map(num).unwrap_or_else(|| "null".into())
}

/// A parsed JSON value, produced by [`parse`]. Numbers are `f64` (exact for
/// every integer the emitters produce below 2⁵³); objects keep insertion
/// order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks a key up in an object (`None` for other variants or misses).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric value as an unsigned integer, if whole and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses once
/// per level, so the bound keeps a hostile line from overflowing the stack;
/// the workspace's own documents nest fewer than 10 levels.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document (the reverse of this module's emitters, used by
/// round-trip tests and the NDJSON tooling). Rejects trailing garbage and
/// nesting deeper than 128 levels.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser {
        src: s,
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Value::Null),
            Some(b't') => self.eat_lit("true", Value::Bool(true)),
            Some(b'f') => self.eat_lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs never occur in our own output;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape.
                    // Both are ASCII, so the run ends on a char boundary
                    // and multi-byte sequences pass through unchanged.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.src[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials_and_controls() {
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape("q\"b\\s"), "\"q\\\"b\\\\s\"");
        assert_eq!(escape("\n\t\r"), "\"\\n\\t\\r\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
        assert_eq!(escape("útf-8 ∞"), "\"útf-8 ∞\"");
    }

    #[test]
    fn numbers_round_trip_and_nonfinite_are_null() {
        for x in [0.0, -1.5, 2000.0, 0.1234567890123, 1e-12, 5e12] {
            let s = num(x);
            assert_eq!(s.parse::<f64>().unwrap(), x, "{s} round-trips");
        }
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(f64::NEG_INFINITY), "null");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(opt_num(None), "null");
        assert_eq!(opt_num(Some(1.0)), "1.0");
    }

    #[test]
    fn parser_round_trips_own_output() {
        let doc = format!(
            "{{\"a\":{},\"b\":{},\"s\":{},\"arr\":[1,2.5,null,true,false],\"o\":{{}}}}",
            num(0.1234567890123),
            num(f64::NAN),
            escape("q\"b\\s\n∞")
        );
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(0.1234567890123));
        assert_eq!(v.get("b"), Some(&Value::Null));
        assert_eq!(v.get("s").unwrap().as_str(), Some("q\"b\\s\n∞"));
        let arr = v.get("arr").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 5);
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[3], Value::Bool(true));
        assert_eq!(v.get("o"), Some(&Value::Obj(vec![])));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parser_handles_whitespace_escapes_and_negatives() {
        let v = parse(" { \"k\" : [ -1.5e3 , \"\\u0041\\t\" ] } ").unwrap();
        let arr = v.get("k").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(-1500.0));
        assert_eq!(arr[1].as_str(), Some("A\t"));
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        // Unbounded recursion would overflow a default-sized thread stack
        // and abort the whole process here.
        let hostile = "[".repeat(1 << 20);
        let verdict = std::thread::spawn(move || parse(&hostile).map(|_| ()))
            .join()
            .expect("the parser thread survives");
        assert!(verdict.unwrap_err().contains("nesting deeper"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let mut text = String::new();
        while text.len() < 256 * 1024 {
            text.push_str("ascii ∞ é 😀 \"q\" \\ \n");
        }
        let doc = escape(&text);
        let started = std::time::Instant::now();
        let back = parse(&doc).unwrap();
        assert_eq!(back.as_str(), Some(text.as_str()));
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "256 KiB string took {elapsed:?}"
        );
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in ["{", "[1,", "{\"a\" 1}", "tru", "1 2", "{\"a\":}", ""] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }
}
