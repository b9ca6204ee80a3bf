//! JSON for the workspace: one [`Json`] value, a compact writer (its
//! `Display`), one pretty layout ([`Json::pretty`]) and a parser
//! ([`Json::parse`]) that reports malformed input as a [`JsonError`]
//! instead of panicking. The trace and snapshot writers of this crate
//! build [`Json`] values and write them with it.
//!
//! # Round-trip contract
//!
//! - Floats are written with Rust's shortest round-trip `{}` formatting,
//!   plus `.0` when that text has no fraction (so a float reads back as a
//!   float and `-0.0` keeps its sign), and parsed with `str::parse::<f64>`:
//!   every finite `f64` comes back bit for bit. Non-finite floats, which
//!   JSON cannot represent, are written as `null`.
//! - Integers are exact over all of `u64` and `i64`: a literal with no
//!   fraction or exponent parses to [`Json::U64`], or to [`Json::I64`] when
//!   negative, so seeds, RNG states and fingerprints above 2^53 survive.
//! - Objects are `BTreeMap`s: keys are written sorted, and a duplicate key
//!   keeps its last value.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer (non-negative ones are [`Json::U64`]).
    I64(i64),
    /// A float; non-finite values are written as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with sorted keys.
    Object(BTreeMap<String, Json>),
}

/// Why [`Json::parse`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// What was wrong there.
    pub what: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

/// Nesting deeper than this is rejected, so hostile input cannot exhaust
/// the parser's stack.
const MAX_DEPTH: usize = 128;

static NULL: Json = Json::Null;

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn object<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Parses one JSON document (surrounding whitespace allowed).
    ///
    /// # Errors
    /// A [`JsonError`] for any malformed input: truncation, trailing
    /// characters, bad escapes, unpaired surrogates, raw control characters
    /// in strings, numbers outside `f64`, or nesting deeper than 128.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// The document in the one pretty layout: two-space indentation, one
    /// element per line, `"key": value`, empty containers as `[]` / `{}`.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out, Some(0));
        out
    }

    /// The value under `key` when this is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer, if this is a non-negative one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an `f64` (integers convert, rounding above 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(x) => Some(*x),
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Writes the value compactly (`depth: None`) or in the pretty layout
    /// at indentation level `depth`.
    fn write_to(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::I64(n) => out.push_str(&n.to_string()),
            Json::F64(x) => push_f64(out, *x),
            Json::Str(s) => push_str_literal(out, s),
            Json::Array(items) => {
                write_seq(out, depth, ['[', ']'], items.iter().map(|v| (None, v)));
            }
            Json::Object(m) => {
                write_seq(out, depth, ['{', '}'], m.iter().map(|(k, v)| (Some(k), v)));
            }
        }
    }
}

/// Writes the elements of an array or object between `brackets`.
fn write_seq<'a>(
    out: &mut String,
    depth: Option<usize>,
    brackets: [char; 2],
    items: impl ExactSizeIterator<Item = (Option<&'a String>, &'a Json)>,
) {
    out.push(brackets[0]);
    let empty = items.len() == 0;
    for (i, (key, v)) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = depth {
            newline_indent(out, d + 1);
        }
        if let Some(k) = key {
            push_str_literal(out, k);
            out.push_str(if depth.is_some() { ": " } else { ":" });
        }
        v.write_to(out, depth.map(|d| d + 1));
    }
    if let (Some(d), false) = (depth, empty) {
        newline_indent(out, d);
    }
    out.push(brackets[1]);
}

fn newline_indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn push_str_literal(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Appends `s` with JSON string escaping (quotes, backslashes and control
/// characters; everything else, non-ASCII included, verbatim).
fn push_escaped(out: &mut String, s: &str) {
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
}

/// Appends `v` as a JSON number: shortest round-trip `{}` text, with `.0`
/// added when it has no fraction; `null` when `v` is not finite.
fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    out.push_str(&v.to_string());
    if !out[start..].contains('.') {
        out.push_str(".0");
    }
}

/// Compact text.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_to(&mut out, None);
        f.write_str(&out)
    }
}

/// `value["key"]`: the member, or `null` when absent or not an object.
impl Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::U64(n)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::U64(n.into())
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::U64(n as u64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        match u64::try_from(n) {
            Ok(u) => Json::U64(u),
            Err(_) => Json::I64(n),
        }
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::F64(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &'static str) -> JsonError {
        JsonError { at: self.pos, what }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.container(b']'),
            Some(b'{') => self.container(b'}'),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// An array (`close == b']'`) or object (`close == b'}'`).
    fn container(&mut self, close: u8) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        self.pos += 1; // the opening bracket
        let mut items = Vec::new();
        let mut members = BTreeMap::new();
        self.skip_ws();
        if !self.eat(close) {
            loop {
                self.skip_ws();
                if close == b'}' {
                    if self.peek() != Some(b'"') {
                        return Err(self.err("expected a string key"));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(b':') {
                        return Err(self.err("expected ':'"));
                    }
                    self.skip_ws();
                    members.insert(key, self.value()?);
                } else {
                    items.push(self.value()?);
                }
                self.skip_ws();
                match self.next() {
                    Some(b',') => {}
                    Some(b) if b == close => break,
                    None => return Err(self.err("unexpected end of input")),
                    Some(_) => return Err(self.err("expected ',' or a closing bracket")),
                }
            }
        }
        self.depth -= 1;
        Ok(if close == b'}' {
            Json::Object(members)
        } else {
            Json::Array(items)
        })
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // the opening quote
        let mut out = String::new();
        loop {
            // copy the run of plain characters; it ends on an ASCII byte,
            // so both ends are char boundaries
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.next() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => {
                    let c = match self.next() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        None => return Err(self.err("unterminated string")),
                        Some(_) => return Err(self.err("invalid escape")),
                    };
                    out.push(c);
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        match self.bytes.get(self.pos..self.pos + 4) {
            Some(h) if h.iter().all(u8::is_ascii_hexdigit) => {
                self.pos += 4;
                let h = std::str::from_utf8(h).expect("hex digits are ASCII");
                Ok(u32::from_str_radix(h, 16).expect("four hex digits"))
            }
            _ => Err(self.err("expected four hex digits")),
        }
    }

    /// The character of a `\u` escape (after the `u`), joining a UTF-16
    /// surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !self.bytes[self.pos..].starts_with(b"\\u") {
                return Err(self.err("unpaired surrogate"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("unpaired surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))
    }

    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        // a leading zero stands alone: `0`, `0.5`, never `01`
        if !self.eat(b'0') && !self.digits() {
            return Err(self.err("expected a digit"));
        }
        let mut float = false;
        if self.eat(b'.') {
            float = true;
            if !self.digits() {
                return Err(self.err("expected a digit after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(self.err("expected an exponent digit"));
            }
        }
        let lit = &self.text[start..self.pos];
        if !float {
            if let Ok(n) = lit.parse::<u64>() {
                return Ok(Json::U64(n));
            }
            if let Ok(n) = lit.parse::<i64>() {
                return Ok(Json::from(n));
            }
        }
        match lit.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::F64(x)),
            _ => Err(JsonError {
                at: start,
                what: "number out of range",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64: the test's seeded source of bit patterns.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Both layouts of `v`, each parsed back.
    fn reparse(v: &Json, seed: u64) -> [Json; 2] {
        [v.to_string(), v.pretty()].map(|text| {
            Json::parse(&text).unwrap_or_else(|e| panic!("seed {seed}: {e} in {text:?}"))
        })
    }

    #[test]
    fn random_f64_bit_patterns_roundtrip_exactly() {
        let edges = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            9007199254740993.0,
            1e300,
        ];
        for seed in 0..64u64 {
            let mut rng = Rng(seed);
            let mut xs: Vec<f64> = (0..256).map(|_| f64::from_bits(rng.next())).collect();
            if seed == 0 {
                xs.extend(edges);
            }
            for x in xs {
                let doc = Json::object([("x", Json::F64(x))]);
                for back in reparse(&doc, seed) {
                    if x.is_finite() {
                        let got = back["x"].as_f64().map(f64::to_bits);
                        assert_eq!(
                            got,
                            Some(x.to_bits()),
                            "seed {seed}: {x:e} ({:#018x}) came back as {:?}",
                            x.to_bits(),
                            back["x"]
                        );
                    } else {
                        assert!(back["x"].is_null(), "seed {seed}: {x} must write null");
                    }
                }
            }
        }
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::F64(x).to_string(), "null");
        }
        assert_eq!(Json::F64(1.0).to_string(), "1.0");
        assert_eq!(Json::F64(-0.0).to_string(), "-0.0");
    }

    #[test]
    fn integers_keep_every_bit() {
        let fixed = [
            Json::U64(0),
            Json::U64((1 << 53) + 1),
            Json::U64(u64::MAX),
            Json::I64(i64::MIN),
            Json::I64(-1),
            Json::U64(i64::MAX as u64),
        ];
        for seed in 0..64u64 {
            let mut rng = Rng(seed);
            let mut vals: Vec<Json> = (0..64)
                .flat_map(|_| {
                    let bits = rng.next();
                    [Json::U64(bits), Json::from(bits as i64)]
                })
                .collect();
            if seed == 0 {
                vals.extend(fixed.iter().cloned());
            }
            let doc = Json::Array(vals);
            for back in reparse(&doc, seed) {
                assert_eq!(back, doc, "seed {seed}: integers changed");
            }
        }
        assert_eq!(Json::parse("18446744073709551615"), Ok(Json::U64(u64::MAX)));
        assert_eq!(Json::parse("-9223372036854775808"), Ok(Json::I64(i64::MIN)));
        assert_eq!(Json::parse("-0"), Ok(Json::U64(0)));
    }

    #[test]
    fn strings_with_escapes_and_non_ascii_roundtrip() {
        let alphabet: Vec<char> = [
            '"', '\\', '/', 'a', 'Z', ' ', 'é', 'ß', '漢', '🦀', '\u{7f}',
        ]
        .into_iter()
        .chain((0u32..0x20).map(|c| char::from_u32(c).unwrap()))
        .chain(['\u{2028}', '\u{fffd}'])
        .collect();
        for seed in 0..64u64 {
            let mut rng = Rng(seed);
            let strings: Vec<String> = (0..16)
                .map(|_| {
                    let n = rng.below(24);
                    (0..n)
                        .map(|_| alphabet[rng.below(alphabet.len())])
                        .collect()
                })
                .collect();
            let doc = Json::Object(
                strings
                    .iter()
                    .map(|s| (s.clone(), Json::from(s.as_str())))
                    .collect(),
            );
            for back in reparse(&doc, seed) {
                assert_eq!(back, doc, "seed {seed}: strings changed");
            }
        }
        assert_eq!(
            Json::parse(r#""\u00e9\/\ud83e\udd80\b\f""#),
            Ok(Json::from("é/🦀\u{8}\u{c}"))
        );
    }

    #[test]
    fn malformed_input_fails_with_a_typed_error() {
        let sample = Json::object([
            ("name", Json::from("a \"quoted\" é")),
            ("ints", Json::from(vec![Json::U64(u64::MAX), Json::I64(-3)])),
            ("floats", Json::from(vec![0.5, -2.25e-8])),
            (
                "nested",
                Json::object([("empty", Json::Array(vec![])), ("null", Json::Null)]),
            ),
            ("flags", Json::from(vec![true, false])),
        ]);
        for (seed, text) in [sample.to_string(), sample.pretty()].iter().enumerate() {
            assert_eq!(Json::parse(text).as_ref(), Ok(&sample), "seed {seed}");
            for (cut, _) in text.char_indices() {
                let res = Json::parse(&text[..cut]);
                let err = res.expect_err(&format!("seed {seed}: prefix of {cut} bytes parsed"));
                assert!(
                    err.at <= cut,
                    "seed {seed}: error offset {err:?} past {cut}"
                );
            }
        }
        let bad = [
            "",
            "NaN",
            "[NaN]",
            "Infinity",
            "{} x",
            "[1]]",
            "01",
            "1.",
            "-",
            "1e",
            "1e999",
            "[1,]",
            "{\"a\"}",
            "{\"a\":1,}",
            "{1:2}",
            "\"\\x\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\u12\"",
            "\"a\nb\"",
            "tru",
            "nul",
        ];
        for (seed, text) in bad.iter().enumerate() {
            assert!(Json::parse(text).is_err(), "seed {seed}: {text:?} parsed");
        }
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert_eq!(Json::parse(&deep).unwrap_err().what, "nesting too deep");
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn pretty_layout_is_two_space_indented() {
        let doc = Json::object([
            ("a", Json::from(vec![1u64, 2])),
            ("b", Json::object([])),
            ("c", Json::Array(vec![])),
            ("d", Json::object([("e", Json::Null)])),
        ]);
        assert_eq!(
            doc.pretty(),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {},\n  \"c\": [],\n  \"d\": {\n    \"e\": null\n  }\n}"
        );
        assert_eq!(
            doc.to_string(),
            r#"{"a":[1,2],"b":{},"c":[],"d":{"e":null}}"#
        );
        assert_eq!(doc["d"]["e"], Json::Null);
        assert_eq!(doc["a"].as_array().map(<[Json]>::len), Some(2));
        assert!(doc["missing"]["e"].is_null());
    }
}
