//! Minimal JSON reader, parser and trace schema validators.
//!
//! The workspace vendors no JSON library, so the schema check CI runs
//! against emitted traces is implemented here: a small recursive-descent
//! grammar (objects, arrays, strings with escapes, numbers, literals)
//! plus validators that enforce the chrome://tracing and JSONL event
//! shapes this crate exports. As RFC 8259 requires, a string may hold a
//! control character only escaped. Reading is linear in the input
//! length, and nesting is capped at [`MAX_DEPTH`] so hostile input cannot
//! exhaust the stack.
//!
//! The grammar lives in one place, [`JsonReader`], a pull reader. It
//! hands out a document's values one at a time: an object's fields and an
//! array's elements through callbacks, strings borrowed from the input
//! unless they hold an escape, and small values as [`JsonValue`]s.
//! [`JsonReader::skip`] checks a value without building it. [`parse`] is
//! the reader's `value` followed by `finish`, and the validators run on
//! its tree. The campaign journal decodes its frames through the reader,
//! so sample arrays go straight into numbers without a tree.

use std::borrow::Cow;
use std::fmt;

/// Deepest array/object nesting [`parse`] accepts; one level more is a
/// [`JsonError`]. The documents this workspace writes nest three levels
/// deep, and the cap keeps the recursive descent far inside a thread's
/// stack.
pub const MAX_DEPTH: usize = 128;

/// The bytes a string may hold unescaped: every byte but `"`, `\\` and the
/// control characters U+0000–U+001F, which RFC 8259 allows only escaped.
/// One table lookup per byte tests all three.
const PLAIN: [bool; 256] = {
    let mut table = [true; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = false;
        b += 1;
    }
    table[b'"' as usize] = false;
    table[b'\\' as usize] = false;
    table
};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, preserving key order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// A pull reader over one JSON document: the grammar behind [`parse`],
/// for callers that want a document's values without its tree.
///
/// Each read starts at the next value, after any whitespace, and
/// consumes exactly that value. [`object`](Self::object) and
/// [`array`](Self::array) hand each member to a callback, which must
/// read it with one of the value methods; [`skip`](Self::skip) checks a
/// value as [`value`](Self::value) would, but builds nothing. Every read
/// reports the same error, at the same byte offset, that [`parse`]
/// reports for that input, and nesting deeper than [`MAX_DEPTH`] levels
/// is refused, in skipped values too. After an error the reader is
/// spent: its position is unspecified.
#[derive(Debug)]
pub struct JsonReader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    /// The byte at the current position.
    fn byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// The first byte of the next value, after whitespace, without
    /// reading the value; `None` at the end of the input.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    /// Reads the next value into a [`JsonValue`].
    pub fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => {
                let mut fields = Vec::new();
                self.object(|r, key| {
                    let value = r.value()?;
                    fields.push((key.into_owned(), value));
                    Ok(())
                })?;
                Ok(JsonValue::Object(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(JsonValue::Array(items))
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?.into_owned())),
            _ => self.scalar(),
        }
    }

    /// Reads the next value and drops it, checking it as
    /// [`value`](Self::value) does without building it.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'{') => self.object(|r, _| r.skip()),
            Some(b'[') => self.array(Self::skip),
            Some(b'"') => self.string().map(drop),
            _ => self.scalar().map(drop),
        }
    }

    /// Checks that only whitespace follows the value read last: trailing
    /// garbage is an error.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return self.err("trailing characters after document");
        }
        Ok(())
    }

    /// Reads an array or object from its `open` bracket to its `close`
    /// one, calling `member` for each member. Refuses to go deeper than
    /// [`MAX_DEPTH`].
    fn members(
        &mut self,
        open: u8,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.peek() != Some(open) {
            return self.err(format!("expected '{}'", open as char));
        }
        if self.depth == MAX_DEPTH {
            return self.err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        self.pos += 1;
        if self.peek() != Some(close) {
            loop {
                member(self)?;
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => break,
                    _ => return self.err(format!("expected ',' or '{}'", close as char)),
                }
            }
        }
        self.depth -= 1;
        self.pos += 1;
        Ok(())
    }

    /// Reads a literal or a number, or fails on a byte that starts no
    /// value.
    fn scalar(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => self.err(format!("unexpected byte 0x{b:02x}")),
            None => self.err("unexpected end of input"),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected '{word}'"))
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.byte() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        // Every byte consumed above is ASCII, so this slice is on char
        // boundaries.
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(JsonValue::Number(n)),
            _ => self.err(format!("invalid number '{text}'")),
        }
    }

    /// Reads a string with its escapes decoded. The result borrows from
    /// the input when the string has no escape. A raw control character
    /// (U+0000–U+001F), which RFC 8259 allows only escaped, is an error at
    /// its byte.
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.skip_ws();
        self.expect(b'"')?;
        let mut out: Option<String> = None;
        loop {
            // Take the run of plain characters up to the next quote,
            // backslash or control character in one step. All three are
            // ASCII and never occur inside a multi-byte UTF-8 sequence, so
            // the run ends on a char boundary of the (already valid) input.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| !PLAIN[usize::from(b)])
                .map_or(self.bytes.len(), |n| self.pos + n);
            let plain = &self.text[self.pos..run];
            self.pos = run;
            match self.byte() {
                None => return self.err("unterminated string"),
                Some(b) if b < 0x20 => {
                    return self.err(format!("raw control character 0x{b:02x} in string"))
                }
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match out {
                        None => Cow::Borrowed(plain),
                        Some(mut out) => {
                            out.push_str(plain);
                            Cow::Owned(out)
                        }
                    });
                }
                // The run stopped at a backslash: decode one escape.
                Some(_) => {
                    let out = out.get_or_insert_with(String::new);
                    out.push_str(plain);
                    self.pos += 1;
                    match self.byte() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex =
                                self.bytes.get(self.pos + 1..self.pos + 5).ok_or_else(|| {
                                    JsonError {
                                        offset: self.pos,
                                        message: "truncated \\u escape".into(),
                                    }
                                })?;
                            // Four hex digits and nothing else: `from_str_radix`
                            // would also take a leading `+`.
                            let code = hex.iter().try_fold(0u32, |code, &b| {
                                (b as char).to_digit(16).map(|d| code * 16 + d)
                            });
                            let Some(code) = code else {
                                return self.err("invalid \\u escape");
                            };
                            // Surrogates are not paired here; replace them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return self.err("invalid escape"),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// The fixed-width fast path of [`string`](Self::string): reads the
    /// next value when it is a string of exactly `N` bytes with no escape
    /// and no control character, and returns those bytes. It tests the `N`
    /// bytes together instead of scanning them one at a time for the
    /// closing quote. Any other value is left unread, and gives `None`, so
    /// [`string`](Self::string) reads it, or refuses it.
    pub fn fixed_string<const N: usize>(&mut self) -> Option<&'a str> {
        self.skip_ws();
        let start = self.pos + 1;
        let body = self.bytes.get(start..start + N)?;
        let plain = body
            .iter()
            .fold(true, |plain, &b| plain & PLAIN[usize::from(b)]);
        if self.byte() != Some(b'"') || self.bytes.get(start + N) != Some(&b'"') || !plain {
            return None;
        }
        self.pos = start + N + 1;
        // Both ends are ASCII quotes, so they are char boundaries.
        Some(&self.text[start..start + N])
    }

    /// Reads an array, calling `item` once per element; `item` must read
    /// that element.
    pub fn array(
        &mut self,
        item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.members(b'[', b']', item)
    }

    /// Reads an object, calling `field` with each key in document order;
    /// `field` must read that key's value.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.members(b'{', b'}', |r| {
            let key = r.string()?;
            r.skip_ws();
            r.expect(b':')?;
            field(r, key)
        })
    }
}

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// garbage is an error.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut reader = JsonReader::new(input);
    let value = reader.value()?;
    reader.finish()?;
    Ok(value)
}

fn require_string(obj: &JsonValue, key: &str, at: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{at}: missing or non-string \"{key}\""))
}

fn require_number(obj: &JsonValue, key: &str, at: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{at}: missing or non-numeric \"{key}\""))
}

/// Validates a chrome://tracing JSON document against the event shape
/// this crate exports: a top-level array of objects carrying `name`,
/// `cat`, `ph` ∈ {`X`, `i`, `C`}, non-negative `ts`, `pid`, `tid`, an
/// `args` object, a non-negative `dur` for complete events and a scope
/// `s` for instants. Returns the event count.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .as_array()
        .ok_or_else(|| "top level is not an array".to_string())?;
    for (i, e) in events.iter().enumerate() {
        let at = format!("event {i}");
        if !matches!(e, JsonValue::Object(_)) {
            return Err(format!("{at}: not an object"));
        }
        require_string(e, "name", &at)?;
        require_string(e, "cat", &at)?;
        let ph = require_string(e, "ph", &at)?;
        let ts = require_number(e, "ts", &at)?;
        require_number(e, "pid", &at)?;
        require_number(e, "tid", &at)?;
        if ts < 0.0 {
            return Err(format!("{at}: negative ts"));
        }
        if !matches!(e.get("args"), Some(JsonValue::Object(_))) {
            return Err(format!("{at}: missing args object"));
        }
        match ph.as_str() {
            "X" => {
                if require_number(e, "dur", &at)? < 0.0 {
                    return Err(format!("{at}: negative dur"));
                }
            }
            "i" => {
                require_string(e, "s", &at)?;
            }
            "C" => {}
            other => return Err(format!("{at}: unknown ph \"{other}\"")),
        }
    }
    Ok(events.len())
}

/// Validates a JSONL trace: each non-empty line is an object carrying
/// `cat`, `name`, non-negative `t_ns`, `lane`, `seq`, a `kind` of
/// `span` (with `dur_ns`), `instant`, or `counter` (with `value`), and
/// an `args` object. Returns the event count.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut count = 0;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = format!("line {}", lineno + 1);
        let e = parse(line).map_err(|err| format!("{at}: {err}"))?;
        require_string(&e, "cat", &at)?;
        require_string(&e, "name", &at)?;
        if require_number(&e, "t_ns", &at)? < 0.0 {
            return Err(format!("{at}: negative t_ns"));
        }
        require_number(&e, "lane", &at)?;
        require_number(&e, "seq", &at)?;
        if !matches!(e.get("args"), Some(JsonValue::Object(_))) {
            return Err(format!("{at}: missing args object"));
        }
        match require_string(&e, "kind", &at)?.as_str() {
            "span" => {
                if require_number(&e, "dur_ns", &at)? < 0.0 {
                    return Err(format!("{at}: negative dur_ns"));
                }
            }
            "instant" => {}
            "counter" => {
                // `value` may be a quoted string for non-finite samples.
                if e.get("value").is_none() {
                    return Err(format!("{at}: missing \"value\""));
                }
            }
            other => return Err(format!("{at}: unknown kind \"{other}\"")),
        }
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::json_escape;
    use proptest::prelude::*;

    fn err(offset: usize, message: &str) -> Result<JsonValue, JsonError> {
        Err(JsonError {
            offset,
            message: message.into(),
        })
    }

    fn string(s: &str) -> Result<JsonValue, JsonError> {
        Ok(JsonValue::String(s.into()))
    }

    #[test]
    fn string_scan_gives_the_same_values_and_errors_as_per_char_decoding() {
        // Expected values and error offsets are those of the earlier
        // parser, which decoded one char at a time.
        let cases: Vec<(&str, Result<JsonValue, JsonError>)> = vec![
            // 2-, 3- and 4-byte UTF-8 next to escapes and the closing quote.
            ("\"a\u{e9}\\\"\"", string("a\u{e9}\"")),
            ("\"\u{20ac}\\\\\"", string("\u{20ac}\\")),
            ("\"\u{1f600}\"", string("\u{1f600}")),
            (
                "\"\\n\u{1f600}\u{20ac}\u{e9}\\t\"",
                string("\n\u{1f600}\u{20ac}\u{e9}\t"),
            ),
            ("\"\u{e9}\\u0041\u{20ac}\"", string("\u{e9}A\u{20ac}")),
            (
                "{\"k\u{e9}\":\"v\u{1f600}\"}",
                Ok(JsonValue::Object(vec![(
                    "k\u{e9}".into(),
                    JsonValue::String("v\u{1f600}".into()),
                )])),
            ),
            // `\u` escapes; unpaired surrogates become U+FFFD.
            ("\"\\u0041\"", string("A")),
            ("\"\\ud800\"", string("\u{fffd}")),
            ("\"\\ud83d\\ude00\"", string("\u{fffd}\u{fffd}")),
            // Raw control bytes are refused where they stand.
            (
                "\"a\u{1}\tb\u{1f}\"",
                err(2, "raw control character 0x01 in string"),
            ),
            // Unterminated after a multi-byte char and after a trailing `\`.
            ("\"ab\u{1f600}", err(7, "unterminated string")),
            ("\"\u{e9}\\", err(4, "invalid escape")),
            // Malformed escapes, including one cut inside a multi-byte char.
            ("\"\\u12\"", err(2, "truncated \\u escape")),
            ("\"\\uzzzz\"", err(2, "invalid \\u escape")),
            ("\"\\u00\u{e9}\"", err(2, "invalid \\u escape")),
            ("\"\u{e9}\\\u{fc}\"", err(4, "invalid escape")),
            // Numbers are sliced from the input too.
            ("-1.5e3", Ok(JsonValue::Number(-1500.0))),
            ("1e999", err(5, "invalid number '1e999'")),
        ];
        for (input, expected) in cases {
            assert_eq!(parse(input), expected, "{input:?}");
        }
    }

    proptest! {
        #[test]
        fn escaped_strings_parse_back(parts in prop::collection::vec(prop_oneof![
            "[\u{0}-\u{7f}]{0,8}",
            "[\u{80}-\u{7ff}]{0,4}",
            "[\u{800}-\u{d7ff}\u{e000}-\u{ffff}]{0,4}",
            // Both ends and the middle of the 4-byte range (the stub
            // builds the whole class per draw).
            "[\u{10000}-\u{100ff}\u{80000}-\u{800ff}\u{10ff00}-\u{10ffff}]{0,4}",
        ], 0..8)) {
            let s = parts.concat();
            prop_assert_eq!(parse(&format!("\"{}\"", json_escape(&s))), Ok(JsonValue::String(s)));
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u00e9\u00C9""#), string("\u{e9}\u{c9}"));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u0x41""#] {
            assert_eq!(parse(bad), err(2, "invalid \\u escape"), "{bad}");
        }
    }

    /// A chrome trace and a JSONL trace in the shapes the exporters
    /// write, with escapes and multi-byte characters in their strings.
    const CHROME: &str = r#"[
{"name":"task","cat":"pool","ts":1234.567,"pid":0,"tid":2,"ph":"X","dur":4.005,"args":{"index":7,"stolen":true}},
{"name":"steal \"x\"\n","cat":"sched","ts":0.008,"pid":0,"tid":0,"ph":"i","s":"t","args":{"err":"a\\b \u00e9 é😀"}},
{"name":"samples","cat":"campaign","ts":0.009,"pid":0,"tid":1,"ph":"C","args":{"value":12.5,"bad":"NaN","n":-3}}
]
"#;
    const JSONL: &str = r#"{"cat":"pool","name":"task","t_ns":1234567,"lane":2,"seq":0,"kind":"span","dur_ns":4005,"args":{"index":7,"stolen":true}}
{"cat":"sched","name":"steal \"x\"\n","t_ns":8,"lane":0,"seq":1,"kind":"instant","args":{"err":"a\\b \u00e9 é😀"}}
{"cat":"campaign","name":"samples","t_ns":9,"lane":1,"seq":2,"kind":"counter","value":"NaN","args":{"n":-3e0}}
"#;

    /// Feeds `input` to the parser and both validators. None may panic,
    /// and a parse error must point inside the input. Skipping the
    /// document must succeed exactly when parsing does, with the same
    /// error.
    fn fuzz_case(input: &str, case: &str) {
        let (parsed, skipped) = std::panic::catch_unwind(|| {
            let _ = validate_chrome_trace(input);
            let _ = validate_jsonl(input);
            let mut reader = JsonReader::new(input);
            let skipped = reader.skip().and_then(|()| reader.finish());
            (parse(input), skipped)
        })
        .unwrap_or_else(|_| panic!("{case} panicked on {input:?}"));
        assert_eq!(skipped, parsed.clone().map(drop), "{case}: {input:?}");
        if let Err(e) = parsed {
            assert!(e.offset <= input.len(), "{case}: {e} in {input:?}");
        }
    }

    #[test]
    fn fuzzed_traces_give_values_or_typed_errors() {
        // splitmix64 from a fixed seed: every run sees the same cases.
        let mut state = 0x5eed_0016_u64;
        let mut below = |bound: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        assert_eq!(validate_chrome_trace(CHROME), Ok(3));
        assert_eq!(validate_jsonl(JSONL), Ok(3));
        for (name, base) in [("chrome", CHROME), ("jsonl", JSONL)] {
            for cut in (0..=base.len()).filter(|&i| base.is_char_boundary(i)) {
                fuzz_case(&base[..cut], &format!("{name} cut at byte {cut}"));
            }
            for case in 0..500 {
                let mut bytes = base.as_bytes().to_vec();
                for _ in 0..1 + below(4) {
                    let at = below(bytes.len());
                    if bytes[at].is_ascii() {
                        bytes[at] = below(128) as u8;
                    }
                }
                let text = String::from_utf8(bytes).expect("ASCII replaced by ASCII");
                fuzz_case(&text, &format!("{name} mutation {case}"));
            }
        }
        let alphabet: Vec<char> = "{}[]\":,\\ \n\t\u{1}019-+.eEuaflnrst\u{e9}\u{1f600}"
            .chars()
            .collect();
        for case in 0..2_000 {
            let text: String = (0..below(48))
                .map(|_| alphabet[below(alphabet.len())])
                .collect();
            fuzz_case(&text, &format!("random string {case}"));
        }
    }

    #[test]
    fn raw_control_characters_in_strings_are_refused_on_every_path() {
        for (doc, offset) in [
            ("\"a\u{1}b\"", 2),
            ("{\"k\u{0}\":1}", 3),
            ("[\"\\n\u{1f}\"]", 4),
            ("\"0123456789abcde\u{1}\"", 16),
        ] {
            let e = parse(doc).unwrap_err();
            assert_eq!(e.offset, offset, "{doc:?}");
            assert!(e.message.starts_with("raw control character"), "{e}");
            let mut r = JsonReader::new(doc);
            assert_eq!(r.skip().and_then(|()| r.finish()), Err(e), "{doc:?}");
        }
        // The fixed-width path leaves such a string to `string`.
        let mut r = JsonReader::new("\"0123456789abcde\u{1}\"");
        assert_eq!(r.fixed_string::<16>(), None);
        assert_eq!(r.string().unwrap_err().offset, 16);
        // Both validators refuse an export with one in an event name.
        let chrome = CHROME.replacen("steal", "ste\u{1}al", 1);
        assert!(validate_chrome_trace(&chrome)
            .unwrap_err()
            .contains("control character"));
        let jsonl = JSONL.replacen("steal", "ste\u{1}al", 1);
        assert!(validate_jsonl(&jsonl)
            .unwrap_err()
            .contains("control character"));
    }

    #[test]
    fn reader_hands_out_values_without_a_tree() {
        let doc = r#" {"a" : [1, "x\ty"], "b\u0063": {"d": null}, "e": "0123", "f": "01\"3"} "#;
        let mut r = JsonReader::new(doc);
        let mut seen = Vec::new();
        r.object(|r, key| {
            match &*key {
                "a" => r.array(|r| {
                    seen.push(format!("{:?}", r.value()?));
                    Ok(())
                })?,
                "bc" => {
                    assert!(matches!(key, Cow::Owned(_)), "an escaped key is decoded");
                    r.skip()?;
                }
                "e" => {
                    assert_eq!(r.fixed_string::<3>(), None);
                    assert_eq!(r.fixed_string::<4>(), Some("0123"));
                }
                _ => {
                    // An escape inside the fixed width leaves the string
                    // to the general path.
                    assert_eq!(r.fixed_string::<5>(), None);
                    assert!(matches!(r.string()?, Cow::Owned(s) if s == "01\"3"));
                }
            }
            Ok(())
        })
        .unwrap();
        r.finish().unwrap();
        assert_eq!(seen, ["Number(1.0)", "String(\"x\\ty\")"]);
        let mut r = JsonReader::new(r#""plain""#);
        assert!(matches!(r.string(), Ok(Cow::Borrowed("plain"))));
        // A skipped value nested past the cap is refused where `parse`
        // refuses it.
        let deep = format!(
            "{{\"k\":{}{}}}",
            "[".repeat(MAX_DEPTH),
            "]".repeat(MAX_DEPTH)
        );
        let mut r = JsonReader::new(&deep);
        let skipped = r.object(|r, _| r.skip());
        assert_eq!(skipped, parse(&deep).map(drop));
        assert_eq!(skipped.unwrap_err().offset, 5 + MAX_DEPTH - 1);
    }

    #[test]
    fn peek_looks_past_whitespace_without_reading() {
        let mut r = JsonReader::new(" \t\n [1, \"a\"]\r\n");
        assert_eq!(r.peek(), Some(b'['));
        assert_eq!(r.peek(), Some(b'['), "a peek reads nothing");
        assert_eq!(
            r.value(),
            Ok(JsonValue::Array(vec![
                JsonValue::Number(1.0),
                JsonValue::String("a".into())
            ]))
        );
        assert_eq!(r.peek(), None);
        assert_eq!(JsonReader::new(" \r\n ").peek(), None);
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let too_deep = err(
            MAX_DEPTH,
            &format!("nesting deeper than {MAX_DEPTH} levels"),
        );
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert_eq!(parse(&nest(MAX_DEPTH + 1)), too_deep);
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(parse(&objects).unwrap_err().offset, 5 * MAX_DEPTH);
        // Without the cap this overflows a 2 MiB stack and aborts.
        let deep = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                (
                    parse(&"[".repeat(100_000)),
                    validate_chrome_trace(&"[".repeat(100_000)),
                )
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(deep.0, too_deep);
        assert!(deep.1.unwrap_err().contains("nesting deeper"));
    }

    #[test]
    fn parses_scalars_and_nesting() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("-12.5e2").unwrap(), JsonValue::Number(-1250.0));
        assert_eq!(
            parse("\"a\\nb\\u0041\"").unwrap(),
            JsonValue::String("a\nbA".into())
        );
        let doc = parse("{\"a\": [1, {\"b\": false}], \"c\": \"x\"}").unwrap();
        assert_eq!(doc.get("c").and_then(JsonValue::as_str), Some("x"));
        let arr = doc.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].get("b"), Some(&JsonValue::Bool(false)));
        assert_eq!(parse("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), JsonValue::Object(vec![]));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"abc", "[1]]"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn chrome_validator_enforces_shape() {
        let good =
            r#"[{"name":"t","cat":"pool","ph":"X","ts":1.5,"dur":2.0,"pid":0,"tid":1,"args":{}}]"#;
        assert_eq!(validate_chrome_trace(good).unwrap(), 1);
        let missing_dur =
            r#"[{"name":"t","cat":"pool","ph":"X","ts":1.5,"pid":0,"tid":1,"args":{}}]"#;
        assert!(validate_chrome_trace(missing_dur).is_err());
        let bad_ph = r#"[{"name":"t","cat":"p","ph":"Z","ts":1,"pid":0,"tid":1,"args":{}}]"#;
        assert!(validate_chrome_trace(bad_ph).is_err());
        assert!(validate_chrome_trace("{}").is_err());
    }

    #[test]
    fn jsonl_validator_enforces_shape() {
        let good = "{\"cat\":\"pool\",\"name\":\"t\",\"t_ns\":1,\"lane\":0,\"seq\":0,\"kind\":\"span\",\"dur_ns\":5,\"args\":{}}\n";
        assert_eq!(validate_jsonl(good).unwrap(), 1);
        let bad_kind = "{\"cat\":\"pool\",\"name\":\"t\",\"t_ns\":1,\"lane\":0,\"seq\":0,\"kind\":\"x\",\"args\":{}}\n";
        assert!(validate_jsonl(bad_kind).is_err());
        assert_eq!(validate_jsonl("\n\n").unwrap(), 0);
    }
}
