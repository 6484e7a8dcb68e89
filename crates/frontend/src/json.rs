//! A hand-rolled, dependency-free JSON pull reader.
//!
//! There is no document tree. [`Reader`] is a byte cursor over the
//! input text; the caller asks for the value it expects next
//! ([`string`](Reader::string), [`int`](Reader::int),
//! [`boolean`](Reader::boolean)), walks containers with the
//! [`object`](Reader::object) / [`array`](Reader::array) visitors, and
//! steps over whatever it has no use for with [`skip`](Reader::skip),
//! which validates as strictly as the typed readers but allocates
//! nothing. Strings come back as [`Cow`]: borrowed from the input
//! unless an escape forced a decode.
//!
//! Covers exactly what Yosys `write_json` emits: objects, arrays,
//! strings, integers (bit indices), booleans, and null. Numbers are
//! `i64` only: the format's only numerics are bit indices and attribute
//! flags, and an `f64` detour would invite rounding into net
//! identities. Containers may nest [`MAX_DEPTH`] deep and no deeper, so
//! hostile input cannot run the reader off the stack.

use std::borrow::Cow;

use crate::error::{syntax, FrontendError};
use crate::MAX_DEPTH;

/// A cursor over one JSON document.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// Byte offset of the cursor, for [`Reader::revisit`].
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Runs `f` with the cursor moved to `offset` — the start of a value
    /// an earlier [`Reader::skip`] stepped over — then puts it back.
    pub fn revisit<T>(
        &mut self,
        offset: usize,
        f: impl FnOnce(&mut Reader<'a>) -> Result<T, FrontendError>,
    ) -> Result<T, FrontendError> {
        let resume = std::mem::replace(&mut self.pos, offset);
        let out = f(self);
        self.pos = resume;
        out
    }

    /// Skips whitespace and returns the next byte without consuming it.
    ///
    /// # Errors
    ///
    /// [`FrontendError::Syntax`] at the end of the input.
    pub fn peek(&mut self) -> Result<u8, FrontendError> {
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Ok(b);
            }
            self.pos += 1;
        }
        Err(syntax("unexpected end of input"))
    }

    /// Skips whitespace and consumes the byte `want`, or fails.
    fn expect(&mut self, want: u8) -> Result<(), FrontendError> {
        if self.peek()? == want {
            self.pos += 1;
            Ok(())
        } else {
            Err(syntax(format!(
                "expected {:?} at offset {}",
                want as char, self.pos
            )))
        }
    }

    /// Succeeds only when nothing but whitespace is left.
    ///
    /// # Errors
    ///
    /// [`FrontendError::Syntax`] on trailing bytes.
    pub fn finish(&mut self) -> Result<(), FrontendError> {
        match self.peek() {
            Err(_) => Ok(()),
            Ok(_) => Err(syntax(format!("trailing bytes at offset {}", self.pos))),
        }
    }

    /// Reads a string literal: a slice of the input when it holds no
    /// escape, a decoded copy otherwise.
    ///
    /// # Errors
    ///
    /// [`FrontendError::Syntax`] on a non-string, an unterminated or
    /// control-byte-bearing literal, or a bad escape.
    pub fn string(&mut self) -> Result<Cow<'a, str>, FrontendError> {
        self.raw_str().map(RawStr::decode)
    }

    /// Reads a string literal without decoding it — nothing is
    /// allocated, even for an escape — after checking its escapes as
    /// strictly as [`Reader::string`] would.
    ///
    /// # Errors
    ///
    /// As [`Reader::string`].
    pub fn raw_str(&mut self) -> Result<RawStr<'a>, FrontendError> {
        let (raw, escaped) = self.raw_string()?;
        if escaped {
            unescape(raw, |_| ())?;
        }
        Ok(RawStr { raw, escaped })
    }

    /// Steps over a string literal, escapes checked.
    fn skip_string(&mut self) -> Result<(), FrontendError> {
        self.raw_str().map(drop)
    }

    /// Consumes a string literal and returns what lies between its
    /// quotes, undecoded, and whether that holds a backslash.
    fn raw_string(&mut self) -> Result<(&'a str, bool), FrontendError> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut escaped = false;
        loop {
            match bytes.get(self.pos) {
                None => return Err(syntax("unexpected end of input")),
                Some(b'"') => break,
                Some(b'\\') => {
                    escaped = true;
                    // Whatever follows is part of the escape, a quote
                    // included; `unescape` judges it.
                    self.pos += 2;
                }
                Some(&b) if b < 0x20 => return Err(syntax("control byte inside string")),
                Some(_) => self.pos += 1,
            }
        }
        // Both ends sit next to an ASCII quote, so they are character
        // boundaries; `get` keeps that a checked fact, not an assumption.
        let raw = self
            .text
            .get(start..self.pos)
            .ok_or_else(|| syntax("unexpected end of input"))?;
        self.pos += 1;
        Ok((raw, escaped))
    }

    /// Reads an integer.
    ///
    /// # Errors
    ///
    /// [`FrontendError::Syntax`] on a non-number, a fraction or
    /// exponent, or a value outside `i64`.
    pub fn int(&mut self) -> Result<i64, FrontendError> {
        self.peek()?;
        let bytes = self.text.as_bytes();
        let start = self.pos;
        if bytes[self.pos] == b'-' {
            self.pos += 1;
        }
        while bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if matches!(bytes.get(self.pos), Some(b'.' | b'e' | b'E')) {
            return Err(syntax(format!(
                "non-integer number at offset {start} (bit indices are integers)"
            )));
        }
        let digits = &self.text[start..self.pos];
        digits
            .parse()
            .map_err(|_| syntax(format!("bad number {digits:?} at offset {start}")))
    }

    /// Reads `true` or `false`.
    ///
    /// # Errors
    ///
    /// [`FrontendError::Syntax`] on anything else.
    pub fn boolean(&mut self) -> Result<bool, FrontendError> {
        let value = self.peek()? == b't';
        self.literal(if value { "true" } else { "false" })?;
        Ok(value)
    }

    fn literal(&mut self, word: &str) -> Result<(), FrontendError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(syntax(format!("bad literal at offset {}", self.pos)))
        }
    }

    /// Steps over one value of any type, checking it as strictly as the
    /// typed readers would, without allocating.
    ///
    /// # Errors
    ///
    /// [`FrontendError::Syntax`] if the value is malformed or nests
    /// beyond [`MAX_DEPTH`].
    pub fn skip(&mut self) -> Result<(), FrontendError> {
        match self.peek()? {
            b'{' => self.members(Reader::skip_string, |r, ()| r.skip()),
            b'[' => self.array(Reader::skip),
            b'"' => self.skip_string(),
            b't' | b'f' => self.boolean().map(drop),
            b'n' => self.literal("null"),
            b'-' | b'0'..=b'9' => self.int().map(drop),
            other => Err(syntax(format!(
                "unexpected byte {:?} at offset {}",
                other as char, self.pos
            ))),
        }
    }

    /// Walks an object, calling `f` with each key, file order, cursor on
    /// the member's value; `f` must consume exactly that value.
    ///
    /// # Errors
    ///
    /// [`FrontendError::Syntax`] on a non-object, malformed punctuation
    /// or nesting beyond [`MAX_DEPTH`]; whatever `f` returns.
    pub fn object(
        &mut self,
        f: impl FnMut(&mut Reader<'a>, Cow<'a, str>) -> Result<(), FrontendError>,
    ) -> Result<(), FrontendError> {
        self.members(Reader::string, f)
    }

    /// [`Reader::object`] with each key as a [`RawStr`], undecoded.
    ///
    /// # Errors
    ///
    /// As [`Reader::object`].
    pub fn object_raw(
        &mut self,
        f: impl FnMut(&mut Reader<'a>, RawStr<'a>) -> Result<(), FrontendError>,
    ) -> Result<(), FrontendError> {
        self.members(Reader::raw_str, f)
    }

    fn members<K>(
        &mut self,
        key: impl Fn(&mut Reader<'a>) -> Result<K, FrontendError>,
        mut f: impl FnMut(&mut Reader<'a>, K) -> Result<(), FrontendError>,
    ) -> Result<(), FrontendError> {
        self.container(b'{', b'}', |r| {
            let k = key(r)?;
            r.expect(b':')?;
            f(r, k)
        })
    }

    /// Walks an array, calling `f` with the cursor on each item; `f`
    /// must consume exactly that item.
    ///
    /// # Errors
    ///
    /// As [`Reader::object`].
    pub fn array(
        &mut self,
        f: impl FnMut(&mut Reader<'a>) -> Result<(), FrontendError>,
    ) -> Result<(), FrontendError> {
        self.container(b'[', b']', f)
    }

    fn container(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Reader<'a>) -> Result<(), FrontendError>,
    ) -> Result<(), FrontendError> {
        self.expect(open)?;
        if self.depth == MAX_DEPTH {
            return Err(syntax(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            )));
        }
        self.depth += 1;
        if self.peek()? == close {
            self.pos += 1;
        } else {
            loop {
                item(self)?;
                match self.peek()? {
                    b',' => self.pos += 1,
                    b if b == close => {
                        self.pos += 1;
                        break;
                    }
                    other => {
                        return Err(syntax(format!(
                            "expected ',' or {:?} at offset {}, found {:?}",
                            close as char, self.pos, other as char
                        )))
                    }
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }
}

/// A string literal as the input spells it: the text between its
/// quotes, escapes still in place (and already checked).
#[derive(Debug, Clone, Copy)]
pub struct RawStr<'a> {
    raw: &'a str,
    escaped: bool,
}

impl<'a> RawStr<'a> {
    /// The literal's text, when it holds no escape to decode.
    pub fn as_plain(self) -> Option<&'a str> {
        (!self.escaped).then_some(self.raw)
    }

    /// Appends the decoded text to `out`.
    pub fn decode_into(self, out: &mut String) {
        unescape(self.raw, |piece| out.push_str(piece)).expect("escapes checked when read");
    }

    /// The decoded text: borrowed unless an escape forced a copy.
    pub fn decode(self) -> Cow<'a, str> {
        match self.as_plain() {
            Some(plain) => Cow::Borrowed(plain),
            None => {
                let mut out = String::with_capacity(self.raw.len());
                self.decode_into(&mut out);
                Cow::Owned(out)
            }
        }
    }
}

/// Decodes the inside of a string literal, handing `sink` the text
/// between escapes and each escape's character in turn.
fn unescape(raw: &str, mut sink: impl FnMut(&str)) -> Result<(), FrontendError> {
    let mut rest = raw;
    while let Some(at) = rest.find('\\') {
        sink(&rest[..at]);
        let mut tail = rest[at + 1..].chars();
        let c = match tail.next() {
            Some('"') => '"',
            Some('\\') => '\\',
            Some('/') => '/',
            Some('n') => '\n',
            Some('r') => '\r',
            Some('t') => '\t',
            Some('b') => '\u{8}',
            Some('f') => '\u{c}',
            Some('u') => {
                let hex = tail
                    .as_str()
                    .get(..4)
                    .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                    .ok_or_else(|| syntax("bad \\u escape"))?;
                tail = tail.as_str()[4..].chars();
                let cp = u32::from_str_radix(hex, 16).expect("four hex digits");
                // Surrogates (Yosys never emits them) are refused
                // rather than paired.
                char::from_u32(cp)
                    .ok_or_else(|| syntax(format!("\\u{hex} is not a scalar value")))?
            }
            Some(other) => return Err(syntax(format!("bad escape \\{other:?}"))),
            None => return Err(syntax("unexpected end of input")),
        };
        sink(c.encode_utf8(&mut [0; 4]));
        rest = tail.as_str();
    }
    sink(rest);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Walks a whole document with `skip`.
    fn check(text: &str) -> Result<(), FrontendError> {
        let mut r = Reader::new(text);
        r.skip()?;
        r.finish()
    }

    #[test]
    fn visitors_see_members_in_file_order() {
        let mut r = Reader::new(r#"{"a": [1, 2, "x"], "b": {"c": true, "d": null}, "e": -7}"#);
        let mut seen = Vec::new();
        r.object(|r, key| {
            match &*key {
                "a" => {
                    let mut items = 0;
                    r.array(|r| {
                        items += 1;
                        r.skip()
                    })?;
                    seen.push(format!("a:{items}"));
                }
                "e" => seen.push(format!("e:{}", r.int()?)),
                _ => {
                    r.skip()?;
                    seen.push(key.into_owned());
                }
            }
            Ok(())
        })
        .expect("valid JSON");
        r.finish().expect("nothing trails");
        assert_eq!(seen, ["a:3", "b", "e:-7"]);
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut r = Reader::new(r#"["plain ü", "a\"b\\c\ndAé\/"]"#);
        let mut got = Vec::new();
        r.array(|r| {
            got.push(r.string()?);
            Ok(())
        })
        .expect("valid");
        assert!(matches!(got[0], Cow::Borrowed("plain ü")));
        assert!(matches!(&got[1], Cow::Owned(s) if s == "a\"b\\c\ndAé/"));
    }

    #[test]
    fn bad_strings_are_rejected_wherever_they_sit() {
        for bad in [
            r#""\q""#,
            r#""\u12""#,
            r#""\u+123""#,
            r#""\ud800""#,
            "\"a\u{1}b\"",
            r#""unterminated"#,
            r#""ends in a backslash\"#,
            r#"{"k\x": 1}"#,
        ] {
            assert!(
                matches!(check(bad), Err(FrontendError::Syntax { .. })),
                "accepted {bad}"
            );
            // The same literal, stepped over inside a container.
            assert!(matches!(
                check(&format!("[{bad}]")),
                Err(FrontendError::Syntax { .. })
            ));
        }
    }

    #[test]
    fn numbers_are_integers_that_fit() {
        assert_eq!(Reader::new(" -0").int().expect("zero"), 0);
        assert_eq!(Reader::new("007").int().expect("leading zeros"), 7);
        for bad in ["1.5", "1e3", "-", "9223372036854775808", "+1", "[2.0]"] {
            assert!(
                matches!(check(bad), Err(FrontendError::Syntax { .. })),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn truncation_is_a_syntax_error_not_a_panic() {
        for cut in [r#"{"a": [1, 2"#, r#"{"a""#, r#"["#, "tru", "nul", "-", ""] {
            assert!(matches!(check(cut), Err(FrontendError::Syntax { .. })));
        }
    }

    #[test]
    fn trailing_garbage_and_loose_punctuation_are_rejected() {
        for bad in [
            r#"{} extra"#,
            "[1,]",
            r#"{"a":1,}"#,
            "[1 2]",
            r#"{"a" 1}"#,
            "{1:2}",
        ] {
            assert!(
                matches!(check(bad), Err(FrontendError::Syntax { .. })),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        check(&nested(MAX_DEPTH)).expect("the cap itself is allowed");
        assert!(matches!(
            check(&nested(MAX_DEPTH + 1)),
            Err(FrontendError::Syntax { .. })
        ));
        // 2 MB of open brackets used to overflow the stack.
        for open in ["[", "{\"a\":"] {
            assert!(matches!(
                check(&open.repeat(2 << 20)),
                Err(FrontendError::Syntax { .. })
            ));
        }
    }
}
