//! Strict reading of canonical text: the one reader behind every line
//! record the workspace writes and reads back.
//!
//! A canonical text is accepted only if writing back what was read gives
//! the same bytes. The writers are plain `format!` calls; this module is
//! the inverse they share, and it holds three rules:
//!
//! - **Lines** ([`Lines`]): every line ends in `\n`, the last one
//!   included, and lines are split on `\n` alone, so a `\r` stays part of
//!   its line. A record is an exact header, `name value` fields in one
//!   fixed order, then `end` with nothing after it.
//! - **Tokens** ([`Tokens`]): a value of several parts is split on single
//!   spaces into plain tokens or `key=value` pairs, read in one fixed
//!   order; a token left over is an error.
//! - **Values** ([`num`], [`hex`]): a number is accepted only if printing
//!   it with `{:?}`, the spelling every writer uses, gives back the same
//!   bytes, so `+5`, `007`, `1.50` and `1E3` are refused. A hex word is
//!   exactly the 16 lower-case digits `{:016x}` writes.
//!
//! So `encode(parse(t)) == t` for every `t` a parser accepts, which is
//! what lets cached, fresh and resumed results be compared byte for byte.
//! Each crate converts [`TextError`] once into its own error type.

use std::fmt::{self, Debug, Write};
use std::str::FromStr;

/// Why a text is not canonical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextError {
    /// What was wrong, and where.
    pub what: String,
}

impl TextError {
    /// An error saying `what`.
    pub fn new(what: impl Into<String>) -> TextError {
        TextError { what: what.into() }
    }
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.what)
    }
}

impl std::error::Error for TextError {}

/// `s` as a number, if `{:?}` prints that number back as exactly `s`.
pub fn num<T: FromStr + Debug>(s: &str) -> Result<T, TextError> {
    s.parse()
        .ok()
        .filter(|v| prints_as(format_args!("{v:?}"), s))
        .ok_or_else(|| TextError::new(format!("not a canonical number: {s:?}")))
}

/// `s` as a `u64`, if it is exactly 16 lower-case hex digits.
pub fn hex(s: &str) -> Result<u64, TextError> {
    let lower = |b: u8| b.is_ascii_digit() || (b'a'..=b'f').contains(&b);
    match u64::from_str_radix(s, 16) {
        Ok(v) if s.len() == 16 && s.bytes().all(lower) => Ok(v),
        _ => Err(TextError::new(format!(
            "not 16 lower-case hex digits: {s:?}"
        ))),
    }
}

/// Whether `args` formats to exactly `s`, compared as it is written.
fn prints_as(args: fmt::Arguments<'_>, s: &str) -> bool {
    struct Rest<'a>(&'a str);
    impl Write for Rest<'_> {
        fn write_str(&mut self, part: &str) -> fmt::Result {
            self.0 = self.0.strip_prefix(part).ok_or(fmt::Error)?;
            Ok(())
        }
    }
    let mut rest = Rest(s);
    rest.write_fmt(args).is_ok() && rest.0.is_empty()
}

/// `got`, which must be exactly `want`.
fn exact(got: &str, want: &str) -> Result<(), TextError> {
    if got == want {
        Ok(())
    } else {
        Err(TextError::new(format!("expected {want:?}, got {got:?}")))
    }
}

/// What follows `name` and `sep` in `got`, which must start with them.
fn after<'t>(got: &'t str, name: &str, sep: char) -> Result<&'t str, TextError> {
    let value = got.strip_prefix(name).and_then(|v| v.strip_prefix(sep));
    value.ok_or_else(|| TextError::new(format!("expected {name}{sep}..., got {got:?}")))
}

/// A cursor over the `\n`-terminated lines of a text.
#[derive(Debug)]
pub struct Lines<'t> {
    rest: &'t str,
}

impl<'t> Lines<'t> {
    /// Starts reading `text` at its first line.
    pub fn new(text: &'t str) -> Lines<'t> {
        Lines { rest: text }
    }

    /// Starts reading `text`, whose first line must be exactly `header`.
    pub fn open(text: &'t str, header: &str) -> Result<Lines<'t>, TextError> {
        let mut lines = Lines::new(text);
        lines.expect(header)?;
        Ok(lines)
    }

    /// The next line, without its `\n`.
    pub fn line(&mut self) -> Result<&'t str, TextError> {
        let (line, rest) = (self.rest.split_once('\n'))
            .ok_or_else(|| TextError::new("truncated, or no final newline"))?;
        self.rest = rest;
        Ok(line)
    }

    /// Reads the next line, which must be exactly `want`.
    pub fn expect(&mut self, want: &str) -> Result<(), TextError> {
        exact(self.line()?, want)
    }

    /// The value of the next line, which must be the field `name`.
    pub fn field(&mut self, name: &str) -> Result<&'t str, TextError> {
        after(self.line()?, name, ' ')
    }

    /// The field `name` as a [`num`].
    pub fn num<T: FromStr + Debug>(&mut self, name: &str) -> Result<T, TextError> {
        num(self.field(name)?)
    }

    /// The text not read yet.
    pub fn rest(&self) -> &'t str {
        self.rest
    }

    /// Reads the closing `end`, which must be the last line.
    pub fn end(mut self) -> Result<(), TextError> {
        self.expect("end")?;
        exact(self.rest, "")
    }
}

/// A cursor over the single-space-separated tokens of one value.
#[derive(Debug)]
pub struct Tokens<'t>(std::str::Split<'t, char>);

impl<'t> Tokens<'t> {
    /// Splits `value` on single spaces.
    pub fn new(value: &'t str) -> Tokens<'t> {
        Tokens(value.split(' '))
    }

    /// The next token.
    pub fn token(&mut self) -> Result<&'t str, TextError> {
        (self.0.next()).ok_or_else(|| TextError::new("missing token"))
    }

    /// Reads the next token, which must be exactly `want`.
    pub fn word(&mut self, want: &str) -> Result<(), TextError> {
        exact(self.token()?, want)
    }

    /// The next token as a [`num`].
    pub fn num<T: FromStr + Debug>(&mut self) -> Result<T, TextError> {
        num(self.token()?)
    }

    /// The value of the next token, which must be `key=value`.
    pub fn pair(&mut self, key: &str) -> Result<&'t str, TextError> {
        after(self.token()?, key, '=')
    }

    /// The value of the `key=value` token as a [`num`].
    pub fn key<T: FromStr + Debug>(&mut self, key: &str) -> Result<T, TextError> {
        num(self.pair(key)?)
    }

    /// Requires that every token has been read.
    pub fn end(mut self) -> Result<(), TextError> {
        match self.0.next() {
            None => Ok(()),
            Some(token) => Err(TextError::new(format!("unexpected token {token:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_are_accepted_only_in_their_printed_spelling() {
        assert_eq!(num::<u64>("5"), Ok(5));
        assert_eq!(num::<f64>("1.5"), Ok(1.5));
        assert_eq!(num::<f64>("1e300"), Ok(1e300));
        assert!(num::<f64>("-0.0").unwrap().is_sign_negative());
        assert!(num::<f64>("NaN").unwrap().is_nan());
        assert_eq!(num::<f64>("inf"), Ok(f64::INFINITY));
        for bad in ["+5", "007", "-0", "5 ", " 5", ""] {
            assert!(num::<u64>(bad).is_err(), "{bad:?}");
        }
        for bad in [
            "1.50", "1E300", "+1.5", "1", "-0", ".5", "1.5\r", "infinity",
        ] {
            assert!(num::<f64>(bad).is_err(), "{bad:?}");
        }
        assert!(num::<u8>("256").is_err());
    }

    #[test]
    fn hex_words_are_sixteen_lower_case_digits() {
        assert_eq!(hex("0123456789abcdef"), Ok(0x0123_4567_89ab_cdef));
        assert_eq!(hex("ffffffffffffffff"), Ok(u64::MAX));
        for bad in [
            "0123456789ABCDEF",
            "+123456789abcdef",
            "123456789abcdef",
            "00123456789abcdef",
            "0123456789abcdeg",
        ] {
            assert!(hex(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn lines_need_the_header_the_order_the_newline_and_the_end() {
        fn read(text: &str) -> Result<(u32, &str), TextError> {
            let mut lines = Lines::open(text, "demo/v1")?;
            let n: u32 = lines.num("n")?;
            let mut t = Tokens::new(lines.field("pair")?);
            let (a, b) = (t.key::<u32>("a")?, t.pair("b")?);
            t.end()?;
            lines.end()?;
            Ok((n + a, b))
        }
        assert_eq!(read("demo/v1\nn 1\npair a=2 b=x\nend\n"), Ok((3, "x")));
        for bad in [
            "demo/v1\nn 1\npair a=2 b=x\nend",
            "demo/v1\r\nn 1\npair a=2 b=x\nend\n",
            "demo/v1\nn 1\r\npair a=2 b=x\nend\n",
            "demo/v1\npair a=2 b=x\nn 1\nend\n",
            "demo/v1\nn 1\npair b=x a=2\nend\n",
            "demo/v1\nn 1\npair a=2 b=x c=3\nend\n",
            "demo/v1\nn 1\npair a=2  b=x\nend\n",
            "demo/v1\nn 1\npair a=2 b=x \nend\n",
            "demo/v1\nn 1\npair a=2 b=x\nend\n\n",
            "demo/v1\nn 01\npair a=2 b=x\nend\n",
        ] {
            assert!(read(bad).is_err(), "{bad:?}");
        }
    }
}
