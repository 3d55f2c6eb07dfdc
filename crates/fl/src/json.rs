//! The workspace's one JSON format. Two shapes are written against it:
//! `fedclust-cli run --json`'s [`crate::RunResult`] ([`pretty`]) and
//! FedClust's `SavedFederation` snapshot ([`compact`]), which is also
//! [`read`] back.
//!
//! The float rule: an f32 is widened to f64 first. A finite `f` with
//! `f == f.trunc()` and `|f| < 1e15` prints as `{:.1}` (`3.0`, `-0.0`), any
//! other finite `f` with f64 `Display` (shortest round-trip digits, never
//! an exponent), and NaN/±∞ print as `null` — JSON has no spelling for
//! them. The reader refuses `null` where it expects a number.

use std::fmt::Write as _;

/// The compact (single-line) JSON text `body` writes.
pub fn compact(body: impl FnOnce(&mut Writer)) -> String {
    write(false, body)
}

/// The pretty JSON text `body` writes: 2-space indent, `"key": value`.
pub fn pretty(body: impl FnOnce(&mut Writer)) -> String {
    write(true, body)
}

fn write(pretty: bool, body: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer {
        out: String::new(),
        pretty,
        depth: 0,
        empty: true,
    };
    body(&mut w);
    w.out
}

/// Writes one JSON value; empty containers print as `[]` and `{}`.
/// Writing cannot fail.
pub struct Writer {
    out: String,
    pretty: bool,
    depth: usize,
    /// Nothing written yet inside the innermost open container.
    empty: bool,
}

impl Writer {
    /// An object; `body` writes its members with [`Writer::field`].
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) {
        self.open('{');
        body(self);
        self.close('}');
    }

    /// An array of `items`, each written by `each`.
    pub fn array<I: IntoIterator>(&mut self, items: I, mut each: impl FnMut(&mut Self, I::Item)) {
        self.open('[');
        for item in items {
            self.item();
            each(self, item);
        }
        self.close(']');
    }

    /// The key of the next object member; write its value on the result.
    pub fn field(&mut self, key: &str) -> &mut Self {
        self.item();
        self.str(key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self
    }

    /// A string, escaped.
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    pub fn usize(&mut self, n: usize) {
        let _ = write!(self.out, "{}", n);
    }

    /// An f32, widened to f64 (see the module docs).
    pub fn f32(&mut self, f: f32) {
        self.f64(f64::from(f));
    }

    /// An f64 under the float rule (see the module docs).
    pub fn f64(&mut self, f: f64) {
        if !f.is_finite() {
            self.null();
        } else if f == f.trunc() && f.abs() < 1e15 {
            let _ = write!(self.out, "{:.1}", f);
        } else {
            let _ = write!(self.out, "{}", f);
        }
    }

    /// An array of f32s.
    pub fn f32s(&mut self, v: &[f32]) {
        self.array(v, |w, &f| w.f32(f));
    }

    /// An array of unsigned integers.
    pub fn usizes(&mut self, v: &[usize]) {
        self.array(v, |w, &n| w.usize(n));
    }

    fn open(&mut self, c: char) {
        self.out.push(c);
        self.depth += 1;
        self.empty = true;
    }

    fn close(&mut self, c: char) {
        self.depth = self.depth.saturating_sub(1);
        if !self.empty {
            self.newline();
        }
        // The enclosing container holds at least this one.
        self.empty = false;
        self.out.push(c);
    }

    /// Before an array element or an object key.
    fn item(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.newline();
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..self.depth {
                self.out.push_str("  ");
            }
        }
    }
}

/// Reads all of `text` with `body`: anything `body` does not consume,
/// whitespace aside, is an error.
pub fn read<'a, T>(text: &'a str, body: impl FnOnce(&mut Reader<'a>) -> Result<T>) -> Result<T> {
    let mut r = Reader {
        text: text.as_bytes(),
        pos: 0,
        first: true,
    };
    let value = body(&mut r)?;
    match r.peek() {
        None => Ok(value),
        Some(_) => Err(r.expected("the end of the text")),
    }
}

/// What went wrong, and at which byte.
pub type Result<T> = std::result::Result<T, String>;

/// A cursor that reads exactly the schema its caller asks for. Every read
/// skips leading whitespace and returns `Err` on anything else; nothing
/// panics, and nothing recurses on the input, so nesting depth is bounded
/// by the caller's schema.
pub struct Reader<'a> {
    text: &'a [u8],
    pos: usize,
    /// No member read yet in the innermost open object.
    first: bool,
}

impl<'a> Reader<'a> {
    /// An object; `body` reads its members, in order, with
    /// [`Reader::field`].
    pub fn object<T>(&mut self, body: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.punct(b'{')?;
        self.first = true;
        let value = body(self)?;
        self.punct(b'}')?;
        self.first = false;
        Ok(value)
    }

    /// The next object member, which must be named `key`; read its value
    /// on the result.
    pub fn field(&mut self, key: &str) -> Result<&mut Self> {
        if !self.first {
            self.punct(b',')?;
        }
        self.first = false;
        if self.name()? != key {
            return Err(format!("expected field `{}` before byte {}", key, self.pos));
        }
        self.punct(b':')?;
        Ok(self)
    }

    /// An array, each element read by `each`.
    pub fn array<T>(&mut self, mut each: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        self.punct(b'[')?;
        let mut items = Vec::new();
        if self.eat(b']') {
            return Ok(items);
        }
        loop {
            items.push(each(self)?);
            if self.eat(b']') {
                return Ok(items);
            }
            self.punct(b',')?;
        }
    }

    /// Whether the next value is an object.
    pub fn at_object(&mut self) -> bool {
        self.peek() == Some(b'{')
    }

    /// A string without escapes: an object key or an enum tag.
    pub fn name(&mut self) -> Result<&'a str> {
        self.punct(b'"')?;
        let (at, name) = self.run(|b| b != b'"' && b != b'\\');
        self.punct(b'"')?;
        std::str::from_utf8(name).map_err(|_| format!("invalid UTF-8 at byte {}", at))
    }

    pub fn usize(&mut self) -> Result<usize> {
        self.number()
    }

    /// An f32: the nearest to the decimal, which is exact for every f32
    /// [`Writer::f32`] writes (its f64 digits sit far inside the f32's
    /// rounding interval).
    pub fn f32(&mut self) -> Result<f32> {
        self.number()
    }

    /// The run of number characters at the cursor, parsed as a `T`.
    fn number<T: std::str::FromStr>(&mut self) -> Result<T> {
        self.peek(); // past the whitespace
        let (at, token) = self.run(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'));
        let parsed = std::str::from_utf8(token).ok().and_then(|t| t.parse().ok());
        parsed.ok_or_else(|| format!("expected a number at byte {}", at))
    }

    /// The bytes from the cursor up to the first one `keep` refuses.
    fn run(&mut self, keep: impl Fn(u8) -> bool) -> (usize, &'a [u8]) {
        let start = self.pos;
        let rest = self.text.get(start..).unwrap_or_default();
        let len = rest.iter().position(|&b| !keep(b)).unwrap_or(rest.len());
        self.pos = start + len;
        (start, rest.get(..len).unwrap_or_default())
    }

    fn punct(&mut self, c: u8) -> Result<()> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.expected(&format!("`{}`", c as char)))
        }
    }

    /// Consume `c` if it is the next byte after whitespace.
    fn eat(&mut self, c: u8) -> bool {
        let next = self.peek() == Some(c);
        self.pos += usize::from(next);
        next
    }

    fn peek(&mut self) -> Option<u8> {
        while self.text.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
        self.text.get(self.pos).copied()
    }

    fn expected(&self, what: &str) -> String {
        format!("expected {} at byte {}", what, self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_follow_the_rule() {
        let cases: [(f64, &str); 10] = [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (3.0, "3.0"),
            (0.5, "0.5"),
            (999_999_999_999_999.0, "999999999999999.0"),
            (1e15, "1000000000000000"),
            (-1e15, "-1000000000000000"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ];
        for (f, text) in cases {
            assert_eq!(compact(|w| w.f64(f)), text, "{}", f);
        }
        assert_eq!(compact(|w| w.f32(0.1)), "0.10000000149011612");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            compact(|w| w.str("a\"b\\c\nd\re\tf\u{1}g\u{7f}θ")),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\u{7f}θ\""
        );
    }

    #[test]
    fn layouts_and_empty_containers() {
        let doc = |w: &mut Writer| {
            w.object(|w| {
                w.field("a").usizes(&[1, 2]);
                w.field("b").f32s(&[]);
                w.field("c").object(|_| {});
                w.field("d").null();
            })
        };
        assert_eq!(compact(doc), r#"{"a":[1,2],"b":[],"c":{},"d":null}"#);
        assert_eq!(
            pretty(doc),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": [],\n  \"c\": {},\n  \"d\": null\n}"
        );
    }

    #[test]
    fn reader_reads_what_the_writer_writes() {
        let floats = [
            0.0f32,
            -0.0,
            0.1,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            3e38,
            -1e20,
        ];
        let text = compact(|w| {
            w.object(|w| {
                w.field("n").usize(usize::MAX);
                w.field("tag").str("LeNet5");
                w.field("v").f32s(&floats);
                w.field("vv").array([&[][..], &[1][..]], |w, v| w.usizes(v));
            })
        });
        let (n, tag, v, vv) = read(&text, |r| {
            r.object(|r| {
                let n = r.field("n")?.usize()?;
                let tag = r.field("tag")?.name()?;
                let v = r.field("v")?.array(Reader::f32)?;
                let vv = r.field("vv")?.array(|r| r.array(Reader::usize))?;
                Ok((n, tag, v, vv))
            })
        })
        .unwrap();
        assert_eq!((n, tag), (usize::MAX, "LeNet5"));
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&v), bits(&floats));
        assert_eq!(vv, [vec![], vec![1]]);
    }

    #[test]
    fn reader_refuses_what_the_schema_does_not_allow() {
        let floats = |text: &str| read(text, |r| r.object(|r| r.field("a")?.array(Reader::f32)));
        assert_eq!(floats(" { \"a\" : [ 1 , -2.5e0 ] } "), Ok(vec![1.0, -2.5]));
        for bad in [
            "",
            "{\"a\":[null]}",
            "{\"a\":[1,]}",
            "{\"a\":[1 2]}",
            "{\"b\":[]}",
            "{\"a\":[]}x",
            "{\"a\\\"\":[]}",
            "{\"a\":[-]}",
            "{\"a\":[1]",
            "{\"a\":[\"1\"]}",
        ] {
            assert!(floats(bad).is_err(), "{:?}", bad);
        }
        for bad in ["-1", "1.5", "18446744073709551616", "null"] {
            assert!(read(bad, Reader::usize).is_err(), "{:?}", bad);
        }
        let pair = |text: &str| {
            read(text, |r| {
                r.object(|r| Ok((r.field("a")?.usize()?, r.field("b")?.usize()?)))
            })
        };
        assert_eq!(pair("{\"a\":1,\"b\":2}"), Ok((1, 2)));
        for bad in [
            "{\"a\":1 \"b\":2}",
            "{\"a\":1,,\"b\":2}",
            "{,\"a\":1,\"b\":2}",
            "{\"b\":2,\"a\":1}",
        ] {
            assert!(pair(bad).is_err(), "{:?}", bad);
        }
    }
}
