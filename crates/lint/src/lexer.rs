//! A minimal, panic-free Rust lexer for `fedlint`.
//!
//! The container has no crates.io access, so `fedlint` cannot use `syn` or
//! `proc-macro2`; instead it ships this hand-rolled token scanner. It does
//! not parse Rust — it only needs to answer "which identifiers, operators,
//! and literals appear on which line, outside of strings and comments", which
//! is exactly what the rules in [`crate::rules`] consume. Consequently it
//! understands the full literal surface that could otherwise cause false
//! positives: line and (nested) block comments, cooked strings with escapes,
//! raw strings with arbitrary `#` fences, byte/C-string prefixes, char and
//! byte-char literals, lifetimes, raw identifiers, and numeric literals with
//! separators, exponents, and type suffixes.
//!
//! Robustness contract: `lex` never panics and never loops forever, for any
//! input whatsoever (pinned by a property test over arbitrary byte soup).
//! Every byte access is bounds-checked via [`Lexer::at`], and every loop
//! iteration advances the cursor.
//!
//! The rules read [`code_stream`]: the tokens minus comments, with every
//! `(`/`[`/`{` linked to the closer that ends its group, so a walk that
//! skips a group jumps to its partner ([`group_end`]) instead of counting
//! depth.

/// What a token is, at the granularity the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unsafe`, `HashMap`, `unwrap`, ...).
    Ident,
    /// Integer literal (`42`, `0xFF`, `1_000u64`).
    Int,
    /// Float literal (`1.0`, `2e-3`, `1f32`).
    Float,
    /// Any string-like literal (`"…"`, `r#"…"#`, `b"…"`, `c"…"`).
    Str,
    /// Char or byte-char literal (`'a'`, `b'\n'`).
    Char,
    /// Lifetime or loop label (`'a`, `'static`).
    Lifetime,
    /// Operator / punctuation; multi-char operators like `==` are one token.
    Op,
    /// Line or block comment, delimiters included in `text`.
    Comment,
}

/// One lexed token. `line` is 1-based and refers to the token's first line
/// (comments and strings may span several).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// Raw text (lossy UTF-8 for literals; exact for idents and operators).
    pub text: String,
    /// 1-based line of the token's first byte.
    pub line: u32,
    /// In a [`code_stream`], the index of the delimiter that pairs with
    /// this one: an opener's closer (the stream's length when nothing
    /// closes it) or a closer's opener. `None` on every other token, on a
    /// closer with no open group, and on streams nobody paired.
    pub pair: Option<usize>,
}

/// Lex `src` into a token stream. Never panics; invalid Rust degrades into
/// best-effort tokens rather than errors.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        s: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

/// The comment-free stream every rule reads, paired: one stack of open
/// groups, and any closer ends the innermost one (so `(]` is a group).
pub fn code_stream(tokens: &[Token]) -> Vec<Token> {
    let mut code: Vec<Token> = tokens
        .iter()
        .filter(|t| t.kind != TokKind::Comment)
        .cloned()
        .collect();
    let mut open = Vec::new();
    for i in 0..code.len() {
        match code[i].text.as_str() {
            "(" | "[" | "{" => open.push(i),
            ")" | "]" | "}" => {
                if let Some(o) = open.pop() {
                    code[o].pair = Some(i);
                    code[i].pair = Some(o);
                }
            }
            _ => {}
        }
    }
    let len = code.len();
    for o in open {
        code[o].pair = Some(len);
    }
    code
}

/// Where the group opened at `open` ends: its closer, or the stream's
/// length when nothing closes it. Never before `open` (which it returns on
/// a token that opens nothing, or on a stream nobody paired), so a walk
/// that jumps to it always advances.
pub(crate) fn group_end(code: &[Token], open: usize) -> usize {
    code.get(open)
        .and_then(|t| t.pair)
        .unwrap_or(open)
        .max(open)
}

/// The text of token `i`, or `""` past either end of the stream — so
/// `text_at(code, k.wrapping_sub(1))` is a total "previous token" lookup.
pub(crate) fn text_at(code: &[Token], i: usize) -> &str {
    code.get(i).map(|t| t.text.as_str()).unwrap_or("")
}

/// Multi-byte operators, longest first within each arm of the match below.
const OPS3: [&str; 3] = ["..=", "<<=", ">>="];
const OPS2: [&str; 20] = [
    "==", "!=", "<=", ">=", "&&", "||", "->", "=>", "::", "..", "+=", "-=", "*=", "/=", "%=", "^=",
    "&=", "|=", "<<", ">>",
];

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_ident_continue(c: u8) -> bool {
    is_ident_start(c) || c.is_ascii_digit()
}

struct Lexer<'a> {
    s: &'a [u8],
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

impl Lexer<'_> {
    /// Byte at `pos + off`, or 0 past the end (NUL never appears in source
    /// we care about, so it doubles as an EOF sentinel).
    fn at(&self, off: usize) -> u8 {
        self.s.get(self.pos + off).copied().unwrap_or(0)
    }

    /// Advance one byte, counting newlines.
    fn bump(&mut self) {
        if self.at(0) == b'\n' {
            self.line = self.line.saturating_add(1);
        }
        self.pos += 1;
    }

    /// Advance `n` bytes that are known to contain no newline.
    fn skip(&mut self, n: usize) {
        self.pos = (self.pos + n).min(self.s.len());
    }

    fn text_from(&self, start: usize) -> String {
        let bytes = self.s.get(start..self.pos).unwrap_or(&[]);
        String::from_utf8_lossy(bytes).into_owned()
    }

    fn push(&mut self, kind: TokKind, start: usize, line: u32) {
        self.push_text(kind, self.text_from(start), line);
    }

    fn push_text(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.push(Token {
            kind,
            text,
            line,
            pair: None,
        });
    }

    fn run(mut self) -> Vec<Token> {
        while self.pos < self.s.len() {
            let c = self.at(0);
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => self.bump(),
                b'/' if self.at(1) == b'/' => self.line_comment(),
                b'/' if self.at(1) == b'*' => self.block_comment(),
                b'"' => self.cooked_string(),
                b'\'' => self.quote(),
                b'0'..=b'9' => self.number(),
                c if is_ident_start(c) => self.ident_or_prefixed(),
                _ => self.operator(),
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let (start, line) = (self.pos, self.line);
        while self.pos < self.s.len() && self.at(0) != b'\n' {
            self.pos += 1;
        }
        self.push(TokKind::Comment, start, line);
    }

    fn block_comment(&mut self) {
        let (start, line) = (self.pos, self.line);
        self.skip(2); // `/*`
        let mut depth = 1usize;
        while self.pos < self.s.len() && depth > 0 {
            if self.at(0) == b'/' && self.at(1) == b'*' {
                depth += 1;
                self.skip(2);
            } else if self.at(0) == b'*' && self.at(1) == b'/' {
                depth -= 1;
                self.skip(2);
            } else {
                self.bump();
            }
        }
        self.push(TokKind::Comment, start, line);
    }

    /// Cooked (escaped) string body, cursor on the opening `"`.
    fn cooked_string(&mut self) {
        let (start, line) = (self.pos, self.line);
        self.bump(); // opening quote
        while self.pos < self.s.len() {
            match self.at(0) {
                b'\\' => {
                    self.bump();
                    if self.pos < self.s.len() {
                        self.bump();
                    }
                }
                b'"' => {
                    self.bump();
                    break;
                }
                _ => self.bump(),
            }
        }
        self.push(TokKind::Str, start, line);
    }

    /// Raw string body. Cursor sits on the first `#` (or on `"` when
    /// `hashes == 0`); the `r`/`br`/`cr` prefix has already been consumed.
    fn raw_string(&mut self, start: usize, hashes: usize) {
        let line = self.line;
        self.skip(hashes);
        if self.at(0) == b'"' {
            self.bump();
        }
        while self.pos < self.s.len() {
            if self.at(0) == b'"' {
                let closed = (0..hashes).all(|k| self.at(1 + k) == b'#');
                if closed {
                    self.skip(1 + hashes);
                    self.push(TokKind::Str, start, line);
                    return;
                }
            }
            self.bump();
        }
        // Unterminated: emit what we have.
        self.push(TokKind::Str, start, line);
    }

    /// `'`: char literal, byte-char tail, or lifetime.
    fn quote(&mut self) {
        let (start, line) = (self.pos, self.line);
        self.pos += 1; // the quote
        let c = self.at(0);
        if c == b'\\' {
            // Escaped char literal: the byte after the backslash is payload
            // (it may itself be `'` or `\`, as in `'\''` and `'\\'`), then
            // consume to the closing quote on this line.
            self.pos += 1;
            if self.pos < self.s.len() && self.at(0) != b'\n' {
                self.pos += 1;
            }
            while self.pos < self.s.len() && self.at(0) != b'\'' && self.at(0) != b'\n' {
                self.pos += 1;
            }
            if self.at(0) == b'\'' {
                self.pos += 1;
            }
            self.push(TokKind::Char, start, line);
        } else if is_ident_start(c) {
            // `'a'` is a char, `'a` (no closing quote) is a lifetime.
            let mut n = 1;
            while is_ident_continue(self.at(n)) {
                n += 1;
            }
            if self.at(n) == b'\'' {
                self.skip(n + 1);
                self.push(TokKind::Char, start, line);
            } else {
                self.skip(n);
                self.push(TokKind::Lifetime, start, line);
            }
        } else if c != 0 && c != b'\n' {
            // Non-ident payload: `' '`, `'('`, or a multi-byte UTF-8 char.
            let mut n = 1;
            while n <= 4 && self.at(n) != b'\'' && self.at(n) != 0 && self.at(n) != b'\n' {
                n += 1;
            }
            if self.at(n) == b'\'' {
                self.skip(n + 1);
                self.push(TokKind::Char, start, line);
            } else {
                self.push(TokKind::Op, start, line);
            }
        } else {
            // Lone quote at EOF / EOL.
            self.push(TokKind::Op, start, line);
        }
    }

    fn number(&mut self) {
        let (start, line) = (self.pos, self.line);
        if self.at(0) == b'0' && matches!(self.at(1) | 0x20, b'x' | b'o' | b'b') {
            // Radix literal: digits and suffix lumped together, always Int.
            self.skip(2);
            while is_ident_continue(self.at(0)) {
                self.pos += 1;
            }
            self.push(TokKind::Int, start, line);
            return;
        }
        let digits = |lx: &mut Self| {
            while lx.at(0).is_ascii_digit() || lx.at(0) == b'_' {
                lx.pos += 1;
            }
        };
        digits(self);
        let mut float = false;
        if self.at(0) == b'.' && self.at(1).is_ascii_digit() {
            float = true;
            self.pos += 1;
            digits(self);
        } else if self.at(0) == b'.' && self.at(1) != b'.' && !is_ident_start(self.at(1)) {
            // Trailing-dot float `1.` — but not a range (`1..`) or a method
            // call on an integer (`1.max(2)`).
            float = true;
            self.pos += 1;
        }
        if (self.at(0) | 0x20) == b'e'
            && (self.at(1).is_ascii_digit()
                || (matches!(self.at(1), b'+' | b'-') && self.at(2).is_ascii_digit()))
        {
            float = true;
            self.pos += 1;
            if matches!(self.at(0), b'+' | b'-') {
                self.pos += 1;
            }
            digits(self);
        }
        if is_ident_start(self.at(0)) {
            // Type suffix; `f32`/`f64` force float.
            if self.at(0) == b'f' {
                float = true;
            }
            while is_ident_continue(self.at(0)) {
                self.pos += 1;
            }
        }
        let kind = if float { TokKind::Float } else { TokKind::Int };
        self.push(kind, start, line);
    }

    fn ident_or_prefixed(&mut self) {
        let (start, line) = (self.pos, self.line);
        while self.pos < self.s.len() && is_ident_continue(self.at(0)) {
            self.pos += 1;
        }
        let text = self.text_from(start);
        match text.as_str() {
            // Raw-string-capable prefixes.
            "r" | "br" | "cr" => {
                if self.at(0) == b'"' {
                    self.raw_string(start, 0);
                    return;
                }
                if self.at(0) == b'#' {
                    let mut n = 0;
                    while self.at(n) == b'#' {
                        n += 1;
                    }
                    if self.at(n) == b'"' {
                        self.raw_string(start, n);
                        return;
                    }
                    if text == "r" && is_ident_start(self.at(1)) {
                        // Raw identifier `r#foo`: emit the bare name.
                        self.pos += 1; // '#'
                        let id_start = self.pos;
                        while self.pos < self.s.len() && is_ident_continue(self.at(0)) {
                            self.pos += 1;
                        }
                        self.push(TokKind::Ident, id_start, line);
                        return;
                    }
                }
                self.push_text(TokKind::Ident, text, line);
            }
            // Cooked byte / C strings and byte chars.
            "b" | "c" => {
                if self.at(0) == b'"' {
                    self.cooked_string();
                    return;
                }
                if text == "b" && self.at(0) == b'\'' {
                    self.quote();
                    return;
                }
                self.push_text(TokKind::Ident, text, line);
            }
            _ => self.push_text(TokKind::Ident, text, line),
        }
    }

    fn operator(&mut self) {
        let (start, line) = (self.pos, self.line);
        let rest = self.s.get(self.pos..).unwrap_or(&[]);
        for op in OPS3 {
            if rest.starts_with(op.as_bytes()) {
                self.skip(op.len());
                self.push(TokKind::Op, start, line);
                return;
            }
        }
        for op in OPS2 {
            if rest.starts_with(op.as_bytes()) {
                self.skip(op.len());
                self.push(TokKind::Op, start, line);
                return;
            }
        }
        self.bump();
        self.push(TokKind::Op, start, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    fn kinds(src: &str) -> Vec<TokKind> {
        lex(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_inside_strings_are_not_tokens() {
        let src = r#"let x = "unwrap() HashMap unsafe"; call(x);"#;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "x", "call", "x"]);
    }

    #[test]
    fn raw_strings_hide_their_payload() {
        let src = "let s = r#\"panic! \"inner\" unwrap()\"#; s.len();";
        let ids = idents(src);
        assert!(
            !ids.iter().any(|i| i == "panic" || i == "unwrap"),
            "{ids:?}"
        );
        assert!(ids.iter().any(|i| i == "len"));
    }

    #[test]
    fn byte_and_c_strings_are_single_tokens() {
        for src in ["b\"unsafe\"", "c\"unsafe\"", "br#\"unsafe\"#"] {
            let toks = lex(src);
            assert_eq!(toks.len(), 1, "{src}: {toks:?}");
            assert_eq!(toks[0].kind, TokKind::Str);
        }
    }

    #[test]
    fn comments_hide_idents_but_are_kept() {
        let src = "// unwrap() here\n/* HashMap\n nested /* unsafe */ done */\ncode();";
        let toks = lex(src);
        let ids: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(ids, vec!["code"]);
        let comments = toks.iter().filter(|t| t.kind == TokKind::Comment).count();
        assert_eq!(comments, 2);
        // The block comment spans lines 2..=3, so `code` is on line 4.
        assert_eq!(toks.last().map(|t| t.line), Some(4));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let toks = lex("'a' 'static '\\n' b'x' ' ' '→'");
        let ks: Vec<_> = toks.iter().map(|t| t.kind).collect();
        assert_eq!(
            ks,
            vec![
                TokKind::Char,
                TokKind::Lifetime,
                TokKind::Char,
                TokKind::Char,
                TokKind::Char,
                TokKind::Char,
            ]
        );
    }

    #[test]
    fn char_literal_payload_is_not_an_ident() {
        // `'u'` must not leak a `u` identifier the rules could match.
        assert!(idents("let c = 'u';").iter().all(|i| i != "u"));
    }

    #[test]
    fn number_classification() {
        use TokKind::*;
        assert_eq!(kinds("1 1.0 1e5 1.5e-3 0xFF 0b1010 1_000 2f32 3usize"), {
            vec![Int, Float, Float, Float, Int, Int, Int, Float, Int]
        });
        // Ranges and method calls on ints keep the dot out of the number.
        assert_eq!(kinds("1..2"), vec![Int, Op, Int]);
        assert_eq!(kinds("1.max(2)")[0], Int);
    }

    #[test]
    fn multi_char_operators_are_single_tokens() {
        let ops: Vec<String> = lex("a == b != c && d")
            .into_iter()
            .filter(|t| t.kind == TokKind::Op)
            .map(|t| t.text)
            .collect();
        assert_eq!(ops, vec!["==", "!=", "&&"]);
    }

    #[test]
    fn raw_identifier() {
        let ids = idents("let r#fn = 1;");
        assert_eq!(ids, vec!["let", "fn"]);
    }

    #[test]
    fn escaped_quote_and_backslash_char_literals() {
        // Regression: `'\''` used to terminate at the escaped quote and leak
        // a stray `'` token that could swallow the next real token.
        let toks = lex(r"let q = '\''; let b = '\\'; let n = '\n'; done();");
        let chars: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(chars, vec![r"'\''", r"'\\'", r"'\n'"]);
        let ids: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(ids, vec!["let", "q", "let", "b", "let", "n", "done"]);
    }

    #[test]
    fn deeply_nested_block_comments_count_lines() {
        let src = "/* 1 /* 2 /* 3 unwrap() */ 2 */ 1 */\ncode();";
        let toks = lex(src);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Comment).count(),
            1
        );
        let ids: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(ids, vec!["code"]);
        assert_eq!(toks.last().map(|t| t.line), Some(2));
    }

    #[test]
    fn multi_hash_raw_strings_hide_inner_fences() {
        // `"#` inside an `r##"…"##` body must not close the string.
        let src = "let s = r##\"inner \"# fence panic! \"##; next();";
        let toks = lex(src);
        let strs: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, vec!["r##\"inner \"# fence panic! \"##"]);
        let ids: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(ids, vec!["let", "s", "next"]);
    }

    #[test]
    fn unterminated_everything_is_survivable() {
        for src in ["\"abc", "r#\"abc", "/* abc", "'", "b'", "r#"] {
            let _ = lex(src); // must not panic or hang
        }
    }

    #[test]
    fn code_stream_drops_comments_and_pairs_each_group() {
        let code = code_stream(&lex("f(a[0], /* ( */ {b}) ] ( x"));
        let pairs: Vec<(&str, Option<usize>)> =
            code.iter().map(|t| (t.text.as_str(), t.pair)).collect();
        assert_eq!(
            pairs,
            vec![
                ("f", None),
                ("(", Some(10)),
                ("a", None),
                ("[", Some(5)),
                ("0", None),
                ("]", Some(3)),
                (",", None),
                ("{", Some(9)),
                ("b", None),
                ("}", Some(7)),
                (")", Some(1)),
                ("]", None),     // closes nothing
                ("(", Some(14)), // nothing closes it: the stream's length
                ("x", None),
            ]
        );
        // Any closer ends the innermost open group.
        let crossed: Vec<_> = code_stream(&lex("(]")).iter().map(|t| t.pair).collect();
        assert_eq!(crossed, vec![Some(1), Some(0)]);
        assert_eq!(group_end(&code, 3), 5);
        assert_eq!(group_end(&code, 2), 2, "a token that opens nothing");
    }

    #[test]
    fn lexing_is_deterministic() {
        let src = "fn main() { let x = \"s\"; /* c */ x.unwrap(); }";
        assert_eq!(lex(src), lex(src));
    }
}
