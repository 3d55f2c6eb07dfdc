//! The `fn`s of one file, read off the lexer's delimiter pairs.
//!
//! `fedlint`'s structural rules (codec arithmetic discipline, atomic-write
//! discipline, RNG stream collisions) need to know *which function* a token
//! belongs to, not just which line. This module recovers exactly that much
//! structure from the comment-free token stream in one forward scan: each
//! `fn`'s name, body, enclosing `impl` type and `#[cfg(test)]` membership,
//! and the bodies of inline `mod streams` blocks. It is not a Rust parser
//! and keeps no scope stack: a header runs to its body `{`, jumping over
//! `(…)` and `[…]` groups, and a body ends at its opener's partner
//! (`group_end`). It shares the lexer's robustness contract: never
//! panics, never loops forever, degrades to a best-effort list on invalid
//! input (pinned by property tests over byte soup).
//!
//! Body spans are expressed as indices into the code token slice that was
//! scanned: `body = Some((open, close))` brackets the `{` and its partner
//! (the stream's length when nothing closes it). Because the lexer pairs
//! with one stack, two spans are either disjoint or nested, which the rules
//! rely on to carve nested `fn` bodies out of their parent's span.

use crate::lexer::{group_end, text_at, TokKind, Token};

/// One `fn`, free or associated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// The function's name.
    pub name: String,
    /// The self type of the innermost `impl` block around the `fn`.
    pub impl_type: Option<String>,
    /// Declared inside a `#[cfg(test)]` region or under `#[test]`.
    pub is_test: bool,
    /// Code-token indices of the body's `{` and its partner; `None` for
    /// bodyless declarations (trait method signatures).
    pub body: Option<(usize, usize)>,
}

impl Item {
    /// Display name for diagnostics: `Type::method` or a bare `function`.
    pub fn display_name(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// What the scan recovers from one file.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Items {
    /// Every `fn`, in token order.
    pub fns: Vec<Item>,
    /// The body spans of inline `mod streams { … }` blocks, whose constants
    /// `rng-stream-collision` compares.
    pub streams: Vec<(usize, usize)>,
}

impl Items {
    /// The non-test `fn`s that have a body, each with its body span.
    pub(crate) fn code_fns(&self) -> impl Iterator<Item = (&Item, (usize, usize))> {
        (self.fns.iter().filter(|f| !f.is_test)).filter_map(|f| Some((f, f.body?)))
    }
}

/// Scan the comment-free, paired token stream of one file. `in_test` is
/// the per-line `#[cfg(test)]` table from the rules layer (1-based line
/// indices).
pub fn scan_items(code: &[Token], in_test: &[bool]) -> Items {
    let is_ident = |i: usize| code.get(i).is_some_and(|t| t.kind == TokKind::Ident);
    let mut items = Items::default();
    // Every `impl` block met so far, in token order: body span, self type.
    let mut impls: Vec<(usize, usize, String)> = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        let keyword = is_ident(i);
        match code[i].text.as_str() {
            // An attribute: skip past the `]` that closes its `[`.
            "#" if text_at(code, i + 1) == "[" => i = group_end(code, i + 1) + 1,
            "mod" if keyword && is_ident(i + 1) => {
                if text_at(code, i + 2) != "{" {
                    i += 2;
                    continue;
                }
                if code[i + 1].text == "streams" {
                    items.streams.push((i + 2, group_end(code, i + 2)));
                }
                i += 3;
            }
            "fn" if keyword && is_ident(i + 1) => {
                let open = header_end(code, i + 2);
                // Spans nest, so the last impl around the `fn` is the innermost.
                let impl_type = (impls.iter().rev())
                    .find(|&&(s, e, _)| s < i && i < e)
                    .map(|(_, _, t)| t.clone());
                let line = code[i + 1].line as usize;
                items.fns.push(Item {
                    name: code[i + 1].text.clone(),
                    impl_type,
                    is_test: in_test.get(line).copied().unwrap_or(false),
                    body: (text_at(code, open) == "{").then(|| (open, group_end(code, open))),
                });
                i = open + 1;
            }
            "impl" if keyword => {
                let open = header_end(code, i + 1);
                if text_at(code, open) == "{" {
                    let self_type = impl_self_type(&code[i + 1..open]);
                    impls.push((open, group_end(code, open), self_type));
                }
                i = open + 1;
            }
            _ => i += 1,
        }
    }
    items
}

/// Where an item header that starts at `from` ends: its body `{`, a `;`
/// (no body), or the stream's length. `(…)` and `[…]` groups are jumped
/// over, so a closure argument's block or an array type's `;` stays inside.
pub(crate) fn header_end(code: &[Token], from: usize) -> usize {
    let mut j = from;
    while j < code.len() {
        match code[j].text.as_str() {
            "{" | ";" => return j,
            "(" | "[" => j = group_end(code, j) + 1,
            _ => j += 1,
        }
    }
    code.len()
}

/// The self type's final path segment, from an `impl` header (the tokens
/// between `impl` and the body `{`): the first identifier outside angle
/// brackets after the last top-level `for` that opens no HRTB `for<…>`, or
/// after the header's start, followed along `::` (`impl<T> Foo<T>` →
/// `Foo`, `impl Display for std::fmt::Error` → `Error`). A `where` clause
/// is cut off first. `<`/`>` are not delimiters, so their depth is counted.
fn impl_self_type(header: &[Token]) -> String {
    let end = (header.iter())
        .position(|t| t.kind == TokKind::Ident && t.text == "where")
        .unwrap_or(header.len());
    let header = header.get(..end).unwrap_or(header);
    let mut angle = 0i64;
    let top_level: Vec<bool> = (header.iter())
        .map(|t| {
            let top = angle <= 0;
            angle += match t.text.as_str() {
                "<" => 1,
                "<<" => 2,
                ">" => -1,
                ">>" => -2,
                _ => 0,
            };
            top
        })
        .collect();
    let ident = |k: usize| header[k].kind == TokKind::Ident && top_level[k];
    let start = (0..header.len())
        .rfind(|&k| ident(k) && header[k].text == "for" && text_at(header, k + 1) != "<")
        .map_or(0, |k| k + 1);
    let Some(mut k) = (start..header.len())
        .find(|&k| ident(k) && !matches!(header[k].text.as_str(), "dyn" | "mut" | "const"))
    else {
        return String::new();
    };
    while text_at(header, k + 1) == "::"
        && header.get(k + 2).is_some_and(|n| n.kind == TokKind::Ident)
    {
        k += 2;
    }
    header[k].text.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{code_stream, lex};

    fn scan(src: &str) -> (Vec<Token>, Items) {
        let code = code_stream(&lex(src));
        let items = scan_items(&code, &vec![false; src.lines().count() + 3]);
        (code, items)
    }

    fn fns(src: &str) -> Vec<Item> {
        scan(src).1.fns
    }

    #[test]
    fn free_fn_and_method_boundaries() {
        let src = "pub fn free(x: u32) -> u32 { x }\n\
                   struct S;\n\
                   impl S {\n    fn method(&self) {}\n    pub fn public(&self) {}\n}\n";
        let fns = fns(src);
        assert_eq!(fns.len(), 3);
        assert_eq!(fns[0].name, "free");
        assert_eq!(fns[0].impl_type, None);
        assert_eq!(fns[1].name, "method");
        assert_eq!(fns[1].impl_type.as_deref(), Some("S"));
        assert_eq!(fns[2].display_name(), "S::public");
    }

    #[test]
    fn streams_modules_are_recorded_and_others_are_not() {
        let src = "mod decl;\nmod streams {\n    pub const A: u64 = 1;\n}\n\
                   mod other {\n    fn f() {}\n}\n";
        let (code, items) = scan(src);
        assert_eq!(items.streams.len(), 1, "only the inline `streams` block");
        let (open, close) = items.streams[0];
        assert_eq!(
            (code[open].text.as_str(), code[close].text.as_str()),
            ("{", "}")
        );
        assert_eq!((code[open].line, code[close].line), (2, 4));
        assert_eq!(items.fns.len(), 1);
    }

    #[test]
    fn impl_self_type_variants() {
        let cases = [
            ("impl Foo { fn a(&self) {} }", "Foo"),
            ("impl<T> Wrapper<T> { fn a(&self) {} }", "Wrapper"),
            ("impl Display for Err2 { fn a(&self) {} }", "Err2"),
            ("impl std::error::Error for Bad { fn a(&self) {} }", "Bad"),
            (
                "impl<'a> From<&'a [f32]> for Tensor { fn a(&self) {} }",
                "Tensor",
            ),
            (
                "impl<T: Clone> Iterator for Iter<T> where T: Send { fn a(&self) {} }",
                "Iter",
            ),
            (
                "impl<const N: usize> From<[usize; N]> for S { fn a(&self) {} }",
                "S",
            ),
        ];
        for (src, want) in cases {
            let fns = fns(src);
            let f = fns.iter().find(|i| i.name == "a").unwrap();
            assert_eq!(f.impl_type.as_deref(), Some(want), "{src}");
        }
    }

    #[test]
    fn array_return_types_keep_their_body() {
        let (code, items) = scan("fn f() -> [u8; 4] { [0; 4] }\nfn g() {}\n");
        let (open, close) = items.fns[0].body.expect("`f` has a body");
        assert_eq!((open, close), (10, 16));
        assert_eq!(
            (code[open].text.as_str(), code[close].text.as_str()),
            ("{", "}")
        );
        assert_eq!(items.fns[1].name, "g");
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let fns = fns("fn real(cb: fn(u32) -> u32) -> u32 { cb(1) }\n");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "real");
    }

    #[test]
    fn bodyless_trait_methods_have_no_span() {
        let src =
            "trait T {\n    fn required(&self) -> u32;\n    fn provided(&self) -> u32 { 1 }\n}\n";
        let fns = fns(src);
        let req = fns.iter().find(|i| i.name == "required").unwrap();
        assert!(req.body.is_none());
        let prov = fns.iter().find(|i| i.name == "provided").unwrap();
        assert!(prov.body.is_some());
    }

    #[test]
    fn struct_literals_do_not_break_nesting() {
        let src = "fn build() -> P {\n    let p = P { x: 1, y: match 2 { _ => 3 } };\n    p\n}\nfn after() {}\n";
        let (code, items) = scan(src);
        let (open, close) = items.fns[0].body.unwrap();
        assert_eq!((code[open].line, code[close].line), (1, 4));
        assert_eq!(items.fns[1].name, "after");
    }

    #[test]
    fn spans_nest_or_are_disjoint() {
        let src = "mod streams {\n    impl T {\n        fn a(&self) { if true { helper() } }\n        fn b(&self) {}\n    }\n}\nfn c() {}\n";
        let items = scan(src).1;
        let spans: Vec<(usize, usize)> = (items.fns.iter().filter_map(|i| i.body))
            .chain(items.streams)
            .collect();
        assert_eq!(spans.len(), 4);
        for (i, &(s1, e1)) in spans.iter().enumerate() {
            assert!(s1 <= e1);
            for &(s2, e2) in spans.iter().skip(i + 1) {
                let disjoint = e1 < s2 || e2 < s1;
                let nested = (s1 < s2 && e2 <= e1) || (s2 < s1 && e1 <= e2);
                assert!(
                    disjoint || nested,
                    "spans overlap: {s1}..{e1} vs {s2}..{e2}"
                );
            }
        }
    }

    #[test]
    fn nested_fns_keep_their_own_span_and_impl() {
        let src = "impl T {\n    fn a(&self) { fn inner() { x() } y() }\n}\nfn c() {}\n";
        let fns = fns(src);
        let span = |name: &str| fns.iter().find(|i| i.name == name).unwrap().body.unwrap();
        let ((a0, a1), (n0, n1), (c0, _)) = (span("a"), span("inner"), span("c"));
        assert!(a0 < n0 && n1 < a1, "`inner` nests in `a`");
        assert!(a1 < c0, "`c` follows `a`");
        let impl_of = |name: &str| {
            fns.iter()
                .find(|i| i.name == name)
                .unwrap()
                .impl_type
                .clone()
        };
        assert_eq!(impl_of("inner").as_deref(), Some("T"));
        assert_eq!(impl_of("c"), None);
    }
}
