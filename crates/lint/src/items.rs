//! A lightweight item parser on top of the lexer.
//!
//! `fedlint`'s structural rules (codec arithmetic discipline, atomic-write
//! discipline, RNG stream collisions) need to know *which function* a token
//! belongs to, not just which line. This module recovers exactly that much
//! structure from the token stream: `fn` / `mod` / `impl` boundaries, the
//! enclosing `impl` type of methods, and `#[cfg(test)]` membership. It is
//! not a Rust parser — generics, expressions, and patterns are skipped with
//! brace/paren matching — and it shares the lexer's robustness contract:
//! never panics, never loops forever, degrades to a best-effort item list
//! on invalid input (pinned by property tests over byte soup).
//!
//! Body spans are expressed as indices into the *code* token slice (comments
//! filtered out) that was parsed: `body = Some((open, close))` brackets the
//! `{` and its matching `}`. Spans of distinct items never partially
//! overlap: they are either disjoint or strictly nested, which the rules
//! rely on to carve nested `fn` bodies out of their parent's span.

use crate::lexer::{group_end, TokKind, Token};

/// What kind of item a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// A function or method (`fn`), free or associated.
    Fn,
    /// An inline module (`mod name { … }`). Out-of-line `mod name;`
    /// declarations produce no item — the file walker sees the target file
    /// on its own.
    Mod,
    /// An `impl` block; `name` is the self type's final path segment.
    Impl,
}

/// One recovered item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// Item class.
    pub kind: ItemKind,
    /// Function name, module name, or impl self-type name.
    pub name: String,
    /// For `Fn` items inside an `impl` block: the self type's name.
    pub impl_type: Option<String>,
    /// Declared inside a `#[cfg(test)]` region or under `#[test]`.
    pub is_test: bool,
    /// 1-based line of the item's name (or of `impl`).
    pub decl_line: u32,
    /// Code-token indices of the body's `{` and matching `}`; `None` for
    /// bodyless declarations (trait method signatures).
    pub body: Option<(usize, usize)>,
    /// 1-based line of the body's closing `}` (or the declaration line).
    pub end_line: u32,
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

/// Parse the comment-free token stream of one file into an item list.
/// `in_test` is the per-line `#[cfg(test)]` table from the rules layer
/// (1-based line indices).
pub fn parse_items(code: &[Token], in_test: &[bool]) -> Vec<Item> {
    Parser {
        code,
        in_test,
        items: Vec::new(),
        stack: Vec::new(),
        impls: Vec::new(),
    }
    .run()
}

/// One entry per open `{`; `item` points into `Parser::items` when the brace
/// opened an item body rather than an expression/struct block.
struct Frame {
    item: Option<usize>,
}

struct Parser<'a> {
    code: &'a [Token],
    in_test: &'a [bool],
    items: Vec<Item>,
    stack: Vec<Frame>,
    impls: Vec<String>,
}

impl Parser<'_> {
    fn text(&self, i: usize) -> &str {
        self.code.get(i).map(|t| t.text.as_str()).unwrap_or("")
    }

    fn is_ident(&self, i: usize) -> bool {
        self.code.get(i).is_some_and(|t| t.kind == TokKind::Ident)
    }

    fn line(&self, i: usize) -> u32 {
        self.code.get(i).map(|t| t.line).unwrap_or(0)
    }

    fn tested(&self, line: u32) -> bool {
        self.in_test.get(line as usize).copied().unwrap_or(false)
    }

    fn open_item(&mut self, idx: usize) {
        self.stack.push(Frame { item: Some(idx) });
    }

    fn close_frame(&mut self, close_idx: usize, close_line: u32) {
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let Some(idx) = frame.item else {
            return;
        };
        let kind = self.items[idx].kind;
        if let Some(body) = self.items[idx].body.as_mut() {
            body.1 = close_idx;
        }
        self.items[idx].end_line = close_line;
        if kind == ItemKind::Impl {
            self.impls.pop();
        }
    }

    fn run(mut self) -> Vec<Item> {
        let mut i = 0usize;
        while i < self.code.len() {
            let t = &self.code[i];
            let is_kw = t.kind == TokKind::Ident;
            match t.text.as_str() {
                // An attribute: skip past the `]` that closes its `[`.
                "#" if self.text(i + 1) == "[" => i = group_end(self.code, i + 1) + 1,
                "mod" if is_kw && self.is_ident(i + 1) => {
                    let name = self.text(i + 1).to_string();
                    if self.text(i + 2) == "{" {
                        let decl_line = self.line(i + 1);
                        let idx = self.items.len();
                        self.items.push(Item {
                            kind: ItemKind::Mod,
                            name,
                            impl_type: None,
                            is_test: self.tested(decl_line),
                            decl_line,
                            body: Some((i + 2, i + 2)),
                            end_line: self.line(i + 2),
                        });
                        self.open_item(idx);
                        i += 3;
                    } else {
                        i += 2;
                    }
                }
                "fn" if is_kw && self.is_ident(i + 1) => {
                    let name = self.text(i + 1).to_string();
                    let decl_line = self.line(i + 1);
                    // Scan the header to the body `{` or a bodyless `;`,
                    // ignoring braces nested in parens (closure arguments).
                    let mut j = i + 2;
                    let mut paren = 0i64;
                    while j < self.code.len() {
                        match self.text(j) {
                            "(" => paren += 1,
                            ")" => paren -= 1,
                            "{" | ";" if paren <= 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    let idx = self.items.len();
                    let mut item = Item {
                        kind: ItemKind::Fn,
                        name,
                        impl_type: self.impls.last().cloned(),
                        is_test: self.tested(decl_line),
                        decl_line,
                        body: None,
                        end_line: decl_line,
                    };
                    if j < self.code.len() && self.text(j) == "{" {
                        item.body = Some((j, j));
                        item.end_line = self.line(j);
                        self.items.push(item);
                        self.open_item(idx);
                    } else {
                        self.items.push(item);
                    }
                    i = (j + 1).max(i + 2);
                }
                "impl" if is_kw => {
                    let decl_line = t.line;
                    let mut j = i + 1;
                    while j < self.code.len() && self.text(j) != "{" && self.text(j) != ";" {
                        j += 1;
                    }
                    if j < self.code.len() && self.text(j) == "{" {
                        let name = impl_self_type(&self.code[i + 1..j]);
                        let idx = self.items.len();
                        self.items.push(Item {
                            kind: ItemKind::Impl,
                            name: name.clone(),
                            impl_type: None,
                            is_test: self.tested(decl_line),
                            decl_line,
                            body: Some((j, j)),
                            end_line: self.line(j),
                        });
                        self.open_item(idx);
                        self.impls.push(name);
                    }
                    i = (j + 1).max(i + 1);
                }
                "{" => {
                    self.stack.push(Frame { item: None });
                    i += 1;
                }
                "}" => {
                    self.close_frame(i, t.line);
                    i += 1;
                }
                _ => {
                    i += 1;
                }
            }
        }
        // Unterminated bodies (invalid input): close everything at EOF so
        // spans still nest.
        let eof_idx = self.code.len().saturating_sub(1);
        let eof_line = self.line(eof_idx);
        while !self.stack.is_empty() {
            self.close_frame(eof_idx, eof_line);
        }
        self.items
    }
}

/// Extract the self type's final path segment from an `impl` header (the
/// tokens between `impl` and the body `{`). Handles generics, trait impls
/// (`impl Trait for Type`), paths, references, and `where` clauses.
fn impl_self_type(header: &[Token]) -> String {
    let end = header
        .iter()
        .position(|t| t.kind == TokKind::Ident && t.text == "where")
        .unwrap_or(header.len());
    let header = header.get(..end).unwrap_or(header);

    // The self type follows the last top-level `for` (skipping HRTB
    // `for<…>`); without one it follows the leading generics.
    let mut angle = 0i64;
    let mut seg_start = 0usize;
    for (k, t) in header.iter().enumerate() {
        match t.text.as_str() {
            "<" => angle += 1,
            "<<" => angle += 2,
            ">" => angle -= 1,
            ">>" => angle -= 2,
            "for"
                if t.kind == TokKind::Ident
                    && angle <= 0
                    && header.get(k + 1).map(|n| n.text.as_str()) != Some("<") =>
            {
                seg_start = k + 1;
            }
            _ => {}
        }
    }
    let seg = header.get(seg_start..).unwrap_or(&[]);

    // Skip `<…>` generics that open the segment (`impl<T> Foo<T>`).
    let mut k = 0usize;
    if seg.first().is_some_and(|t| t.text == "<") {
        let mut depth = 0i64;
        while k < seg.len() {
            match seg[k].text.as_str() {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                _ => {}
            }
            k += 1;
            if depth <= 0 {
                break;
            }
        }
    }

    // First type ident, then follow `::` path segments to the last one.
    while k < seg.len() {
        let t = &seg[k];
        if t.kind == TokKind::Ident && !matches!(t.text.as_str(), "dyn" | "mut" | "const") {
            let mut name = t.text.clone();
            while seg.get(k + 1).is_some_and(|n| n.text == "::")
                && seg.get(k + 2).is_some_and(|n| n.kind == TokKind::Ident)
            {
                name = seg[k + 2].text.clone();
                k += 2;
            }
            return name;
        }
        k += 1;
    }
    String::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{code_stream, lex};

    fn items_of(src: &str) -> Vec<Item> {
        let code = code_stream(&lex(src));
        let lines = src.lines().count() + 2;
        parse_items(&code, &vec![false; lines + 1])
    }

    #[test]
    fn free_fn_and_method_boundaries() {
        let src = "pub fn free(x: u32) -> u32 { x }\n\
                   struct S;\n\
                   impl S {\n    fn method(&self) {}\n    pub fn public(&self) {}\n}\n";
        let items = items_of(src);
        let fns: Vec<_> = items.iter().filter(|i| i.kind == ItemKind::Fn).collect();
        assert_eq!(fns.len(), 3);
        assert_eq!(fns[0].name, "free");
        assert_eq!(fns[0].impl_type, None);
        assert_eq!(fns[1].name, "method");
        assert_eq!(fns[1].impl_type.as_deref(), Some("S"));
        assert_eq!(fns[2].display_name(), "S::public");
    }

    #[test]
    fn inline_modules_span_their_items() {
        let src = "mod decl;\nmod outer {\n    pub mod inner {\n        fn deep() {}\n    }\n    fn shallow() {}\n}\nfn top() {}\n";
        let items = items_of(src);
        let span = |name: &str| items.iter().find(|i| i.name == name).unwrap().body.unwrap();
        let inside = |inner: &str, outer: &str| {
            let ((s1, e1), (s0, e0)) = (span(inner), span(outer));
            s0 < s1 && e1 < e0
        };
        assert!(
            items.iter().all(|i| i.name != "decl"),
            "`mod decl;` is no item"
        );
        assert!(inside("deep", "inner") && inside("inner", "outer"));
        assert!(inside("shallow", "outer") && !inside("shallow", "inner"));
        assert!(!inside("top", "outer"));
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
        ];
        for (src, want) in cases {
            let items = items_of(src);
            let f = items.iter().find(|i| i.name == "a").unwrap();
            assert_eq!(f.impl_type.as_deref(), Some(want), "{src}");
        }
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "fn real(cb: fn(u32) -> u32) -> u32 { cb(1) }\n";
        let items = items_of(src);
        let fns: Vec<_> = items.iter().filter(|i| i.kind == ItemKind::Fn).collect();
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "real");
    }

    #[test]
    fn bodyless_trait_methods_have_no_span() {
        let src =
            "trait T {\n    fn required(&self) -> u32;\n    fn provided(&self) -> u32 { 1 }\n}\n";
        let items = items_of(src);
        let req = items.iter().find(|i| i.name == "required").unwrap();
        assert!(req.body.is_none());
        let prov = items.iter().find(|i| i.name == "provided").unwrap();
        assert!(prov.body.is_some());
    }

    #[test]
    fn struct_literals_do_not_break_nesting() {
        let src = "fn build() -> P {\n    let p = P { x: 1, y: match 2 { _ => 3 } };\n    p\n}\nfn after() {}\n";
        let items = items_of(src);
        let build = items.iter().find(|i| i.name == "build").unwrap();
        assert_eq!((build.decl_line, build.end_line), (1, 4));
        let after = items.iter().find(|i| i.name == "after").unwrap();
        assert_eq!(after.decl_line, 5);
    }

    #[test]
    fn spans_nest_or_are_disjoint() {
        let src = "mod m {\n    impl T {\n        fn a(&self) { if true { helper() } }\n        fn b(&self) {}\n    }\n}\nfn c() {}\n";
        let items = items_of(src);
        let spans: Vec<(usize, usize)> = items.iter().filter_map(|i| i.body).collect();
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
}
