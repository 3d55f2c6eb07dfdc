//! Property tests for the fedlint lexer and item scan: arbitrary byte
//! soup must never panic them, hang them, or make them nondeterministic;
//! delimiter pairing must agree with the depth counter it replaced; and
//! scanned body spans must always nest properly.

use lint::items::{scan_items, Items};
use lint::lexer::{code_stream, lex, TokKind, Token};
use lint::rules::{analyze_source, FileContext};
use lint::Timings;
use proptest::prelude::*;

/// How far the depth counter below looked before giving up.
const WINDOW: usize = 2000;

/// The depth counter every walk ran before the lexer paired delimiters:
/// from the opener at `open`, any closer ends the innermost group; the
/// stream's length if nothing closes it, or `open + WINDOW` if the counter
/// gave up first. The pairing's oracle.
fn matching_close(code: &[Token], open: usize) -> usize {
    let mut depth = 0i64;
    let mut j = open;
    while j < code.len() && j - open < WINDOW {
        match code[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth <= 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j.min(code.len())
}

/// Byte soup where about three bytes in eight are delimiters, so groups
/// nest, cross string and comment boundaries, and go unclosed.
fn delimiter_soup(bytes: &[u8]) -> String {
    let soup: Vec<u8> = bytes
        .iter()
        .map(|&b| {
            if b % 8 < 3 {
                b"()[]{}"[usize::from(b / 8 % 6)]
            } else {
                b
            }
        })
        .collect();
    String::from_utf8_lossy(&soup).into_owned()
}

/// Lex `src` and run the item scan the way `analyze_source` does: on
/// the paired code stream, every token treated as non-test code.
fn scan(src: &str) -> Items {
    let toks = code_stream(&lex(src));
    let in_test = vec![false; toks.len()];
    scan_items(&toks, &in_test)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The lexer survives arbitrary bytes (lossy-decoded, as the scanner
    /// does for on-disk files) and is deterministic.
    #[test]
    fn byte_soup_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..2048)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let a = lex(&src);
        let b = lex(&src);
        prop_assert_eq!(a, b);
    }

    /// Structured soup biased toward lexer-relevant delimiters, to hit the
    /// string/comment/char state machines far more often than uniform bytes
    /// would.
    #[test]
    fn delimiter_soup_never_panics(picks in proptest::collection::vec(0usize..16, 0..256)) {
        const PIECES: [&str; 16] = [
            "\"", "'", "r#\"", "\"#", "/*", "*/", "//", "\n",
            "\\", "b'", "unsafe", "1.0", "==", "r#", "#", "x",
        ];
        let src: String = picks
            .iter()
            .map(|&i| PIECES.get(i).copied().unwrap_or(""))
            .collect();
        let toks = lex(&src);
        // Line numbers never decrease through the stream.
        let mut last = 1u32;
        for t in &toks {
            prop_assert!(t.line >= last, "line went backwards at {:?}", t);
            last = t.line;
        }
    }

    /// Whatever surrounds it, a cooked string's payload never leaks
    /// identifier tokens.
    #[test]
    fn string_payloads_never_leak(n in 0usize..64) {
        let src = format!("let s = \"{} unwrap() unsafe\";", "x".repeat(n));
        let ids: Vec<String> = lex(&src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect();
        prop_assert_eq!(ids, vec!["let".to_string(), "s".to_string()]);
    }

    /// Pairs are mutual and in bounds, and each opener's closer is the
    /// depth counter's answer wherever that falls inside its window.
    #[test]
    fn pairing_agrees_with_the_depth_counter(bytes in proptest::collection::vec(0u8..=255, 0..2048)) {
        let code = code_stream(&lex(&delimiter_soup(&bytes)));
        for (i, t) in code.iter().enumerate() {
            let opener = matches!(t.text.as_str(), "(" | "[" | "{");
            match t.pair {
                None => prop_assert!(!opener, "opener {} unpaired", i),
                Some(p) if opener => {
                    prop_assert!(i < p && p <= code.len(), "opener {} pairs with {}", i, p);
                    if let Some(c) = code.get(p) {
                        prop_assert_eq!(c.pair, Some(i));
                    }
                    let want = matching_close(&code, i);
                    if want < i + WINDOW {
                        prop_assert_eq!(p, want, "opener {}", i);
                    }
                }
                Some(p) => {
                    prop_assert!(matches!(t.text.as_str(), ")" | "]" | "}"), "{:?} paired", t);
                    prop_assert!(p < i, "closer {} pairs with {}", i, p);
                    prop_assert_eq!(code[p].pair, Some(i));
                }
            }
        }
    }

    /// The item scan terminates whether or not the stream was paired (a
    /// walk that jumps over a group still advances on a stream nobody
    /// paired), and so does the whole analysis of the soup.
    #[test]
    fn walks_terminate_with_and_without_pairing(bytes in proptest::collection::vec(0u8..=255, 0..2048)) {
        let src = delimiter_soup(&bytes);
        let paired = code_stream(&lex(&src));
        let unpaired: Vec<Token> = paired.iter().map(|t| Token { pair: None, ..t.clone() }).collect();
        for code in [&paired, &unpaired] {
            let items = scan_items(code, &vec![false; code.len()]);
            let spans = items.fns.iter().filter_map(|i| i.body).chain(items.streams);
            prop_assert!(spans.into_iter().all(|(_, end)| end <= code.len()));
        }
        let ctx = FileContext {
            crate_name: "fl",
            rel_path: "crates/fl/src/soup.rs",
            is_bin: false,
            test_tree: false,
        };
        let _ = analyze_source(&ctx, &src, &mut Timings::default());
    }

    /// The item scan survives arbitrary byte soup and is deterministic.
    #[test]
    fn item_scan_never_panics_on_byte_soup(bytes in proptest::collection::vec(0u8..=255, 0..2048)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let a = scan(&src);
        let b = scan(&src);
        prop_assert_eq!(a, b);
    }

    /// Structured soup biased toward item-scan-relevant keywords and
    /// delimiters: unbalanced braces, dangling attributes, half-written
    /// fn/impl/mod headers, array types. Must never panic, and every body
    /// span must either nest inside or be disjoint from every other's.
    #[test]
    fn item_spans_nest_on_structured_soup(picks in proptest::collection::vec(0usize..18, 0..256)) {
        const PIECES: [&str; 18] = [
            "fn f", "mod streams", "impl T", "{", "}", "(", ")", ";",
            "#[cfg(test)]", "#[test]", "pub", "for U", "<'a>", "where T:",
            "x", "\n", "[u8; 4]", "]",
        ];
        let src: String = picks
            .iter()
            .map(|&i| PIECES.get(i).copied().unwrap_or(""))
            .map(|p| format!("{} ", p))
            .collect();
        let items = scan(&src);
        let spans: Vec<(usize, usize)> =
            items.fns.iter().filter_map(|i| i.body).chain(items.streams).collect();
        for (i, &(a0, a1)) in spans.iter().enumerate() {
            prop_assert!(a0 <= a1, "inverted span {:?}", (a0, a1));
            for &(b0, b1) in spans.iter().skip(i + 1) {
                let nested = (a0 <= b0 && b1 <= a1) || (b0 <= a0 && a1 <= b1);
                let disjoint = a1 < b0 || b1 < a0;
                prop_assert!(
                    nested || disjoint,
                    "overlapping body spans: {:?} vs {:?}",
                    (a0, a1),
                    (b0, b1)
                );
            }
        }
    }
}
