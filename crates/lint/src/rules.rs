//! The `fedlint` rules: [`RULES`] is the one table of them, and every rule
//! lives here.
//!
//! Every rule protects a named workspace invariant (DESIGN.md §8). A row of
//! [`RULES`] states what a rule is, once: its name, its `--explain` text,
//! and the function that runs it on one file's tokens and items, from
//! [`analyze_source`] — on the source trees ([`Pass::File`]) or on the test
//! trees too ([`Pass::FileAndTests`]). The sorted name list, the pragma
//! validator, the report's `counts` and `timings_ms` keys and the run loop
//! are derived from the table; adding a rule is one row plus its fixtures.
//!
//! Exemptions are granted per line by a pragma comment:
//! `// fedlint::allow(<rule>): <reason>` — the reason is mandatory, and the
//! pragma covers its own line plus the next line (so it can sit directly
//! above the flagged expression, including inside method chains). A
//! malformed pragma — no reason, or a rule that is no row here, such as
//! one clippy now checks (its sites carry `#[expect(clippy::…, reason)]`) —
//! is itself a finding (`pragma-syntax`) and suppresses nothing.

use crate::items::{header_end, scan_items, Item, Items};
use crate::lexer::{code_stream, group_end, lex, text_at, TokKind, Token};
use crate::{Finding, Timings};
use std::collections::BTreeMap;

/// One rule: what it is called, what `--explain` says, and how it runs.
pub struct Rule {
    /// The identifier findings carry and the allow pragma accepts.
    pub name: &'static str,
    /// The `--explain` text.
    pub doc: &'static str,
    /// Which trees the rule reads, and the function that runs it.
    pub pass: Pass,
}

/// Which trees a rule reads; either way it runs once per file, on that
/// file's tokens, items and line facts.
pub enum Pass {
    /// The source trees (`crates/*/src`, `vendor/*/src`).
    File(fn(&FileView<'_>, &mut Vec<Finding>)),
    /// As `File`, and the test trees (`tests/`, `crates/*/tests/`) too.
    FileAndTests(fn(&FileView<'_>, &mut Vec<Finding>)),
}

/// Every rule, sorted by name. The single source for `fedlint --explain`,
/// and the README rule list is tested against it (`tests/explain.rs`).
pub const RULES: [Rule; 6] = [
    Rule {
        name: "atomic-write-discipline",
        doc: "Persisted state must be written atomically: tmp file, write, fsync, rename. A bare \
         write to the final path can be torn by a crash and break replay/recovery.",
        pass: Pass::File(rule_atomic_write),
    },
    Rule {
        name: "codec-checked-arith",
        doc: "Codec regions — the byte layer's `Reader`/`unseal` (`proto/src/bytes.rs`) and the \
         decode paths of the checkpoint, codec-wire and frame formats built on it — must use \
         checked arithmetic and checked indexing (`.get(…)`): attacker-controlled lengths must \
         not be able to overflow or panic.",
        pass: Pass::File(rule_codec_checked_arith),
    },
    Rule {
        name: "confinement",
        doc: "A token shape the architecture keeps in one place stays there: each `CONFINED` row \
         names a shape of code tokens, the files it reads, its home (some files, once per `const` \
         table, or nowhere) and whether test code counts; see DESIGN.md §8 for the thirteen rows.",
        pass: Pass::FileAndTests(rule_confinement),
    },
    Rule {
        name: "float-eq",
        doc: "No exact float equality (`==`/`!=` on floats) without an explicit waiver; \
         almost-equal comparisons must use an epsilon or bit-exact intent must be documented.",
        pass: Pass::File(rule_float_eq),
    },
    Rule {
        name: "rng-stream-collision",
        doc: "RNG stream labels must be unique in the one `streams` table (`confinement` keeps it \
         in `tensor/src/rng.rs`) and each scope must draw from one stream; collisions correlate \
         supposedly-independent randomness.",
        pass: Pass::File(rule_rng_stream_collision),
    },
    Rule {
        name: "rng-stream-discipline",
        doc: "RNGs must be constructed from named `streams::` label constants (not ad-hoc seeds) \
         so every random draw is attributable and replayable.",
        pass: Pass::File(rule_rng_stream_discipline),
    },
];

/// Rule identifiers, sorted, as accepted by the allow pragma.
pub const RULE_NAMES: [&str; RULES.len()] = {
    let mut names = [""; RULES.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = RULES[i].name;
        i += 1;
    }
    names
};

/// The built-in finding, as `(name, --explain text)`. Not a [`RULES`] row:
/// the pragma collector raises it, and no pragma can allow it.
pub const PRAGMA_SYNTAX: (&str, &str) = (
    "pragma-syntax",
    "A malformed `// fedlint::allow(<rule>): <reason>` pragma — unknown rule name or missing \
     reason — is itself a finding and suppresses nothing, so a typo cannot silently disable a \
     rule.",
);

/// Crates whose RNGs must derive from named stream constants, one stream
/// per scope.
const RNG_CRATES: [&str; 2] = ["core", "fl"];

/// Everything the rules need to know about one source file.
pub struct FileContext<'a> {
    /// Crate directory name under `crates/` (`fl`, `tensor`, ...).
    pub crate_name: &'a str,
    /// Workspace-relative path with forward slashes, for findings.
    pub rel_path: &'a str,
    /// Binary target (`src/main.rs` or under `src/bin/`): exempt from the
    /// library-code rules.
    pub is_bin: bool,
    /// Under a test tree: only the [`Pass::FileAndTests`] rules run.
    pub test_tree: bool,
}

/// A `fedlint::allow` pragma, parsed from a comment.
struct Pragma {
    line: u32,
    rule: String,
    valid: bool,
}

/// What a per-file rule sees: one file's comment-free tokens, its items,
/// which of its lines are test code, and the [`RULES`] name it is running
/// under.
pub struct FileView<'a> {
    rule: &'static str,
    ctx: &'a FileContext<'a>,
    code: &'a [Token],
    items: &'a Items,
    in_test: &'a [bool],
}

impl FileView<'_> {
    /// Report `message` at `line` under the running rule's name.
    fn push(&self, out: &mut Vec<Finding>, line: u32, message: String) {
        out.push(Finding {
            file: self.ctx.rel_path.to_string(),
            line,
            rule: self.rule,
            message,
        });
    }

    /// Is `line` inside a `#[cfg(test)]` item (test module or function)?
    fn in_test(&self, line: u32) -> bool {
        self.in_test.get(line as usize).copied().unwrap_or(false)
    }
}

/// Run every rule of [`RULES`] that reads this file's tree over one file.
/// Returns its findings unsorted: those no valid pragma allows, plus one
/// `pragma-syntax` finding per malformed pragma.
pub fn analyze_source(ctx: &FileContext<'_>, src: &str, timings: &mut Timings) -> Vec<Finding> {
    let (code, in_test, pragmas, items) = timings.time("infra:parse", || {
        let tokens = lex(src);
        let code = code_stream(&tokens);
        let in_test = test_regions(&code, src.lines().count().max(1) + 3);
        let items = scan_items(&code, &in_test);
        (code, in_test, collect_pragmas(&tokens), items)
    });

    let mut findings = Vec::new();
    for rule in &RULES {
        if let (Pass::File(run), false) | (Pass::FileAndTests(run), _) = (&rule.pass, ctx.test_tree)
        {
            let view = FileView {
                rule: rule.name,
                ctx,
                code: &code,
                items: &items,
                in_test: &in_test,
            };
            timings.time(rule.name, || run(&view, &mut findings));
        }
    }
    // A valid pragma covers its own line and the next.
    findings.retain(|f| {
        !pragmas
            .iter()
            .any(|p| p.valid && p.rule == f.rule && (p.line == f.line || p.line + 1 == f.line))
    });

    // Malformed pragmas are findings themselves and cannot be suppressed.
    for p in pragmas.iter().filter(|p| !p.valid) {
        findings.push(Finding {
            file: ctx.rel_path.to_string(),
            line: p.line,
            rule: PRAGMA_SYNTAX.0,
            message: format!(
                "malformed fedlint pragma (rule `{}`): expected \
                 `// fedlint::allow(<rule>): <reason>` with a known rule and a non-empty reason",
                p.rule
            ),
        });
    }
    findings
}

/// Mark every line inside a `#[cfg(test)]` item's braces (plus the attribute
/// itself) as test code. Handles `#[cfg(test)] mod tests { ... }` and
/// `#[cfg(test)]` on any other braced item; an item ended by `;` before any
/// `{` produces no region.
fn test_regions(code: &[Token], n_lines: usize) -> Vec<bool> {
    let mut in_test = vec![false; n_lines + 1];
    let mut i = 0usize;
    while i < code.len() {
        if !(code[i].text == "#" && code.get(i + 1).is_some_and(|t| t.text == "[")) {
            i += 1;
            continue;
        }
        // Scan the attribute body for `cfg` + `test`; a bare `#[test]`
        // (exactly one inner token) marks a test fn directly.
        let bare_test = code.get(i + 2).is_some_and(|t| t.text == "test")
            && code.get(i + 3).is_some_and(|t| t.text == "]");
        let close = group_end(code, i + 1);
        let body = code.get(i + 2..close).unwrap_or_default();
        let saw = |word: &str| body.iter().any(|t| t.text == word);
        let j = close.saturating_add(1).min(code.len());
        if !((saw("cfg") && saw("test")) || bare_test) {
            i = j.max(i + 1);
            continue;
        }
        let attr_line = code[i].line;
        // Find the item's opening brace (further attributes and an array
        // type's `;` are groups the header jumps over). A `;` first means a
        // braceless item — no region.
        let k = header_end(code, j);
        if k >= code.len() || code[k].text == ";" {
            i = k.max(i + 1);
            continue;
        }
        // The item ends at the brace's closer, or with the file.
        let m = group_end(code, k).min(code.len());
        let end_line = code.get(m).or(code.last()).map_or(attr_line, |t| t.line);
        for l in attr_line..=end_line {
            if let Some(slot) = in_test.get_mut(l as usize) {
                *slot = true;
            }
        }
        i = m.max(i + 1);
    }
    in_test
}

/// Parse allow pragmas out of comments. Only comments that *begin* with the
/// pragma (after the comment markers) count — prose that merely mentions the
/// grammar, like this crate's own docs, is not a pragma attempt.
fn collect_pragmas(tokens: &[Token]) -> Vec<Pragma> {
    let mut out = Vec::new();
    for t in tokens {
        if t.kind != TokKind::Comment {
            continue;
        }
        let body = t.text.trim_start_matches(['/', '*', '!']).trim_start();
        let Some(rest) = body.strip_prefix("fedlint::allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            out.push(Pragma {
                line: t.line,
                rule: String::new(),
                valid: false,
            });
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let after = &rest[close + 1..];
        let reason_ok = after
            .strip_prefix(':')
            .map(|r| {
                let r = r.trim_end_matches("*/").trim();
                !r.is_empty()
            })
            .unwrap_or(false);
        let known = RULE_NAMES.contains(&rule.as_str());
        out.push(Pragma {
            line: t.line,
            valid: known && reason_ok,
            rule,
        });
    }
    out
}

/// The parallel-iterator entry points, which `confinement`'s `kernels on
/// the calling thread` row bans from the kernel crates.
const PAR_ENTRY_POINTS: [&str; 5] = [
    "into_par_iter",
    "par_chunks",
    "par_chunks_mut",
    "par_iter",
    "par_iter_mut",
];

/// `rng-stream-discipline`: in `fl`/`core` library code, `derive(seed, &[…])`
/// must lead its stream slice with a named constant (`streams::X`), never a
/// bare integer literal; direct `seed_from_u64(<literal>)` is banned too.
fn rule_rng_stream_discipline(f: &FileView<'_>, out: &mut Vec<Finding>) {
    let (ctx, code) = (f.ctx, f.code);
    if ctx.is_bin || !RNG_CRATES.contains(&ctx.crate_name) {
        return;
    }
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || f.in_test(t.line) {
            continue;
        }
        if t.text == "seed_from_u64"
            && code.get(i + 1).is_some_and(|n| n.text == "(")
            && code.get(i + 2).is_some_and(|n| n.kind == TokKind::Int)
        {
            f.push(
                out,
                t.line,
                "RNG seeded from a bare integer literal; derive it from the experiment seed and a \
                 named `streams::` constant instead"
                    .to_string(),
            );
            continue;
        }
        if t.text != "derive" || code.get(i + 1).is_none_or(|n| n.text != "(") {
            continue;
        }
        // Skip `#[derive(...)]` attributes.
        let in_attr = i >= 2 && code[i - 1].text == "[" && code[i - 2].text == "#";
        if in_attr {
            continue;
        }
        // The first `&[` in the argument list: its slice's first element.
        let mut args = i + 2..group_end(code, i + 1);
        let slice = args.find(|&j| text_at(code, j) == "&" && text_at(code, j + 1) == "[");
        let first = slice.and_then(|j| code.get(j + 2));
        if let Some(first) = first.filter(|t| t.kind == TokKind::Int) {
            f.push(
                out,
                first.line,
                format!(
                    "RNG stream starts with bare literal `{}`; lead with a named `streams::` \
                     constant so streams stay collision-free and greppable",
                    first.text
                ),
            );
        }
    }
}

/// `rng-stream-collision`: (a) two constants of a `streams` module sharing
/// a value, and (b) within one function in `fl`/`core` library code, two
/// `derive(…, &[…])` calls consuming a token-identical stream slice — the
/// same logical stream in the same `(round, client)` scope. `confinement`
/// keeps the one `streams` table in one file, so (a) reads a file at a time.
fn rule_rng_stream_collision(f: &FileView<'_>, out: &mut Vec<Finding>) {
    stream_collisions(f, out);
    if !f.ctx.is_bin && RNG_CRATES.contains(&f.ctx.crate_name) {
        duplicate_derives(f, out);
    }
}

/// `rng-stream-collision` (a): every `streams` constant whose value an
/// earlier one in the file already holds.
fn stream_collisions(f: &FileView<'_>, out: &mut Vec<Finding>) {
    let (code, items) = (f.code, f.items);
    // Value -> the constants holding it, as (line, name), in token order.
    let mut by_value: BTreeMap<u128, Vec<(u32, &str)>> = BTreeMap::new();
    for &span in &items.streams {
        let idxs = body_indices(span, &items.fns);
        for (p, &k) in idxs.iter().enumerate() {
            let Some(name) = code.get(k + 1).filter(|t| t.kind == TokKind::Ident) else {
                continue;
            };
            if text_at(code, k) != "const" {
                continue;
            }
            // `NAME : type = <int> ;` — the value is the token after the
            // first `=`, unless a `;` comes first.
            let rest = idxs.get(p + 2..).unwrap_or_default();
            let eq = (rest.iter())
                .position(|&j| matches!(text_at(code, j), "=" | ";"))
                .filter(|&q| text_at(code, rest[q]) == "=");
            let value = (eq.and_then(|q| rest.get(q + 1)))
                .and_then(|&j| code.get(j))
                .filter(|t| t.kind == TokKind::Int)
                .and_then(|t| parse_int(&t.text));
            if let Some(v) = value {
                by_value.entry(v).or_default().push((name.line, &name.text));
            }
        }
    }
    for (value, defs) in &by_value {
        let Some(((first_line, first), rest)) = defs.split_first() else {
            continue;
        };
        for (line, name) in rest {
            f.push(
                out,
                *line,
                format!(
                    "`streams::{name}` has value {value}, colliding with `streams::{first}` \
                     ({}:{first_line}); stream labels must be unique or derived RNG streams \
                     overlap",
                    f.ctx.rel_path
                ),
            );
        }
    }
}

/// Parse an integer literal's text (decimal / hex / octal / binary, with
/// `_` separators and a type suffix).
fn parse_int(text: &str) -> Option<u128> {
    let t: String = text.chars().filter(|&c| c != '_').collect();
    let (digits, radix) = if let Some(h) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        (h, 16)
    } else if let Some(o) = t.strip_prefix("0o").or_else(|| t.strip_prefix("0O")) {
        (o, 8)
    } else if let Some(b) = t.strip_prefix("0b").or_else(|| t.strip_prefix("0B")) {
        (b, 2)
    } else {
        (t.as_str(), 10)
    };
    let end = digits
        .char_indices()
        .find(|(_, c)| !c.is_digit(radix))
        .map(|(i, _)| i)
        .unwrap_or(digits.len());
    u128::from_str_radix(digits.get(..end).unwrap_or(""), radix).ok()
}

/// `rng-stream-collision` (b): a second `derive` of one stream slice in the
/// same non-test function.
fn duplicate_derives(f: &FileView<'_>, out: &mut Vec<Finding>) {
    let (code, items) = (f.code, f.items);
    for (item, span) in items.code_fns() {
        let mut seen: BTreeMap<String, u32> = BTreeMap::new();
        let idxs = body_indices(span, &items.fns);
        for (p, &k) in idxs.iter().enumerate() {
            let Some(t) = code.get(k) else {
                continue;
            };
            if t.kind != TokKind::Ident || t.text != "derive" || text_at(code, k + 1) != "(" {
                continue;
            }
            // `#[derive(…)]` attributes are not calls.
            if k >= 2 && text_at(code, k - 1) == "[" && text_at(code, k - 2) == "#" {
                continue;
            }
            let Some(sig) = derive_signature(code, &idxs[p..]) else {
                continue;
            };
            match seen.get(&sig) {
                Some(&first) => f.push(
                    out,
                    t.line,
                    format!(
                        "`derive` re-consumes stream `[{}]` first consumed at line {} in `{}`; \
                         one logical stream per (round, client) scope — derive a distinct \
                         stream or pragma with justification",
                        sig,
                        first,
                        item.display_name()
                    ),
                ),
                None => {
                    seen.insert(sig, t.line);
                }
            }
        }
    }
}

/// Token-text signature of the first `&[…]` slice inside a `derive(…)`
/// call; `idxs` starts at the `derive` token and stays within the body.
fn derive_signature(code: &[Token], idxs: &[usize]) -> Option<String> {
    let mut paren = 0i64;
    let mut p = 1usize; // past `derive`
    while p < idxs.len() {
        let k = idxs[p];
        match text_at(code, k) {
            "(" => paren += 1,
            ")" => {
                paren -= 1;
                if paren <= 0 {
                    return None;
                }
            }
            "&" if paren >= 1 && text_at(code, k + 1) == "[" => {
                let mut depth = 0i64;
                let mut parts = Vec::new();
                let mut q = p + 1;
                while q < idxs.len() {
                    let j = idxs[q];
                    match text_at(code, j) {
                        "[" => {
                            depth += 1;
                            if depth > 1 {
                                parts.push("[".to_string());
                            }
                        }
                        "]" => {
                            depth -= 1;
                            if depth <= 0 {
                                return Some(parts.join(" "));
                            }
                            parts.push("]".to_string());
                        }
                        other => parts.push(other.to_string()),
                    }
                    q += 1;
                }
                return None;
            }
            _ => {}
        }
        p += 1;
    }
    None
}

/// The token indices inside the body span `(start, end)`, skipping the
/// bodies of the `fns` nested inside it.
fn body_indices((start, end): (usize, usize), fns: &[Item]) -> Vec<usize> {
    let mut skips: Vec<(usize, usize)> = fns
        .iter()
        .filter_map(|o| o.body)
        .filter(|&(s, e)| s > start && e < end)
        .collect();
    skips.sort_unstable();
    let mut out = Vec::new();
    let mut k = start.saturating_add(1);
    while k < end {
        if let Some(&(s, e)) = skips.iter().find(|&&(s, e)| s <= k && k <= e) {
            k = e.max(s).saturating_add(1);
            continue;
        }
        out.push(k);
        k += 1;
    }
    out
}

/// `float-eq`: `==` / `!=` with a float literal operand. (A lexer cannot see
/// types, so float-vs-float variable comparisons are out of scope; literal
/// comparisons are where every workspace instance lived.)
fn rule_float_eq(f: &FileView<'_>, out: &mut Vec<Finding>) {
    let (ctx, code) = (f.ctx, f.code);
    if ctx.is_bin {
        return;
    }
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Op || (t.text != "==" && t.text != "!=") || f.in_test(t.line) {
            continue;
        }
        let float_adjacent = i
            .checked_sub(1)
            .and_then(|p| code.get(p))
            .is_some_and(|p| p.kind == TokKind::Float)
            || code.get(i + 1).is_some_and(|n| n.kind == TokKind::Float);
        if float_adjacent {
            f.push(
                out,
                t.line,
                format!(
                    "exact float comparison `{}` against a literal; use a tolerance or justify the \
                     exact-zero/sentinel semantics with a fedlint::allow pragma",
                    t.text
                ),
            );
        }
    }
}

/// Does an identifier smell like a length, offset, or count — the values a
/// hostile checkpoint controls?
fn lenish(name: &str) -> bool {
    let l = name.to_ascii_lowercase();
    l == "n"
        || ["len", "pos", "offset", "idx", "count", "size"]
            .iter()
            .any(|p| l.contains(p))
}

/// `codec-checked-arith`: inside designated codec regions (the byte layer's
/// reader, the decode paths of the three formats built on it, and the
/// federation snapshot restore path), unchecked `+`/`-`/`*` on
/// length/offset-named values and bare slice indexing are banned —
/// checksum-valid hostile lengths must not be able to panic or
/// over-allocate.
fn rule_codec_checked_arith(f: &FileView<'_>, out: &mut Vec<Finding>) {
    let (ctx, code, items) = (f.ctx, f.code, f.items);
    let in_bytes = ctx.rel_path.ends_with("proto/src/bytes.rs");
    let in_checkpoint = ctx.rel_path.ends_with("fl/src/checkpoint.rs");
    let in_persist = ctx.rel_path.ends_with("core/src/persist.rs");
    let in_codec = ctx.rel_path.ends_with("fl/src/codec.rs");
    let in_proto =
        ctx.rel_path.ends_with("proto/src/wire.rs") || ctx.rel_path.ends_with("proto/src/msg.rs");
    if ctx.is_bin || !(in_bytes || in_checkpoint || in_persist || in_codec || in_proto) {
        return;
    }
    for (item, (start, end)) in items.code_fns() {
        let codec = (in_bytes
            && (item.impl_type.as_deref() == Some("Reader") || item.name == "unseal"))
            || (in_checkpoint
                && (item.impl_type.as_deref() == Some("Dec") || item.name.starts_with("decode")))
            || (in_persist && matches!(item.name.as_str(), "restore" | "from_json"))
            || (in_codec && item.name.starts_with("decode"))
            || (in_proto && (item.name.starts_with("decode") || item.name.starts_with("read_")));
        if !codec {
            continue;
        }
        for k in start + 1..end.min(code.len()) {
            let t = &code[k];
            let next_is = |txt: &str| code.get(k + 1).is_some_and(|n| n.text == txt);
            if t.kind == TokKind::Op && matches!(t.text.as_str(), "+" | "-" | "*") {
                // Binary position: the left operand just ended.
                let binary = k.checked_sub(1).and_then(|p| code.get(p)).is_some_and(|p| {
                    matches!(p.kind, TokKind::Ident | TokKind::Int | TokKind::Float)
                        || p.text == ")"
                        || p.text == "]"
                });
                let window = code[k.saturating_sub(4)..(k + 5).min(code.len())]
                    .iter()
                    .any(|w| w.kind == TokKind::Ident && lenish(&w.text));
                if binary && window {
                    f.push(
                        out,
                        t.line,
                        format!(
                            "unchecked `{}` on length/offset arithmetic in a codec region; use \
                             `checked_{}`/`saturating_{}` so hostile lengths cannot overflow",
                            t.text,
                            op_name(&t.text),
                            op_name(&t.text)
                        ),
                    );
                }
            } else if t.kind == TokKind::Ident && next_is("[") {
                // Ident-then-`[` is always an index: `vec![…]` lexes as
                // `vec ! [`, and an attribute's `[` follows `#`.
                f.push(
                    out,
                    t.line,
                    format!(
                        "bare indexing `{}[…]` in a codec region can panic on hostile input; use \
                         `.get(…)` and propagate a decode error",
                        t.text
                    ),
                );
            }
        }
    }
}

fn op_name(op: &str) -> &'static str {
    match op {
        "+" => "add",
        "-" => "sub",
        _ => "mul",
    }
}

/// `atomic-write-discipline`: in checkpoint/persist modules and the lint
/// CLI itself, a function that creates or writes a file must also fsync
/// (`sync_all`/`sync_data`) and `rename` before returning — the
/// torn-write-safe tmp → fsync → rename protocol must never be split across
/// helpers where a crash window hides.
fn rule_atomic_write(f: &FileView<'_>, out: &mut Vec<Finding>) {
    let (ctx, code, items) = (f.ctx, f.code, f.items);
    // The lint CLI's own report writes are persisted artifacts too
    // (dogfooding): it is a binary, but the discipline still applies.
    let lint_cli = ctx.rel_path.ends_with("lint/src/main.rs");
    let applies = ctx.rel_path.ends_with("/checkpoint.rs")
        || ctx.rel_path.ends_with("/persist.rs")
        || lint_cli;
    if (ctx.is_bin && !lint_cli) || !applies {
        return;
    }
    for (item, (start, end)) in items.code_fns() {
        let mut trigger: Option<(u32, &'static str)> = None;
        let mut has_sync = false;
        let mut has_rename = false;
        for k in start + 1..end.min(code.len()) {
            let t = &code[k];
            if t.kind != TokKind::Ident {
                continue;
            }
            let next_is = |txt: &str| code.get(k + 1).is_some_and(|n| n.text == txt);
            let nth_is = |off: usize, txt: &str| code.get(k + off).is_some_and(|n| n.text == txt);
            if t.text == "File" && next_is("::") && nth_is(2, "create") {
                trigger.get_or_insert((t.line, "File::create"));
            } else if t.text == "write"
                && next_is("(")
                && k >= 2
                && code[k - 1].text == "::"
                && code[k - 2].text == "fs"
            {
                trigger.get_or_insert((t.line, "fs::write"));
            } else if t.text == "write_all"
                && next_is("(")
                && k.checked_sub(1)
                    .and_then(|p| code.get(p))
                    .is_some_and(|p| p.text == ".")
            {
                trigger.get_or_insert((t.line, "write_all"));
            } else if (t.text == "sync_all" || t.text == "sync_data") && next_is("(") {
                has_sync = true;
            } else if t.text == "rename" && next_is("(") {
                has_rename = true;
            }
        }
        if let Some((line, what)) = trigger {
            if !(has_sync && has_rename) {
                f.push(
                    out,
                    line,
                    format!(
                        "`{}` in `{}` without both `sync_all`/`sync_data` and `rename` in the \
                         same function; persisted writes must follow the tmp → fsync → rename \
                         protocol so a crash never leaves a torn file",
                        what,
                        item.display_name()
                    ),
                );
            }
        }
    }
}

/// One row of `confinement`: a token shape that may sit only in its home.
pub struct Confined {
    /// The row's name, which prefixes its message.
    pub name: &'static str,
    /// Does the shape start at code token `i`?
    pub pattern: fn(&[Token], usize) -> bool,
    /// Path prefixes of the scanned files the row reads.
    pub scope: &'static [&'static str],
    /// Where the shape may sit.
    pub home: Home,
    /// Whether test code (`#[cfg(test)]` items, the test trees) counts.
    pub tests: bool,
    /// What to do instead.
    pub message: &'static str,
}

/// Where a [`Confined`] shape may sit.
pub enum Home {
    /// Nowhere in scope.
    Nowhere,
    /// Anywhere in these files.
    Files(&'static [&'static str]),
    /// Once per `const` whose name, or type, starts with this token run.
    Const(&'static [&'static str]),
}

/// The `confinement` rows, one per invariant.
#[rustfmt::skip]
pub const CONFINED: [Confined; 13] = [
    Confined { name: "one byte layer",
        pattern: |c, i| c[i].kind == TokKind::Int && c[i].text.replace('_', "").contains("cbf29ce4"),
        scope: &["crates/", "tests/"], home: Home::Files(&["crates/proto/src/bytes.rs"]), tests: true,
        message: "the FNV-1a offset basis is proto::bytes' checksum; seal through `bytes::seal`" },
    Confined { name: "one upload rule",
        pattern: |c, i| runs(c, i, &[&["BaseCodec", "::"], &["codec", ".", "is_none", "("], &["codec", "(", ")", ".", "is_none", "("]]),
        scope: &["crates/"], home: Home::Files(&["crates/fl/src/codec.rs"]), tests: false,
        message: "ask `fl::codec` (`upload`, `CodecSpec::keeps_residual`) instead" },
    Confined { name: "one door to clients",
        pattern: |c, i| runs(c, i, &[&["sample_clients", "("], &[".", "broadcast", "("], &[".", "train_remote", "("]]),
        scope: &["crates/"], home: Home::Files(&["crates/fl/src/driver.rs"]), tests: false,
        message: "reach clients through `fl::driver::RoundCtx` (`train_round`, `train_groups`, `train_clusters`, `on_clients` …)" },
    Confined { name: "no serde",
        pattern: |c, i| runs(c, i, &[&["Serialize"], &["Deserialize"]]),
        scope: &["crates/", "vendor/"], home: Home::Nowhere, tests: true,
        message: "serde is gone; JSON is written and read by `fl::json`" },
    Confined { name: "one rule table",
        pattern: |c, i| c[i].kind == TokKind::Str && RULE_NAMES.contains(&c[i].text.trim_matches('"')),
        scope: &["crates/lint/src/rules.rs", "crates/lint/src/lib.rs", "crates/lint/src/main.rs"], home: Home::Const(&["RULES"]), tests: false,
        message: "a rule name is spelled once, in its `RULES` row; take names from the table" },
    Confined { name: "one flag table",
        pattern: |c, i| c[i].text.strip_prefix("\"--").and_then(|f| f.strip_suffix('"')).is_some_and(|f| f != "help"
            && f.starts_with(|c: char| c.is_ascii_lowercase()) && f.bytes().all(|b| b.is_ascii_lowercase() || b == b'-')),
        scope: &["crates/cli/src/"], home: Home::Const(&["&", "[", "Flag", "<"]), tests: false,
        message: "a flag is spelled once per table, as its row in a `&[Flag<…>]` table" },
    Confined { name: "bench-only lowering",
        pattern: |c, i| runs(c, i, &[&["im2col_batch_into", "("], &["col2im_batch_into", "("]]),
        scope: &["crates/"], home: Home::Nowhere, tests: false,
        message: "builds a tap table per call; lower through the layer's table" },
    Confined { name: "kernels on the calling thread",
        pattern: |c, i| runs(c, i, &[&["rayon", "::"]])
            || (PAR_ENTRY_POINTS.contains(&c[i].text.as_str()) && text_at(c, i + 1) == "("),
        scope: &["crates/tensor/src/", "crates/nn/src/", "crates/data/src/", "crates/cluster/src/"], home: Home::Nowhere, tests: false,
        message: "a kernel runs on the thread that calls it; fork in the map over clients or proximity rows above it" },
    Confined { name: "no locks",
        pattern: |c, i| c[i].kind == TokKind::Ident && matches!(c[i].text.as_str(), "Mutex" | "RwLock" | "Condvar"),
        scope: &["crates/", "vendor/"], home: Home::Files(&["vendor/rayon/src/iter.rs", "crates/cli/src/chaos.rs"]), tests: false,
        message: "one thread owns shared state and the others send it events on a channel, as `cli::net`'s lease table does" },
    Confined { name: "one relaxed atomic",
        pattern: |c, i| runs(c, i, &[&["Ordering", "::", "Relaxed"]]),
        scope: &["crates/", "vendor/"], home: Home::Files(&["vendor/rayon/src/pool.rs"]), tests: false,
        message: "`Relaxed` orders nothing; the fork-join's claim counter is its one site, with the reason beside it" },
    Confined { name: "no clocks",
        pattern: |c, i| (c[i].kind == TokKind::Ident && matches!(c[i].text.as_str(), "Instant" | "SystemTime" | "available_parallelism"))
            || runs(c, i, &[&["thread", "::", "current"], &["as_ptr", "(", ")", "as", "usize"]]),
        scope: &["crates/", "vendor/"], home: Home::Files(&["crates/cli/src/net.rs", "crates/bench/src/runner.rs", "crates/lint/src/lib.rs", "vendor/rayon/src/pool.rs"]), tests: false,
        message: "replay admits no clock, core count or thread id; one is read only where it times or sizes work and reaches no result" },
    Confined { name: "two doors for hostile bytes",
        pattern: |c, i| runs(c, i, &[&["fs", "::", "read", "("], &["fs", "::", "read_to_string", "("], &[".", "read_exact", "("], &[".", "read_to_end", "("],
            &[".", "read_to_string", "("], &[".", "read", "(", "&", "mut"], &[".", "peek", "(", "&", "mut"], &[".", "recv_from", "("]]),
        scope: &["crates/", "vendor/"], home: Home::Files(&["crates/proto/src/wire.rs", "crates/fl/src/checkpoint.rs", "crates/lint/src/lib.rs"]), tests: false,
        message: "bytes come in through `proto::wire` (frames) or `fl::checkpoint` (images), whose decoders are held to checked arithmetic; read through them" },
    Confined { name: "one streams table",
        pattern: |c, i| runs(c, i, &[&["mod", "streams"]]),
        scope: &["crates/", "vendor/"], home: Home::Files(&["crates/tensor/src/rng.rs"]), tests: false,
        message: "every RNG stream label is a constant of `tensor::rng::streams`, where collisions show; add the label there" },
];

/// Does one of the token runs in `runs` start at code token `i`?
fn runs(code: &[Token], i: usize, runs: &[&[&str]]) -> bool {
    let at = |run: &&[&str]| run.iter().zip(i..).all(|(t, k)| text_at(code, k) == *t);
    runs.iter().any(at)
}

/// `confinement`: every match of a [`CONFINED`] row outside its home (a
/// match right after `fn` is a definition and never counts).
fn rule_confinement(f: &FileView<'_>, out: &mut Vec<Finding>) {
    let (code, path) = (f.code, f.ctx.rel_path);
    let in_scope = |row: &&Confined| row.scope.iter().any(|s| path.starts_with(s));
    for row in CONFINED.iter().filter(in_scope) {
        let opens_home = |i| match row.home {
            Home::Const(head) => runs(code, i + 1, &[head]) || runs(code, i + 3, &[head]),
            _ => false,
        };
        // The home `const` being walked, as (its `const` token, its depth).
        let (mut table, mut depth, mut spelled) = (None, 0, std::collections::BTreeSet::new());
        for (i, t) in code.iter().enumerate() {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if table.is_some_and(|(_, d)| d == depth) => table = None,
                "const" if opens_home(i) => table = Some((i, depth)),
                _ => {}
            }
            let counts = row.tests || !(f.ctx.test_tree || f.in_test(t.line));
            if !counts || !(row.pattern)(code, i) || text_at(code, i.wrapping_sub(1)) == "fn" {
                continue;
            }
            let home = match row.home {
                Home::Nowhere => false,
                Home::Files(homes) => homes.contains(&path),
                Home::Const(_) => table.is_some_and(|(k, _)| spelled.insert((k, &t.text))),
            };
            if !home {
                f.push(out, t.line, format!("{}: {}", row.name, row.message));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{body_indices, parse_int, scan_items, test_regions};
    use crate::lexer::{code_stream, lex};

    #[test]
    fn an_array_in_a_test_items_header_keeps_its_region() {
        let src = "#[cfg(test)]\nfn helper() -> [u8; 4] {\n    [0; 4]\n}\nfn product() {}\n";
        let in_test = test_regions(&code_stream(&lex(src)), 6);
        assert_eq!(in_test[1..=5], [true, true, true, true, false]);
    }

    #[test]
    fn nested_fn_bodies_are_carved_out() {
        let code = code_stream(&lex("fn outer() { a(); fn inner() { b() } c() }"));
        let fns = scan_items(&code, &[]).fns;
        let texts = |f: usize| -> Vec<&str> {
            let span = fns[f].body.unwrap();
            (body_indices(span, &fns).into_iter())
                .map(|k| code[k].text.as_str())
                .collect()
        };
        assert_eq!(
            texts(0),
            ["a", "(", ")", ";", "fn", "inner", "(", ")", "c", "(", ")"]
        );
        assert_eq!(texts(1), ["b", "(", ")"]);
    }

    #[test]
    fn int_literal_parsing() {
        assert_eq!(parse_int("10"), Some(10));
        assert_eq!(parse_int("1_000"), Some(1000));
        assert_eq!(parse_int("0xFFu64"), Some(255));
        assert_eq!(parse_int("0b1010"), Some(10));
        assert_eq!(parse_int("7u64"), Some(7));
        assert_eq!(parse_int("xyz"), None);
    }
}
