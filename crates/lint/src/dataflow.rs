//! Per-function dataflow for `fedlint`: def-use chains over locals and an
//! interprocedural taint engine.
//!
//! The engine recovers, for every `fn` body, its parameter names, its `let`
//! bindings and plain reassignments (each with the token range of its
//! right-hand side), and its `return`/trailing expressions ([`fn_flows`]).
//! On top of that, [`taint_findings`] runs a flow-insensitive-per-pass,
//! interprocedurally-propagated taint analysis: a [`TaintSpec`] names the
//! source calls whose results (or `&mut` buffer arguments) are tainted, the
//! sanitizer calls that launder a binding, and the sink shapes that turn a
//! tainted use into a [`Finding`]. Taint crosses function boundaries along
//! the [`crate::callgraph`] edges — tainted argument to parameter, tainted
//! return to call-site — and every finding's message carries the full
//! source → variable → call chain.
//!
//! Precision philosophy (same as the call graph): **ambiguity drops taint**.
//! Bindings from `for`/`match` patterns, struct-field writes, receivers the
//! call graph cannot resolve, and anything else the extractor does not
//! understand simply stop propagation — the rules under-report rather than
//! invent findings. The lattice is monotone: taint is only ever added within
//! a fixpoint pass, so adding a source can add findings but never remove one
//! (pinned by a property test).
//!
//! Robustness contract: like the lexer and item parser, everything here is
//! total — arbitrary token soup must never panic or hang (every range is
//! bounds-clamped, every loop advances, fixpoints are iteration-capped).

use crate::callgraph::Workspace;
use crate::items::{Item, ItemKind};
use crate::lexer::{group_end, text_at, TokKind, Token};
use crate::rules::FileAnalysis;
use crate::Finding;
use std::collections::BTreeMap;

/// Interprocedural fixpoint passes; taint deeper than this many call hops
/// is dropped (ambiguity policy, and a termination backstop).
const MAX_PASSES: usize = 10;
/// Provenance hops kept per chain before the message stops growing.
const MAX_CHAIN_HOPS: usize = 12;
/// Longest right-hand side an extractor will scan before cutting the range.
const MAX_EXPR_TOKENS: usize = 2000;

// ---------------------------------------------------------------------------
// Def-use extraction
// ---------------------------------------------------------------------------

/// One binding site of a local: a `let` name or a plain reassignment target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Def {
    /// The bound name.
    pub name: String,
    /// 1-based line of the binding.
    pub line: u32,
    /// `[start, end)` token-index range of the right-hand side, into the
    /// file's comment-free token stream.
    pub rhs: (usize, usize),
}

/// One declared parameter name. `position` is the zero-based argument
/// segment (the receiver, if any, is segment 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// The parameter name.
    pub name: String,
    /// Zero-based position in the parameter list.
    pub position: usize,
}

/// The def-use structure of one `fn` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnFlow {
    /// Index of the owning item in the file's `items` vec.
    pub item_idx: usize,
    /// First parameter segment is a `self` receiver.
    pub has_receiver: bool,
    /// Declared parameter names.
    pub params: Vec<Param>,
    /// `let` bindings and reassignments, in token order.
    pub defs: Vec<Def>,
    /// Token ranges of `return` expressions plus the trailing expression.
    pub rets: Vec<(usize, usize)>,
}

/// Identifier shapes that can name a local: lowercase/underscore start,
/// not a keyword that appears inside patterns or parameter lists.
fn is_local_name(name: &str) -> bool {
    let starts_lower = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_lowercase() || c == '_');
    starts_lower
        && name != "_"
        && !matches!(
            name,
            "box" | "const" | "dyn" | "impl" | "mut" | "ref" | "self" | "fn"
        )
}

/// Scan an expression starting at `from`, jumping over each group it
/// opens: the range ends at the first `;` or `else` outside those groups,
/// at a closer of a group opened before `from`, or (for `if let`/`while
/// let` scrutinees) at a `{` outside them. At most [`MAX_EXPR_TOKENS`]
/// long; always returns `from <= end <= limit`.
fn expr_range(code: &[Token], from: usize, limit: usize, stop_at_brace: bool) -> (usize, usize) {
    let limit = limit
        .min(code.len())
        .min(from.saturating_add(MAX_EXPR_TOKENS))
        .max(from);
    let mut j = from;
    while j < limit {
        match text_at(code, j) {
            "{" if stop_at_brace => break,
            "(" | "[" | "{" => j = group_end(code, j),
            ")" | "]" | "}" | ";" | "else" => break,
            _ => {}
        }
        j += 1;
    }
    (from, j.min(limit))
}

/// Parse the parameter list of the `fn` whose keyword sits at `fn_tok`.
fn parse_params(code: &[Token], fn_tok: usize, body_start: usize) -> (bool, Vec<Param>) {
    let mut k = fn_tok + 2; // past `fn name`
    if text_at(code, k) == "<" {
        // Skip the generics. Inside a header, `<`/`>` are only generic
        // delimiters; shift operators cannot appear.
        let mut angle = 0i64;
        while k < body_start.min(code.len()) {
            match text_at(code, k) {
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                _ => {}
            }
            k += 1;
            if angle <= 0 {
                break;
            }
        }
    }
    if text_at(code, k) != "(" {
        return (false, Vec::new());
    }
    let (mut paren, mut angle, mut bracket) = (0i64, 0i64, 0i64);
    let mut params = Vec::new();
    let mut position = 0usize;
    let mut in_pattern = true;
    let mut has_receiver = false;
    while k < body_start.min(code.len()) {
        let t = &code[k];
        match t.text.as_str() {
            "(" => paren += 1,
            ")" => {
                paren -= 1;
                if paren == 0 {
                    break;
                }
            }
            "[" => bracket += 1,
            "]" => bracket -= 1,
            "<" => angle += 1,
            "<<" => angle += 2,
            ">" => angle -= 1,
            ">>" => angle -= 2,
            ":" if paren == 1 && angle == 0 && bracket == 0 => in_pattern = false,
            "," if paren == 1 && angle == 0 && bracket == 0 => {
                position += 1;
                in_pattern = true;
            }
            _ => {
                if in_pattern && paren >= 1 && angle == 0 && t.kind == TokKind::Ident {
                    if t.text == "self" && position == 0 {
                        has_receiver = true;
                    } else if is_local_name(&t.text) {
                        params.push(Param {
                            name: t.text.clone(),
                            position,
                        });
                    }
                }
            }
        }
        k += 1;
    }
    (has_receiver, params)
}

/// Recover the def-use structure of every `fn` item with a body. Total and
/// deterministic on arbitrary token soup; unmatched items are skipped.
pub fn fn_flows(code: &[Token], items: &[Item]) -> Vec<FnFlow> {
    let mut flows = Vec::new();
    let mut cursor = 0usize;
    for (item_idx, item) in items.iter().enumerate() {
        if item.kind != ItemKind::Fn {
            continue;
        }
        let Some((start, raw_end)) = item.body else {
            continue;
        };
        let end = raw_end.min(code.len());
        if start >= end {
            continue;
        }
        // Locate this item's `fn` keyword: the last `fn <name>` pair at or
        // after a monotone cursor and before the body opens (items come in
        // declaration order, so the cursor never has to back up).
        let mut fn_tok = None;
        let mut k = cursor;
        while k < start && k + 1 < code.len() {
            if code[k].kind == TokKind::Ident
                && code[k].text == "fn"
                && code[k + 1].kind == TokKind::Ident
                && code[k + 1].text == item.name
            {
                fn_tok = Some(k);
            }
            k += 1;
        }
        let Some(fn_tok) = fn_tok else { continue };
        cursor = fn_tok + 1;
        let (has_receiver, params) = parse_params(code, fn_tok, start);
        let (mut defs, mut rets) = collect_defs(code, start, end);
        normalize_spans(&mut defs, &mut rets);
        flows.push(FnFlow {
            item_idx,
            has_receiver,
            params,
            defs,
            rets,
        });
    }
    flows
}

/// Clamp partially overlapping spans so every pair nests or stays
/// disjoint. Well-formed code never crosses — block initializers nest and
/// `;` separates siblings — but half-written sources can make an `if let`
/// scrutinee (which stops at `{`) and a plain `let` rhs (which scans
/// through the brace group) claim crossing ranges, and the taint walk
/// relies on proper nesting. Truncating the later-starting span of a
/// crossing pair only ever shrinks ranges, so taint is dropped, never
/// invented.
fn normalize_spans(defs: &mut [Def], rets: &mut [(usize, usize)]) {
    let mut all: Vec<(usize, usize)> = defs
        .iter()
        .map(|d| d.rhs)
        .chain(rets.iter().copied())
        .collect();
    // Fixpoint: every truncation strictly lowers one span end while keeping
    // the span non-empty (the crossing condition has b0 < a1), so the sum
    // of ends strictly decreases and the loop terminates.
    loop {
        let mut changed = false;
        for i in 0..all.len() {
            for j in 0..all.len() {
                let (a0, a1) = all[i];
                let (b0, b1) = all[j];
                if a0 <= b0 && b0 < a1 && a1 < b1 {
                    all[j].1 = a1;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    for (d, s) in defs.iter_mut().zip(&all) {
        d.rhs = *s;
    }
    for (r, s) in rets.iter_mut().zip(all.iter().skip(defs.len())) {
        *r = *s;
    }
}

/// Walk a body span collecting `let` defs, reassignments, and return ranges.
fn collect_defs(code: &[Token], start: usize, end: usize) -> (Vec<Def>, Vec<(usize, usize)>) {
    let mut defs = Vec::new();
    let mut rets = Vec::new();
    let mut depth = 1i64;
    let mut tail_start = start + 1;
    let mut k = start + 1;
    while k < end {
        let t = &code[k];
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => depth -= 1,
            ";" if depth == 1 => tail_start = k + 1,
            "let" if t.kind == TokKind::Ident => {
                parse_let(code, k, end, &mut defs);
            }
            "return" if t.kind == TokKind::Ident => {
                let r = expr_range(code, k + 1, end, false);
                if r.0 < r.1 {
                    rets.push(r);
                }
            }
            _ => {
                // Plain or compound reassignment at statement start.
                let is_assign_op = code.get(k + 1).is_some_and(|n| {
                    n.kind == TokKind::Op
                        && matches!(
                            n.text.as_str(),
                            "=" | "+="
                                | "-="
                                | "*="
                                | "/="
                                | "%="
                                | "&="
                                | "|="
                                | "^="
                                | "<<="
                                | ">>="
                        )
                });
                let stmt_start =
                    k == start + 1 || matches!(text_at(code, k.wrapping_sub(1)), ";" | "{" | "}");
                if t.kind == TokKind::Ident && is_local_name(&t.text) && is_assign_op && stmt_start
                {
                    let rhs = expr_range(code, k + 2, end, false);
                    if rhs.0 < rhs.1 {
                        defs.push(Def {
                            name: t.text.clone(),
                            line: t.line,
                            rhs,
                        });
                    }
                }
            }
        }
        k += 1;
    }
    if tail_start < end {
        rets.push((tail_start, end));
    }
    (defs, rets)
}

/// Parse one `let` statement starting at the `let` token: collect the
/// pattern's binding names, then the `=`-to-terminator right-hand side.
fn parse_let(code: &[Token], let_tok: usize, end: usize, defs: &mut Vec<Def>) {
    let is_cond = let_tok > 0 && matches!(text_at(code, let_tok - 1), "if" | "while");
    let mut names: Vec<(String, u32)> = Vec::new();
    let mut depth = 0i64;
    let mut in_type = false;
    let mut j = let_tok + 1;
    let mut eq = None;
    while j < end.min(code.len()) && j - let_tok < 128 {
        let t = &code[j];
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    return;
                }
            }
            ":" if depth == 0 => in_type = true,
            "=" if depth == 0 && t.kind == TokKind::Op => {
                eq = Some(j);
                break;
            }
            ";" if depth == 0 => return, // `let x;` — no initializer
            _ => {
                if !in_type && t.kind == TokKind::Ident && is_local_name(&t.text) {
                    names.push((t.text.clone(), t.line));
                }
            }
        }
        j += 1;
    }
    let Some(eq) = eq else { return };
    let rhs = expr_range(code, eq + 1, end, is_cond);
    if rhs.0 >= rhs.1 {
        return;
    }
    for (name, line) in names {
        defs.push(Def { name, line, rhs });
    }
}

// ---------------------------------------------------------------------------
// Taint engine
// ---------------------------------------------------------------------------

/// Provenance of a tainted value: where it came from, and the chain of
/// variables / calls it flowed through (capped at [`MAX_CHAIN_HOPS`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Chain {
    origin: String,
    hops: Vec<String>,
}

impl Chain {
    fn new(origin: String) -> Self {
        Chain {
            origin,
            hops: Vec::new(),
        }
    }

    fn hop(&self, h: String) -> Self {
        let mut c = self.clone();
        if c.hops.last() != Some(&h) && c.hops.len() < MAX_CHAIN_HOPS {
            c.hops.push(h);
        }
        c
    }

    /// Render the full source → … chain for a finding message.
    pub fn describe(&self) -> String {
        if self.hops.is_empty() {
            self.origin.clone()
        } else {
            format!("{} -> {}", self.origin, self.hops.join(" -> "))
        }
    }
}

/// Which sink shapes a taint rule reports on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkSet {
    /// Bare `+`/`-`/`*`, slice indexing, and capacity allocation on
    /// tainted values (`untrusted-input-taint`).
    UntrustedLength,
    /// Replayed-state constructors and seed/wire/meter calls
    /// (`determinism-taint`).
    Determinism,
}

/// A taint rule: sources, sanitizers, and sinks. The spec is data so the
/// monotonicity property test can vary the source set.
#[derive(Debug, Clone)]
pub struct TaintSpec {
    /// The rule name findings are reported under.
    pub rule: &'static str,
    /// `(qualifier, name)` call patterns whose *result* is tainted; an
    /// empty qualifier matches the name in any call position.
    pub source_calls: Vec<(&'static str, &'static str)>,
    /// Reader-style methods whose `&mut` buffer argument becomes tainted.
    pub source_mut_args: Vec<&'static str>,
    /// Treat `<…ptr…> as usize` casts as sources.
    pub ptr_cast_source: bool,
    /// Treat `thread::current().id()` as a source.
    pub thread_id_source: bool,
    /// Calls that launder taint out of an expression (bounds-checking,
    /// checked/saturating arithmetic, fallible conversion).
    pub sanitizers: Vec<&'static str>,
    /// `(qualifier, name)` calls that launder like [`Self::sanitizers`] but
    /// whose bare name is too common to list there.
    pub sanitizer_calls: Vec<(&'static str, &'static str)>,
    /// The sink shapes to report.
    pub sinks: SinkSet,
}

/// The `untrusted-input-taint` rule: bytes from disk (and future socket
/// reads) are hostile; lengths derived from them must be checked before
/// arithmetic, indexing, or allocation.
pub fn untrusted_input_spec() -> TaintSpec {
    TaintSpec {
        rule: "untrusted-input-taint",
        source_calls: vec![("fs", "read"), ("fs", "read_to_string")],
        source_mut_args: vec![
            "peek",
            "read",
            "read_exact",
            "read_to_end",
            "read_to_string",
            "recv",
            "recv_from",
        ],
        ptr_cast_source: false,
        thread_id_source: false,
        sanitizers: vec![
            "checked_add",
            "checked_div",
            "checked_mul",
            "checked_rem",
            "checked_sub",
            "clamp",
            "count",
            "get",
            "len",
            "min",
            "position",
            "saturating_add",
            "saturating_mul",
            "saturating_sub",
            "try_from",
            "try_into",
        ],
        // Handing bytes to the byte layer: every read from a
        // `proto::bytes::Reader` is a checked prefix of what is left (the
        // `.get(…)` above, done once for every format), and what the
        // formats do with the lengths it yields is `codec-checked-arith`'s
        // beat and the hostile battery's (`tests/hostile_bytes.rs`).
        sanitizer_calls: vec![("Reader", "new")],
        sinks: SinkSet::UntrustedLength,
    }
}

/// The `determinism-taint` rule: wall-clock, parallelism, thread identity,
/// and address-derived values must never reach replayed state. There are no
/// sanitizers — nondeterminism cannot be laundered, only kept away from the
/// sinks (telemetry types are simply not sinks; that is the allowlist).
pub fn determinism_spec() -> TaintSpec {
    TaintSpec {
        rule: "determinism-taint",
        source_calls: vec![
            ("Instant", "now"),
            ("SystemTime", "now"),
            ("", "available_parallelism"),
            ("", "current_num_threads"),
        ],
        source_mut_args: vec![],
        ptr_cast_source: true,
        thread_id_source: true,
        sanitizers: vec![],
        sanitizer_calls: vec![],
        sinks: SinkSet::Determinism,
    }
}

/// Replayed-state type names whose construction is a determinism sink.
const DET_SINK_TYPES: [&str; 4] = ["Checkpoint", "CommMeter", "MethodState", "RunResult"];
/// Call names that write into replayed state, derive RNG streams, or charge
/// the communication meter.
const DET_SINK_CALLS: [&str; 8] = [
    "derive",
    "down",
    "down_wire",
    "encode",
    "from_bytes",
    "seed_from_u64",
    "up",
    "up_wire",
];
/// Tokens before `Type {` that mean "type position", not a struct literal.
const NOT_A_LITERAL: [&str; 11] = [
    "->", ":", "&", "<", "as", "dyn", "enum", "for", "impl", "struct", "trait",
];

/// Per-function taint state during the interprocedural fixpoint.
#[derive(Default, Clone)]
struct NodeTaint {
    vars: BTreeMap<String, Chain>,
    param_in: BTreeMap<usize, Chain>,
    ret: Option<Chain>,
}

/// Run one taint rule over the whole workspace and return its findings
/// (unsorted, not pragma-filtered — the caller applies suppression).
pub fn taint_findings(ws: &Workspace<'_>, spec: &TaintSpec) -> Vec<Finding> {
    let (files, nodes, file_flows) = (ws.files, &ws.nodes, &ws.flows);
    // node index -> flow, via (file_idx, item_idx).
    let mut flow_of: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut by_item: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for (fi, flows) in file_flows.iter().enumerate() {
        for (xi, fl) in flows.iter().enumerate() {
            by_item.insert((fi, fl.item_idx), xi);
        }
    }
    for (ni, node) in nodes.iter().enumerate() {
        flow_of[ni] = by_item.get(&(node.file_idx, node.item_idx)).copied();
    }

    let mut st: Vec<NodeTaint> = vec![NodeTaint::default(); nodes.len()];
    for _pass in 0..MAX_PASSES {
        let mut changed = false;
        let mut pending: Vec<(usize, usize, Chain)> = Vec::new();
        for ni in 0..nodes.len() {
            let Some(xi) = flow_of[ni] else { continue };
            let node = &nodes[ni];
            let fa = &files[node.file_idx];
            let flow = &file_flows[node.file_idx][xi];

            // Seed: tainted parameters and direct `&mut` buffer sources.
            let mut vars: BTreeMap<String, Chain> = BTreeMap::new();
            for p in &flow.params {
                if let Some(c) = st[ni].param_in.get(&p.position) {
                    vars.insert(p.name.clone(), c.hop(format!("`{}`", p.name)));
                }
            }
            if let Some((start, end)) = fa.items.get(node.item_idx).and_then(|it| it.body) {
                seed_mut_arg_sources(fa, start, end, spec, &mut vars);
            }

            // Intra-function fixpoint over the def list.
            for _round in 0..flow.defs.len() + 1 {
                let mut grew = false;
                for d in &flow.defs {
                    if vars.contains_key(&d.name) {
                        continue;
                    }
                    if let Some(c) = expr_taint(fa, d.rhs, &vars, spec, nodes, &st, ni) {
                        vars.insert(d.name.clone(), c.hop(format!("`{}`", d.name)));
                        grew = true;
                    }
                }
                if !grew {
                    break;
                }
            }

            // Return taint.
            let ret = flow
                .rets
                .iter()
                .find_map(|&r| expr_taint(fa, r, &vars, spec, nodes, &st, ni));
            if st[ni].ret.is_none() {
                if let Some(rc) = ret {
                    st[ni].ret = Some(rc);
                    changed = true;
                }
            }

            // Argument -> parameter propagation along resolved call sites.
            for site in &node.sites {
                let Some(cxi) = flow_of[site.callee] else {
                    continue;
                };
                let callee_flow = &file_flows[nodes[site.callee].file_idx][cxi];
                let offset = usize::from(site.method && callee_flow.has_receiver);
                for (pos, range) in arg_ranges(&fa.code, site.tok) {
                    let target = pos + offset;
                    if st[site.callee].param_in.contains_key(&target) {
                        continue;
                    }
                    if let Some(c) = expr_taint(fa, range, &vars, spec, nodes, &st, ni) {
                        pending.push((
                            site.callee,
                            target,
                            c.hop(format!("arg #{target} of `{}`", nodes[site.callee].display)),
                        ));
                    }
                }
            }

            st[ni].vars = vars;
        }
        for (callee, pos, chain) in pending {
            if let std::collections::btree_map::Entry::Vacant(e) = st[callee].param_in.entry(pos) {
                e.insert(chain);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Sink pass.
    let mut out = Vec::new();
    for (ni, node) in nodes.iter().enumerate() {
        if node.is_test || st[ni].vars.is_empty() {
            continue;
        }
        let fa = &files[node.file_idx];
        let Some(item) = fa.items.get(node.item_idx) else {
            continue;
        };
        let idxs = crate::callgraph::body_indices(item, &fa.items);
        match spec.sinks {
            SinkSet::UntrustedLength => {
                sink_untrusted(fa, &idxs, &st[ni].vars, spec, &mut out);
            }
            SinkSet::Determinism => {
                sink_determinism(fa, &idxs, &st[ni].vars, spec, &mut out);
            }
        }
    }
    out
}

/// Taint `&mut` buffer arguments of reader calls: `f.read_to_end(&mut buf)`
/// taints `buf` directly.
fn seed_mut_arg_sources(
    fa: &FileAnalysis,
    start: usize,
    end: usize,
    spec: &TaintSpec,
    vars: &mut BTreeMap<String, Chain>,
) {
    let code = &fa.code;
    for k in start + 1..end.min(code.len()) {
        let t = &code[k];
        if t.kind != TokKind::Ident
            || !spec.source_mut_args.contains(&t.text.as_str())
            || text_at(code, k.wrapping_sub(1)) != "."
            || text_at(code, k + 1) != "("
        {
            continue;
        }
        // The argument group, cut at a 64-token window.
        for j in k + 2..group_end(code, k + 1).min(k + 64) {
            if text_at(code, j) != "&" || text_at(code, j + 1) != "mut" {
                continue;
            }
            if let Some(arg) = code.get(j + 2).filter(|a| {
                a.kind == TokKind::Ident && is_local_name(&a.text) && text_at(code, j + 3) != "."
            }) {
                vars.entry(arg.text.clone()).or_insert_with(|| {
                    Chain::new(format!(
                        "`{}(&mut {})` at {}:{}",
                        t.text, arg.text, fa.rel_path, t.line
                    ))
                    .hop(format!("`{}`", arg.text))
                });
            }
        }
    }
}

/// Split the argument list of the call whose name token is at `name_tok`
/// into `(position, token range)` pairs; only commas outside nested groups
/// split.
fn arg_ranges(code: &[Token], name_tok: usize) -> Vec<(usize, (usize, usize))> {
    let open = name_tok + 1;
    if text_at(code, open) != "(" {
        return Vec::new();
    }
    let close = group_end(code, open);
    let mut out = Vec::new();
    let mut pos = 0usize;
    let mut seg_start = open + 1;
    let mut k = open + 1;
    while k < close {
        match text_at(code, k) {
            "(" | "[" | "{" => k = group_end(code, k),
            "," => {
                if seg_start < k {
                    out.push((pos, (seg_start, k)));
                }
                pos += 1;
                seg_start = k + 1;
            }
            _ => {}
        }
        k += 1;
    }
    if seg_start < close {
        out.push((pos, (seg_start, close)));
    }
    out
}

/// Is the ident at `k` a *use* of a local (not a field, method, path
/// segment, or struct-literal field name)?
fn is_local_use(code: &[Token], k: usize) -> bool {
    let prev = if k == 0 { "" } else { text_at(code, k - 1) };
    let next = text_at(code, k + 1);
    prev != "." && prev != "::" && next != ":" && next != "::" && next != "!"
}

/// Does `[a, b)` contain a sanitizer call? One is enough to launder the
/// whole expression.
fn launders(code: &[Token], a: usize, b: usize, spec: &TaintSpec) -> bool {
    (a..b).any(|k| {
        let t = &code[k];
        let qualified = |(qual, name): &(&str, &str)| {
            t.text == *name
                && k >= 2
                && text_at(code, k - 1) == "::"
                && text_at(code, k - 2) == *qual
        };
        t.kind == TokKind::Ident
            && text_at(code, k + 1) == "("
            && (spec.sanitizers.contains(&t.text.as_str())
                || spec.sanitizer_calls.iter().any(qualified))
    })
}

/// Evaluate the taint of an expression range: `Some(chain)` if it contains
/// a tainted local use, a source call, or a call whose return is tainted —
/// unless a sanitizer call in the range launders the whole expression.
fn expr_taint(
    fa: &FileAnalysis,
    range: (usize, usize),
    vars: &BTreeMap<String, Chain>,
    spec: &TaintSpec,
    nodes: &[crate::callgraph::FnNode],
    st: &[NodeTaint],
    me: usize,
) -> Option<Chain> {
    let code = &fa.code;
    let (a, b) = (range.0, range.1.min(code.len()));
    if a >= b {
        return None;
    }
    if launders(code, a, b, spec) {
        return None;
    }
    let mut best: Option<(usize, Chain)> = None;
    let consider = |k: usize, c: Chain, best: &mut Option<(usize, Chain)>| {
        if best.as_ref().is_none_or(|(bk, _)| k < *bk) {
            *best = Some((k, c));
        }
    };
    for k in a..b {
        let t = &code[k];
        if t.kind != TokKind::Ident {
            continue;
        }
        if let Some(c) = vars.get(&t.text) {
            if is_local_use(code, k) {
                consider(k, c.clone(), &mut best);
            }
        }
        if text_at(code, k + 1) == "(" {
            if let Some(origin) = source_call_origin(fa, k, spec) {
                consider(k, Chain::new(origin), &mut best);
            }
        }
        if spec.ptr_cast_source && t.text == "as" && text_at(code, k + 1) == "usize" {
            let window = code[k.saturating_sub(5)..k].iter();
            if window
                .filter(|w| w.kind == TokKind::Ident)
                .any(|w| w.text.contains("ptr"))
            {
                consider(
                    k,
                    Chain::new(format!(
                        "pointer-to-usize cast at {}:{}",
                        fa.rel_path, t.line
                    )),
                    &mut best,
                );
            }
        }
    }
    for site in &nodes[me].sites {
        if site.tok < a || site.tok >= b {
            continue;
        }
        if let Some(rc) = &st[site.callee].ret {
            consider(
                site.tok,
                rc.hop(format!("`{}()`", nodes[site.callee].display)),
                &mut best,
            );
        }
    }
    best.map(|(_, c)| c)
}

/// Does the call at token `k` match one of the spec's source patterns?
fn source_call_origin(fa: &FileAnalysis, k: usize, spec: &TaintSpec) -> Option<String> {
    let code = &fa.code;
    let t = &code[k];
    let prev = if k == 0 { "" } else { text_at(code, k - 1) };
    for (qual, name) in &spec.source_calls {
        if t.text != *name {
            continue;
        }
        if qual.is_empty() {
            return Some(format!("`{}()` at {}:{}", name, fa.rel_path, t.line));
        }
        if prev == "::" && k >= 2 && text_at(code, k - 2) == *qual {
            return Some(format!(
                "`{}::{}()` at {}:{}",
                qual, name, fa.rel_path, t.line
            ));
        }
    }
    if spec.thread_id_source && t.text == "id" && prev == "." {
        let window = code[k.saturating_sub(8)..k].iter();
        if window
            .filter(|w| w.kind == TokKind::Ident)
            .any(|w| w.text == "current" || w.text == "Thread")
        {
            return Some(format!(
                "`thread::current().id()` at {}:{}",
                fa.rel_path, t.line
            ));
        }
    }
    None
}

/// First tainted local use inside the group opened at `open`, honoring the
/// sanitizer launder.
fn group_taint<'a>(
    code: &[Token],
    open: usize,
    vars: &'a BTreeMap<String, Chain>,
    spec: &TaintSpec,
) -> Option<(&'a str, &'a Chain)> {
    let (a, b) = (open + 1, group_end(code, open).min(code.len()));
    if launders(code, a, b, spec) {
        return None;
    }
    for k in a..b {
        let t = &code[k];
        if t.kind != TokKind::Ident || !is_local_use(code, k) {
            continue;
        }
        if let Some((name, c)) = vars.get_key_value(&t.text) {
            return Some((name.as_str(), c));
        }
    }
    None
}

/// `untrusted-input-taint` sinks: bare arithmetic, indexing, and capacity
/// allocation on tainted values.
fn sink_untrusted(
    fa: &FileAnalysis,
    idxs: &[usize],
    vars: &BTreeMap<String, Chain>,
    spec: &TaintSpec,
    out: &mut Vec<Finding>,
) {
    let code = &fa.code;
    let finding = |line, message| Finding {
        file: fa.rel_path.clone(),
        line,
        rule: spec.rule,
        message,
    };
    for &k in idxs {
        let Some(t) = code.get(k) else { continue };
        if t.kind == TokKind::Op && matches!(t.text.as_str(), "+" | "-" | "*") {
            let binary = k.checked_sub(1).and_then(|p| code.get(p)).is_some_and(|p| {
                matches!(p.kind, TokKind::Ident | TokKind::Int | TokKind::Float)
                    || p.text == ")"
                    || p.text == "]"
            });
            if !binary {
                continue;
            }
            let operand = [k.wrapping_sub(1), k + 1]
                .into_iter()
                .filter_map(|i| code.get(i).map(|w| (i, w)))
                .find(|(i, w)| {
                    w.kind == TokKind::Ident && vars.contains_key(&w.text) && is_local_use(code, *i)
                });
            if let Some((_, w)) = operand {
                out.push(finding(
                    t.line,
                    format!(
                        "unchecked `{}` on tainted value `{}` (tainted by {}); route \
                         input-derived lengths through checked_*/saturating_* arithmetic",
                        t.text,
                        w.text,
                        vars[&w.text].describe()
                    ),
                ));
            }
        } else if t.kind == TokKind::Ident && text_at(code, k + 1) == "[" {
            if let Some((name, chain)) = group_taint(code, k + 1, vars, spec) {
                out.push(finding(
                    t.line,
                    format!(
                        "slice index derived from tainted value `{}` (tainted by {}); use \
                         `.get(…)` and propagate a decode error instead of panicking",
                        name,
                        chain.describe()
                    ),
                ));
            }
        } else if t.kind == TokKind::Ident
            && t.text == "with_capacity"
            && text_at(code, k + 1) == "("
        {
            if let Some((name, chain)) = group_taint(code, k + 1, vars, spec) {
                out.push(finding(
                    t.line,
                    format!(
                        "`with_capacity` sized by tainted value `{}` (tainted by {}); clamp or \
                         validate the length before allocating for hostile input",
                        name,
                        chain.describe()
                    ),
                ));
            }
        } else if t.kind == TokKind::Ident
            && t.text == "vec"
            && text_at(code, k + 1) == "!"
            && text_at(code, k + 2) == "["
        {
            let close = group_end(code, k + 2);
            // Only `vec![elem; n]` allocates by a length expression.
            let has_semi = (k + 3..close).any(|j| text_at(code, j) == ";");
            if !has_semi {
                continue;
            }
            if let Some((name, chain)) = group_taint(code, k + 2, vars, spec) {
                out.push(finding(
                    t.line,
                    format!(
                        "`vec![…; n]` sized by tainted value `{}` (tainted by {}); clamp or \
                         validate the length before allocating for hostile input",
                        name,
                        chain.describe()
                    ),
                ));
            }
        }
    }
}

/// `determinism-taint` sinks: replayed-state constructors and the seed /
/// wire / meter calls.
fn sink_determinism(
    fa: &FileAnalysis,
    idxs: &[usize],
    vars: &BTreeMap<String, Chain>,
    spec: &TaintSpec,
    out: &mut Vec<Finding>,
) {
    let code = &fa.code;
    let push = |line: u32, sink: &str, name: &str, chain: &Chain, out: &mut Vec<Finding>| {
        out.push(Finding {
            file: fa.rel_path.clone(),
            line,
            rule: spec.rule,
            message: format!(
                "nondeterministic value `{}` flows into `{}` (tainted by {}); replayed state \
                 must derive only from (seed, round, client) — keep wall-clock, parallelism, \
                 and address-derived values in telemetry",
                name,
                sink,
                chain.describe()
            ),
        });
    };
    for &k in idxs {
        let Some(t) = code.get(k) else { continue };
        if t.kind != TokKind::Ident {
            continue;
        }
        let prev = if k == 0 { "" } else { text_at(code, k - 1) };
        let next = text_at(code, k + 1);
        if DET_SINK_TYPES.contains(&t.text.as_str()) {
            // `RunResult { … }` / `CommMeter(…)` construction…
            let group_open = if next == "(" || (next == "{" && !NOT_A_LITERAL.contains(&prev)) {
                Some(k + 1)
            } else if next == "::"
                && code.get(k + 2).is_some_and(|n| n.kind == TokKind::Ident)
                && matches!(text_at(code, k + 3), "(" | "{")
            {
                // …or `MethodState::Variant(…)`.
                Some(k + 3)
            } else {
                None
            };
            if let Some(open) = group_open {
                if let Some((name, chain)) = group_taint(code, open, vars, spec) {
                    push(t.line, &t.text, name, chain, out);
                }
            }
        } else if DET_SINK_CALLS.contains(&t.text.as_str()) && next == "(" {
            // Skip `#[derive(…)]` attributes.
            if k >= 2 && prev == "[" && text_at(code, k - 2) == "#" {
                continue;
            }
            if let Some((name, chain)) = group_taint(code, k + 1, vars, spec) {
                push(t.line, &t.text, name, chain, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{code_stream, lex};

    fn flows_of(src: &str) -> (Vec<Token>, Vec<FnFlow>) {
        let code = code_stream(&lex(src));
        let in_test = vec![false; src.lines().count() + 3];
        let items = crate::items::parse_items(&code, &in_test);
        let flows = fn_flows(&code, &items);
        (code, flows)
    }

    #[test]
    fn params_defs_and_rets_are_recovered() {
        let (_, flows) = flows_of(
            "fn f(a: usize, b: &[u8]) -> usize {\n    let c = a + 1;\n    let mut d = c;\n    d = b.len();\n    return d;\n}\n",
        );
        assert_eq!(flows.len(), 1);
        let f = &flows[0];
        assert!(!f.has_receiver);
        assert_eq!(
            f.params,
            vec![
                Param {
                    name: "a".into(),
                    position: 0
                },
                Param {
                    name: "b".into(),
                    position: 1
                }
            ]
        );
        let names: Vec<&str> = f.defs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["c", "d", "d"]);
        assert_eq!(
            f.rets.len(),
            1,
            "one explicit return; a body ending in `return x;` has no tail expression"
        );
    }

    #[test]
    fn receiver_and_generics_are_handled() {
        let (_, flows) =
            flows_of("impl T { fn m<X: Into<u32>>(&mut self, n: X) -> u32 { n.into() } }\n");
        assert_eq!(flows.len(), 1);
        assert!(flows[0].has_receiver);
        assert_eq!(
            flows[0].params,
            vec![Param {
                name: "n".into(),
                position: 1
            }]
        );
    }

    #[test]
    fn nested_let_defs_are_seen() {
        let (_, flows) = flows_of("fn f(x: u32) -> u32 { let a = { let b = x; b }; a }\n");
        let names: Vec<&str> = flows[0].defs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn def_spans_nest_or_are_disjoint() {
        let (_, flows) =
            flows_of("fn f(x: u32) -> u32 { let a = { let b = x + 1; b }; let c = a; c }\n");
        let spans: Vec<(usize, usize)> = flows[0].defs.iter().map(|d| d.rhs).collect();
        for (i, &(a0, a1)) in spans.iter().enumerate() {
            assert!(a0 <= a1);
            for &(b0, b1) in spans.iter().skip(i + 1) {
                let nested = (a0 <= b0 && b1 <= a1) || (b0 <= a0 && a1 <= b1);
                let disjoint = a1 <= b0 || b1 <= a0;
                assert!(
                    nested || disjoint,
                    "overlap: {:?} vs {:?}",
                    (a0, a1),
                    (b0, b1)
                );
            }
        }
    }
}
