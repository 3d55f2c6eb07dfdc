//! The approximate intra-workspace call graph, the workspace pass that runs
//! on it ([`global_findings`]), and the rule that lives here:
//! `rng-stream-collision`.
//!
//! Call resolution is identifier-based and deliberately conservative —
//! anything ambiguous is *ignored* rather than guessed, so the graph
//! under-approximates real calls and the rules under-report rather than
//! spray false positives. Three call shapes resolve:
//!
//! * `self.method(…)` — to a method of the enclosing `impl` type in the
//!   same crate (other receivers are invisible to a typeless analysis);
//! * `path::to::f(…)` / `Type::f(…)` — when the path's qualifier segments
//!   are a suffix of exactly one candidate's full path
//!   `[crate, file modules…, inline modules…, impl type]`, with
//!   `fedclust_<crate>` and `crate`/`self`/`super`/`Self` prefixes
//!   normalized away;
//! * bare `f(…)` — to a unique free function: first in the same
//!   file + module, then unique in the crate, then unique in the workspace.
//!
//! Determinism: nodes are numbered in (sorted file, declaration order) and
//! each node's call sites are kept in token order, so repeated runs walk
//! the graph identically and produce byte-identical findings.

use crate::dataflow::{fn_flows, FnFlow};
use crate::items::{Item, ItemKind};
use crate::lexer::{text_at, TokKind, Token};
use crate::rules::{FileAnalysis, Pass, RULES};
use crate::{Finding, Timings};
use std::collections::BTreeMap;

/// Crates where RNG stream consumption is scope-checked.
const RNG_SCOPE_CRATES: [&str; 2] = ["core", "fl"];

/// Identifiers never treated as a bare call even when followed by `(`:
/// keywords and the ubiquitous enum constructors.
const NON_CALLS: [&str; 28] = [
    "Err", "None", "Ok", "Self", "Some", "as", "async", "await", "box", "break", "const",
    "continue", "dyn", "else", "fn", "for", "if", "in", "let", "loop", "match", "move", "mut",
    "ref", "return", "static", "where", "while",
];

/// One resolved call site inside a body: the callee node and the token
/// index of the call's name (so the taint engine can read its arguments).
pub(crate) struct CallSite {
    /// Token index of the callee name in the caller's file.
    pub(crate) tok: usize,
    /// Callee node index.
    pub(crate) callee: usize,
    /// `self.method(…)` form — arguments shift past the receiver.
    pub(crate) method: bool,
}

/// One function in the workspace graph.
pub(crate) struct FnNode {
    pub(crate) file_idx: usize,
    /// Index of the backing item in its file's `items` vec.
    pub(crate) item_idx: usize,
    /// `[crate, file modules…, inline modules…, impl type?]`.
    path: Vec<String>,
    name: String,
    pub(crate) display: String,
    crate_name: String,
    module: Vec<String>,
    impl_type: Option<String>,
    pub(crate) is_test: bool,
    /// Resolved call sites in token order (unsorted, may repeat callees).
    pub(crate) sites: Vec<CallSite>,
}

/// What a workspace rule sees, each table built once per scan: every
/// file's analysis, the call graph over them and every file's def-use
/// ([`fn_flows`]).
pub struct Workspace<'a> {
    pub(crate) files: &'a [FileAnalysis],
    pub(crate) nodes: Vec<FnNode>,
    /// Per file, the def-use of each `fn` body.
    pub(crate) flows: Vec<Vec<FnFlow>>,
}

impl<'a> Workspace<'a> {
    /// Build the workspace tables over `files`, timing each stage.
    pub fn new(files: &'a [FileAnalysis], timings: &mut Timings) -> Self {
        let (nodes, flows) = timings.time("infra:callgraph", || {
            let flows = files.iter().map(|fa| fn_flows(&fa.code, &fa.items));
            (build_graph(files), flows.collect())
        });
        Workspace {
            files,
            nodes,
            flows,
        }
    }
}

/// Run every workspace rule of [`RULES`] over the per-file analyses.
/// Findings are pragma-filtered here (the driver cannot: it no longer sees
/// the pragmas) and returned unsorted.
pub fn global_findings(files: &[FileAnalysis], timings: &mut Timings) -> Vec<Finding> {
    let ws = Workspace::new(files, timings);
    let mut out = Vec::new();
    for rule in &RULES {
        if let Pass::Workspace(run) = rule.pass {
            timings.time(rule.name, || run(&ws, &mut out));
        }
    }
    out.retain(|f| {
        files
            .iter()
            .find(|fa| fa.rel_path == f.file)
            .is_none_or(|fa| !fa.suppressed(f.rule, f.line))
    });
    out
}

/// The in-file module path implied by a file's location under `src/`:
/// `crates/fl/src/methods/ifca.rs` → `["methods", "ifca"]`.
fn file_mods(rel: &str) -> Vec<String> {
    let Some(pos) = rel.find("/src/") else {
        return Vec::new();
    };
    let tail = rel.get(pos + 5..).unwrap_or("");
    let tail = tail.strip_suffix(".rs").unwrap_or(tail);
    let mut parts: Vec<String> = tail
        .split('/')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if parts
        .last()
        .is_some_and(|s| s == "mod" || s == "lib" || s == "main")
    {
        parts.pop();
    }
    parts
}

/// Path-segment equality with the crate-import alias: callers write
/// `fedclust_tensor::…` for the crate directory `tensor`.
fn seg_eq(call_seg: &str, cand_seg: &str) -> bool {
    call_seg == cand_seg || call_seg.strip_prefix("fedclust_") == Some(cand_seg)
}

/// Iterate the token indices of `item`'s body, skipping the bodies of other
/// `fn` items nested inside it.
pub(crate) fn body_indices(item: &Item, all_items: &[Item]) -> Vec<usize> {
    let Some((start, end)) = item.body else {
        return Vec::new();
    };
    let mut skips: Vec<(usize, usize)> = all_items
        .iter()
        .filter(|o| o.kind == ItemKind::Fn)
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

fn build_graph(files: &[FileAnalysis]) -> Vec<FnNode> {
    let mut nodes: Vec<FnNode> = Vec::new();
    // (file_idx, item_idx) -> node idx, and name -> node idxs for resolution.
    let mut node_of: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();

    for (fi, fa) in files.iter().enumerate() {
        let mods = file_mods(&fa.rel_path);
        for (ii, item) in fa.items.iter().enumerate() {
            if item.kind != ItemKind::Fn {
                continue;
            }
            let mut path = vec![fa.crate_name.clone()];
            path.extend(mods.iter().cloned());
            path.extend(item.module.iter().cloned());
            if let Some(t) = &item.impl_type {
                path.push(t.clone());
            }
            let idx = nodes.len();
            node_of.insert((fi, ii), idx);
            nodes.push(FnNode {
                file_idx: fi,
                item_idx: ii,
                path,
                name: item.name.clone(),
                display: item.display_name(),
                crate_name: fa.crate_name.clone(),
                module: item.module.clone(),
                impl_type: item.impl_type.clone(),
                is_test: item.is_test,
                sites: Vec::new(),
            });
        }
    }
    for (idx, node) in nodes.iter().enumerate() {
        by_name.entry(&node.name).or_default().push(idx);
    }
    let by_name: BTreeMap<String, Vec<usize>> = by_name
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();

    // Second pass: extract the call sites from each body.
    let mut edges: Vec<(usize, Vec<CallSite>)> = Vec::new();
    for (fi, fa) in files.iter().enumerate() {
        for (ii, item) in fa.items.iter().enumerate() {
            let Some(&me) = node_of.get(&(fi, ii)) else {
                continue;
            };
            edges.push((me, scan_body(fa, item, &nodes, &by_name, me)));
        }
    }
    for (me, sites) in edges {
        nodes[me].sites = sites;
    }
    nodes
}

/// Extract the resolved call sites from one body.
fn scan_body(
    fa: &FileAnalysis,
    item: &Item,
    nodes: &[FnNode],
    by_name: &BTreeMap<String, Vec<usize>>,
    me: usize,
) -> Vec<CallSite> {
    let code = &fa.code;
    let mut sites: Vec<CallSite> = Vec::new();
    for k in body_indices(item, &fa.items) {
        let Some(t) = code.get(k).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        if text_at(code, k + 1) != "(" {
            continue;
        }
        match text_at(code, k.wrapping_sub(1)) {
            "." => {
                if k >= 2 && text_at(code, k - 2) == "self" {
                    // `self.method(…)`: resolve within the enclosing impl.
                    if let Some(impl_type) = &item.impl_type {
                        if let Some(cands) = by_name.get(&t.text) {
                            let hits: Vec<usize> = cands
                                .iter()
                                .copied()
                                .filter(|&c| {
                                    nodes[c].impl_type.as_deref() == Some(impl_type.as_str())
                                        && nodes[c].crate_name == nodes[me].crate_name
                                })
                                .collect();
                            let resolved = match hits.as_slice() {
                                [one] => Some(*one),
                                many => {
                                    let same_file: Vec<usize> = many
                                        .iter()
                                        .copied()
                                        .filter(|&c| nodes[c].file_idx == nodes[me].file_idx)
                                        .collect();
                                    match same_file.as_slice() {
                                        [one] => Some(*one),
                                        _ => None,
                                    }
                                }
                            };
                            if let Some(callee) = resolved {
                                sites.push(CallSite {
                                    tok: k,
                                    callee,
                                    method: true,
                                });
                            }
                        }
                    }
                }
            }
            "::" => {
                // Collect the qualifier segments leading into this call.
                let mut segs: Vec<String> = vec![t.text.clone()];
                let mut j = k;
                while j >= 2
                    && text_at(code, j - 1) == "::"
                    && code.get(j - 2).is_some_and(|p| p.kind == TokKind::Ident)
                {
                    segs.insert(0, text_at(code, j - 2).to_string());
                    j -= 2;
                }
                if let Some(callee) = resolve_path(&segs, item, nodes, by_name, me) {
                    sites.push(CallSite {
                        tok: k,
                        callee,
                        method: false,
                    });
                }
            }
            "fn" => {}
            _ => {
                if NON_CALLS.contains(&t.text.as_str()) {
                    continue;
                }
                if let Some(callee) = resolve_bare(&t.text, nodes, by_name, me) {
                    sites.push(CallSite {
                        tok: k,
                        callee,
                        method: false,
                    });
                }
            }
        }
    }
    sites
}

/// Resolve `a::b::f(…)`: qualifier segments must suffix-match exactly one
/// candidate's full path.
fn resolve_path(
    segs: &[String],
    item: &Item,
    nodes: &[FnNode],
    by_name: &BTreeMap<String, Vec<usize>>,
    me: usize,
) -> Option<usize> {
    let (name, qual) = segs.split_last()?;
    // Normalize: drop leading `crate`/`self`/`super`, map `Self` to the
    // enclosing impl type.
    let mut prefix: Vec<String> = qual.to_vec();
    while prefix
        .first()
        .is_some_and(|s| s == "crate" || s == "self" || s == "super")
    {
        prefix.remove(0);
    }
    for s in prefix.iter_mut() {
        if s == "Self" {
            if let Some(t) = &item.impl_type {
                *s = t.clone();
            }
        }
    }
    if prefix.is_empty() {
        return resolve_bare(name, nodes, by_name, me);
    }
    let cands = by_name.get(name)?;
    let hits: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| {
            let cp = &nodes[c].path;
            prefix.len() <= cp.len()
                && prefix
                    .iter()
                    .zip(cp.iter().skip(cp.len() - prefix.len()))
                    .all(|(p, s)| seg_eq(p, s))
        })
        .collect();
    match hits.as_slice() {
        [one] => Some(*one),
        many => {
            let same_file: Vec<usize> = many
                .iter()
                .copied()
                .filter(|&c| nodes[c].file_idx == nodes[me].file_idx)
                .collect();
            match same_file.as_slice() {
                [one] => Some(*one),
                _ => None,
            }
        }
    }
}

/// Resolve a bare `f(…)` to a unique free function, same module first.
fn resolve_bare(
    name: &str,
    nodes: &[FnNode],
    by_name: &BTreeMap<String, Vec<usize>>,
    me: usize,
) -> Option<usize> {
    let cands = by_name.get(name)?;
    let free: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| nodes[c].impl_type.is_none())
        .collect();
    let local: Vec<usize> = free
        .iter()
        .copied()
        .filter(|&c| nodes[c].file_idx == nodes[me].file_idx && nodes[c].module == nodes[me].module)
        .collect();
    if let [one] = local.as_slice() {
        return Some(*one);
    }
    if !local.is_empty() {
        return None;
    }
    let in_crate: Vec<usize> = free
        .iter()
        .copied()
        .filter(|&c| nodes[c].crate_name == nodes[me].crate_name)
        .collect();
    if let [one] = in_crate.as_slice() {
        return Some(*one);
    }
    if !in_crate.is_empty() {
        return None;
    }
    match free.as_slice() {
        [one] => Some(*one),
        _ => None,
    }
}

/// `rng-stream-collision`: both halves, (a) and (b) below.
pub(crate) fn rng_stream_collision(ws: &Workspace<'_>, out: &mut Vec<Finding>) {
    stream_collisions(ws.files, out);
    duplicate_derives(ws.files, out);
}

/// `rng-stream-collision` (a): two distinct `streams::` constants sharing a
/// value anywhere in the workspace.
fn stream_collisions(files: &[FileAnalysis], out: &mut Vec<Finding>) {
    struct ConstDef {
        file: String,
        line: u32,
        name: String,
    }
    let mut by_value: BTreeMap<u128, Vec<ConstDef>> = BTreeMap::new();
    for fa in files {
        for item in &fa.items {
            if item.kind != ItemKind::Mod || item.name != "streams" {
                continue;
            }
            let idxs = body_indices(item, &fa.items);
            let mut p = 0usize;
            while p < idxs.len() {
                let k = idxs[p];
                if text_at(&fa.code, k) != "const" {
                    p += 1;
                    continue;
                }
                let Some(name_tok) = fa.code.get(k + 1).filter(|t| t.kind == TokKind::Ident) else {
                    p += 1;
                    continue;
                };
                // Scan `NAME : type = <int> ;` for the value.
                let mut q = p + 2;
                let mut value = None;
                while q < idxs.len() {
                    let j = idxs[q];
                    match text_at(&fa.code, j) {
                        ";" => break,
                        "=" => {
                            let after = idxs.get(q + 1).copied().unwrap_or(j);
                            if let Some(v) = fa.code.get(after).filter(|t| t.kind == TokKind::Int) {
                                value = parse_int(&v.text);
                            }
                            break;
                        }
                        _ => q += 1,
                    }
                }
                if let Some(v) = value {
                    by_value.entry(v).or_default().push(ConstDef {
                        file: fa.rel_path.clone(),
                        line: name_tok.line,
                        name: name_tok.text.clone(),
                    });
                }
                p += 1;
            }
        }
    }
    for (value, defs) in &by_value {
        let Some((first, rest)) = defs.split_first() else {
            continue;
        };
        for d in rest {
            out.push(Finding {
                file: d.file.clone(),
                line: d.line,
                rule: "rng-stream-collision",
                message: format!(
                    "`streams::{}` has value {}, colliding with `streams::{}` ({}:{}); stream \
                     labels must be unique or derived RNG streams overlap",
                    d.name, value, first.name, first.file, first.line
                ),
            });
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

/// `rng-stream-collision` (b): within one function in `fl`/`core` library
/// code, two `derive(…, &[…])` calls consuming a token-identical stream
/// slice — the same logical stream in the same `(round, client)` scope.
fn duplicate_derives(files: &[FileAnalysis], out: &mut Vec<Finding>) {
    for fa in files {
        if fa.is_bin || !RNG_SCOPE_CRATES.contains(&fa.crate_name.as_str()) {
            continue;
        }
        for item in &fa.items {
            if item.kind != ItemKind::Fn || item.is_test {
                continue;
            }
            let mut seen: BTreeMap<String, u32> = BTreeMap::new();
            let idxs = body_indices(item, &fa.items);
            for (p, &k) in idxs.iter().enumerate() {
                let Some(t) = fa.code.get(k) else {
                    continue;
                };
                if t.kind != TokKind::Ident || t.text != "derive" || text_at(&fa.code, k + 1) != "("
                {
                    continue;
                }
                // `#[derive(…)]` attributes are not calls.
                if k >= 2 && text_at(&fa.code, k - 1) == "[" && text_at(&fa.code, k - 2) == "#" {
                    continue;
                }
                let Some(sig) = derive_signature(&fa.code, &idxs[p..]) else {
                    continue;
                };
                match seen.get(&sig) {
                    Some(&first) => out.push(Finding {
                        file: fa.rel_path.clone(),
                        line: t.line,
                        rule: "rng-stream-collision",
                        message: format!(
                            "`derive` re-consumes stream `[{}]` first consumed at line {} in \
                             `{}`; one logical stream per (round, client) scope — derive a \
                             distinct stream or pragma with justification",
                            sig,
                            first,
                            item.display_name()
                        ),
                    }),
                    None => {
                        seen.insert(sig, t.line);
                    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_mods_shapes() {
        assert!(file_mods("crates/fl/src/lib.rs").is_empty());
        assert_eq!(file_mods("crates/fl/src/engine.rs"), vec!["engine"]);
        assert_eq!(
            file_mods("crates/fl/src/methods/ifca.rs"),
            vec!["methods", "ifca"]
        );
        assert_eq!(file_mods("crates/fl/src/methods/mod.rs"), vec!["methods"]);
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

    #[test]
    fn seg_eq_accepts_crate_alias() {
        assert!(seg_eq("tensor", "tensor"));
        assert!(seg_eq("fedclust_tensor", "tensor"));
        assert!(!seg_eq("fedclust_tensor", "nn"));
    }
}
