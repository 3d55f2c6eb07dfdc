//! Interprocedural concurrency analysis — the lock-set engine and the three
//! rules built on it (DESIGN.md §8):
//!
//! * `lock-order-global` — a workspace-global, interprocedural lock
//!   acquisition-order graph. Every edge that participates in a cycle is
//!   reported with the full acquisition chain
//!   (`lock A at file:line -> call f at file:line -> lock B at file:line`),
//!   and re-acquiring a held lock (directly or through a call chain) is a
//!   self-deadlock finding.
//! * `guard-across-blocking` — no `Mutex`/`RwLock` guard may be live across
//!   a blocking operation: socket read/write/accept, channel recv,
//!   `thread::sleep`/`park`, a parallel map's fork-join (`run_indexed`,
//!   `thread::scope`), or a `Condvar` wait — except the wait's *own* guard,
//!   which the condvar releases atomically.
//! * `atomic-ordering-pairing` — a `Release`/`AcqRel` store side on an
//!   atomic field must have a matching `Acquire`/`AcqRel`/`SeqCst` load
//!   side on the same field at some *other* non-test site in the
//!   workspace, and vice versa. `SeqCst` is exempt from demanding a
//!   partner but satisfies either side; `Relaxed` stays under
//!   `pool-discipline`'s justification-pragma regime.
//!
//! # The lock-set model
//!
//! The engine is flow-*insensitive* across functions and statement-ordered
//! within them, built from the same comment-free token stream as
//! [`crate::dataflow`]:
//!
//! * **Lock identity.** A lock is named by its declaration site. The
//!   declaration scan matches `name: Mutex<…>` / `name: RwLock<…>` (struct
//!   fields, statics, and type-ascribed `let`s; `std::sync::`-style path
//!   prefixes allowed, `&`-reference parameters deliberately excluded). A
//!   name declared exactly once is one workspace-global lock wherever it
//!   is acquired; a name declared in two places is *ambiguous* and its
//!   acquisitions are dropped; an undeclared name is a file-scoped lock.
//!   Conflation and dropping both under-report — see the contract below.
//! * **Guard lifetime.** Within a body the walk tracks brace depth:
//!   a `let`-bound guard dies at its scope's `}`, at `drop(var)`, or when
//!   its variable is rebound by a fresh `let`; an unbound (temporary)
//!   guard dies at the next `;` at or below its depth — so a
//!   `match`/`if let` scrutinee temporary correctly lives through the arm
//!   body. Reassignment without `let` (`guard = cv.wait(guard)…`) keeps
//!   the guard, matching condvar usage.
//! * **Acquisitions.** `.lock()` (method form), free-fn `lock(&x)` (a
//!   helper that takes a mutex, say shrugging off poison — the *argument*
//!   names the lock), and `.read()`/`.write()` only on receivers declared
//!   exactly once as `RwLock` (anything else is file/socket I/O).
//! * **Interprocedural propagation.** Per function, the walk records the
//!   held-lock set at every resolved call site ([`crate::callgraph`]
//!   edges). A fixpoint then propagates two summaries up the graph:
//!   *may-acquire* (which locks a call into `f` can take, with a
//!   provenance chain) and *may-block* (can a call into `f` reach a
//!   blocking op, with a chain). Holding `G` at a call site whose callee
//!   may-acquire `L` yields the order edge `G -> L`; whose callee
//!   may-block yields a `guard-across-blocking` finding at the call site.
//!
//! # Under-approximation contract
//!
//! Like the call graph and the taint engine, ambiguity always *drops*
//! facts rather than inventing them: unresolved calls propagate nothing,
//! ambiguously-declared locks are untracked, `.read()`/`.write()` on
//! unknown receivers are ignored, and atomic sites pair by bare field
//! name (two same-named fields in different structs can satisfy each
//! other). The rules therefore under-report and never cry wolf; the
//! fixture suite pins what they *do* catch.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{body_indices, FnNode, Workspace};
use crate::dataflow::{
    find_path, last_ident_in_group, let_bound_var, receiver_name, ATOMIC_METHODS,
};
use crate::items::{Item, ItemKind};
use crate::lexer::{group_end, text_at, TokKind, Token};
use crate::rules::FileAnalysis;
use crate::Finding;

/// Fixpoint sweep cap; the call graph is shallow, so this is generous.
const MAX_PASSES: usize = 12;
/// Provenance chains longer than this stop propagating (cycle backstop).
const MAX_CHAIN: usize = 12;

/// Operations that block the calling thread. Matched as `name(`, `.name(`
/// or `::name(` when the call does not resolve to a workspace function
/// (resolved calls are analysed precisely through their bodies instead).
const BLOCKING_OPS: [&str; 15] = [
    "accept",
    "flush",
    "park",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "recv",
    "recv_timeout",
    "run_indexed",
    "scope",
    "sleep",
    "wait",
    "wait_timeout",
    "wait_while",
    "write_all",
];

/// The condvar-wait subset of [`BLOCKING_OPS`]: the first argument is the
/// guard the wait atomically releases, so that one guard is exempt.
const WAIT_OPS: [&str; 3] = ["wait", "wait_timeout", "wait_while"];

// ---------------------------------------------------------------------------
// Lock identity
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum LockKind {
    Mutex,
    RwLock,
}

/// Workspace lock-declaration table: who declares which lock name.
struct LockTable {
    /// Names declared exactly once: name → (declaring file index, kind).
    once: BTreeMap<String, (usize, LockKind)>,
    /// Names declared at two or more sites: acquisitions are dropped.
    ambiguous: BTreeSet<String>,
}

impl LockTable {
    /// The canonical id for acquiring `name` in file `fi`, or `None` when
    /// the name is ambiguously declared. Ids qualify the bare name with
    /// the declaring (or, for undeclared names, acquiring) file.
    fn id(&self, files: &[FileAnalysis], fi: usize, name: &str) -> Option<String> {
        if self.ambiguous.contains(name) {
            return None;
        }
        let decl_file = match self.once.get(name) {
            Some((dfi, _)) => &files[*dfi].rel_path,
            None => &files[fi].rel_path,
        };
        Some(format!("{decl_file}::{name}"))
    }

    /// Is `name` declared exactly once, as an `RwLock`?
    fn is_rwlock(&self, name: &str) -> bool {
        matches!(self.once.get(name), Some((_, LockKind::RwLock)))
    }
}

/// Token index ranges covered by `#[cfg(test)]` item bodies, so the
/// declaration and atomic scans skip test code.
fn test_token_ranges(items: &[Item]) -> Vec<(usize, usize)> {
    items
        .iter()
        .filter(|it| it.is_test)
        .filter_map(|it| it.body)
        .collect()
}

fn in_ranges(ranges: &[(usize, usize)], k: usize) -> bool {
    ranges.iter().any(|&(a, b)| a <= k && k < b)
}

/// Scan every file for `name: Mutex<…>` / `name: RwLock<…>` declarations
/// (fields, statics, type-ascribed lets; optional path prefix; reference
/// parameters excluded by the missing-`&` requirement).
fn scan_declared_locks(files: &[FileAnalysis]) -> LockTable {
    let mut decls: BTreeMap<String, Vec<(usize, LockKind)>> = BTreeMap::new();
    for (fi, fa) in files.iter().enumerate() {
        let code = &fa.code;
        let skip = test_token_ranges(&fa.items);
        for k in 0..code.len() {
            let Some(t) = code.get(k) else { break };
            if t.kind != TokKind::Ident || text_at(code, k + 1) != ":" {
                continue;
            }
            if in_ranges(&skip, k) {
                continue;
            }
            // Skip an optional `std :: sync ::`-style path prefix.
            let mut j = k + 2;
            while code.get(j).is_some_and(|t| t.kind == TokKind::Ident)
                && text_at(code, j + 1) == "::"
            {
                j += 2;
            }
            let kind = match text_at(code, j) {
                "Mutex" => LockKind::Mutex,
                "RwLock" => LockKind::RwLock,
                _ => continue,
            };
            if text_at(code, j + 1) != "<" {
                continue;
            }
            decls.entry(t.text.clone()).or_default().push((fi, kind));
        }
    }
    let mut once = BTreeMap::new();
    let mut ambiguous = BTreeSet::new();
    for (name, sites) in decls {
        match sites.as_slice() {
            [single] => {
                once.insert(name, *single);
            }
            _ => {
                ambiguous.insert(name);
            }
        }
    }
    LockTable { once, ambiguous }
}

// ---------------------------------------------------------------------------
// Per-function guard walk
// ---------------------------------------------------------------------------

/// One live guard during the walk.
struct Guard {
    /// Canonical lock id ([`LockTable::id`]).
    lock: String,
    /// Bare lock name, for messages.
    name: String,
    /// `let`-bound variable, if any (temporaries are `None`).
    var: Option<String>,
    /// Brace depth at acquisition.
    depth: i64,
    line: u32,
}

/// A held-lock snapshot entry (guard state frozen at an event).
#[derive(Clone)]
struct HeldAt {
    lock: String,
    name: String,
    var: Option<String>,
    line: u32,
}

/// One direct acquisition, for may-acquire seeding.
struct Acq {
    lock: String,
    name: String,
    line: u32,
}

/// A resolved call site together with the locks held across it.
struct CallCtx {
    callee: usize,
    line: u32,
    held: Vec<HeldAt>,
}

/// A direct blocking operation together with the locks held across it.
struct BlockSite {
    op: String,
    line: u32,
    /// For condvar waits: the first argument identifier (the wait's own
    /// guard, which the condvar releases atomically).
    own_guard: Option<String>,
    held: Vec<HeldAt>,
}

/// Everything the fixpoint and the rule emitters need from one function.
struct FnSummary {
    /// rel_path of the function's file.
    file: String,
    /// Direct acquisitions, token order, deduplicated by lock id.
    acquires: Vec<Acq>,
    /// Same-body order edges: (held guard, then-acquired lock).
    edges: Vec<(HeldAt, Acq)>,
    /// Direct self-deadlocks: (already-held guard, name, re-acquisition line).
    reacquired: Vec<(HeldAt, String, u32)>,
    /// Resolved call sites (held set may be empty — still needed for
    /// summary propagation).
    calls: Vec<CallCtx>,
    /// Direct blocking operations (held set may be empty).
    blocks: Vec<BlockSite>,
}

/// Is token `k` a lock acquisition? Returns `(lock id, bare name)`.
fn acquisition_at(
    files: &[FileAnalysis],
    table: &LockTable,
    fi: usize,
    code: &[Token],
    k: usize,
) -> Option<(String, String)> {
    let t = code.get(k)?;
    if t.kind != TokKind::Ident || text_at(code, k + 1) != "(" {
        return None;
    }
    let prev = if k == 0 { "" } else { text_at(code, k - 1) };
    let name = match t.text.as_str() {
        "lock" if prev == "." => receiver_name(code, k - 1)?,
        "lock" if prev != "::" => last_ident_in_group(code, k + 1)?,
        "read" | "write" if prev == "." => {
            let name = receiver_name(code, k - 1)?;
            if !table.is_rwlock(&name) {
                return None;
            }
            name
        }
        _ => return None,
    };
    let id = table.id(files, fi, &name)?;
    Some((id, name))
}

/// For a condvar wait at token `k` (name followed by `(`): the first
/// identifier in the argument list — the guard the wait releases.
fn wait_own_guard(code: &[Token], k: usize) -> Option<String> {
    code.get(k + 2..group_end(code, k + 1))?
        .iter()
        .find(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
}

fn snapshot(held: &[Guard]) -> Vec<HeldAt> {
    held.iter()
        .map(|g| HeldAt {
            lock: g.lock.clone(),
            name: g.name.clone(),
            var: g.var.clone(),
            line: g.line,
        })
        .collect()
}

/// Walk one function body, producing its summary. The guard-lifetime
/// model is documented at module level.
fn summarize_fn(
    files: &[FileAnalysis],
    table: &LockTable,
    nodes: &[FnNode],
    n: usize,
) -> Option<FnSummary> {
    let node = nodes.get(n)?;
    if node.is_test {
        return None;
    }
    let fa = files.get(node.file_idx)?;
    let item = fa.items.get(node.item_idx)?;
    if item.kind != ItemKind::Fn || item.body.is_none() {
        return None;
    }
    let code = &fa.code;
    let sites: BTreeMap<usize, usize> = node.sites.iter().map(|s| (s.tok, s.callee)).collect();

    let mut sum = FnSummary {
        file: fa.rel_path.clone(),
        acquires: Vec::new(),
        edges: Vec::new(),
        reacquired: Vec::new(),
        calls: Vec::new(),
        blocks: Vec::new(),
    };
    let mut held: Vec<Guard> = Vec::new();
    let mut depth = 1i64;
    for &k in &body_indices(item, &fa.items) {
        let Some(t) = code.get(k) else { break };
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                held.retain(|g| g.depth <= depth);
            }
            ";" => held.retain(|g| !(g.var.is_none() && g.depth >= depth)),
            "drop"
                if text_at(code, k + 1) == "("
                    && code.get(k + 2).is_some_and(|a| a.kind == TokKind::Ident)
                    && text_at(code, k + 3) == ")" =>
            {
                let var = text_at(code, k + 2).to_string();
                held.retain(|g| g.var.as_deref() != Some(var.as_str()));
            }
            _ if t.kind == TokKind::Ident => {
                if let Some((id, name)) = acquisition_at(files, table, node.file_idx, code, k) {
                    let bound = let_bound_var(code, k);
                    if let Some(v) = &bound {
                        // Rebinding drops the old guard before the new
                        // acquisition completes.
                        held.retain(|g| g.var.as_deref() != Some(v.as_str()));
                    }
                    for g in &held {
                        if g.lock == id {
                            sum.reacquired.push((
                                HeldAt {
                                    lock: g.lock.clone(),
                                    name: g.name.clone(),
                                    var: g.var.clone(),
                                    line: g.line,
                                },
                                name.clone(),
                                t.line,
                            ));
                        } else {
                            sum.edges.push((
                                HeldAt {
                                    lock: g.lock.clone(),
                                    name: g.name.clone(),
                                    var: g.var.clone(),
                                    line: g.line,
                                },
                                Acq {
                                    lock: id.clone(),
                                    name: name.clone(),
                                    line: t.line,
                                },
                            ));
                        }
                    }
                    if !sum.acquires.iter().any(|a| a.lock == id) {
                        sum.acquires.push(Acq {
                            lock: id.clone(),
                            name: name.clone(),
                            line: t.line,
                        });
                    }
                    held.push(Guard {
                        lock: id,
                        name,
                        var: bound,
                        depth,
                        line: t.line,
                    });
                    // A free-fn `lock(&x)` site may also resolve as a call to
                    // a workspace helper; the acquisition just recorded *is*
                    // that call's effect, so skip the call-site capture.
                    continue;
                }
                if let Some(&callee) = sites.get(&k) {
                    sum.calls.push(CallCtx {
                        callee,
                        line: t.line,
                        held: snapshot(&held),
                    });
                } else if BLOCKING_OPS.contains(&t.text.as_str()) && text_at(code, k + 1) == "(" {
                    let own_guard = if WAIT_OPS.contains(&t.text.as_str()) {
                        wait_own_guard(code, k)
                    } else {
                        None
                    };
                    sum.blocks.push(BlockSite {
                        op: t.text.clone(),
                        line: t.line,
                        own_guard,
                        held: snapshot(&held),
                    });
                }
            }
            _ => {}
        }
    }
    Some(sum)
}

// ---------------------------------------------------------------------------
// Fixpoint: may-acquire and may-block summaries
// ---------------------------------------------------------------------------

/// Transitive acquisition fact: how a call into this function can take a
/// lock, as a provenance chain of `lock …`/`call …` hops.
#[derive(Clone)]
struct AcqFact {
    name: String,
    chain: Vec<String>,
}

/// Transitive blocking fact with its provenance chain.
#[derive(Clone)]
struct BlockFact {
    chain: Vec<String>,
}

/// The assembled engine state the rule emitters read.
pub(crate) struct LockSets {
    summaries: Vec<Option<FnSummary>>,
    /// Per node: lock id → first-found acquisition chain.
    trans_acq: Vec<BTreeMap<String, AcqFact>>,
    /// Per node: first-found chain to a blocking op, if any.
    trans_block: Vec<Option<BlockFact>>,
    /// Callee display names, indexed like `nodes`.
    displays: Vec<String>,
}

/// Build the lock table, per-function summaries, and the two fixpoint
/// summaries. Deterministic: nodes are swept in index order and existing
/// facts are never overwritten, so chains are first-found and stable.
pub(crate) fn build(files: &[FileAnalysis], nodes: &[FnNode]) -> LockSets {
    let table = scan_declared_locks(files);
    let summaries: Vec<Option<FnSummary>> = (0..nodes.len())
        .map(|n| summarize_fn(files, &table, nodes, n))
        .collect();

    let mut trans_acq: Vec<BTreeMap<String, AcqFact>> = vec![BTreeMap::new(); nodes.len()];
    let mut trans_block: Vec<Option<BlockFact>> = vec![None; nodes.len()];
    for (n, sum) in summaries.iter().enumerate() {
        let Some(sum) = sum else { continue };
        for a in &sum.acquires {
            trans_acq[n].insert(
                a.lock.clone(),
                AcqFact {
                    name: a.name.clone(),
                    chain: vec![format!("lock `{}` at {}:{}", a.name, sum.file, a.line)],
                },
            );
        }
        if let Some(b) = sum.blocks.first() {
            trans_block[n] = Some(BlockFact {
                chain: vec![format!("`{}` at {}:{}", b.op, sum.file, b.line)],
            });
        }
    }

    for _ in 0..MAX_PASSES {
        let mut changed = false;
        for n in 0..nodes.len() {
            let Some(sum) = &summaries[n] else { continue };
            // Two-phase per node: read callees immutably, then apply.
            let mut new_acq: Vec<(String, AcqFact)> = Vec::new();
            let mut new_block: Option<BlockFact> = None;
            for call in &sum.calls {
                let hop = format!(
                    "call `{}` at {}:{}",
                    nodes[call.callee].display, sum.file, call.line
                );
                for (lock, fact) in &trans_acq[call.callee] {
                    if trans_acq[n].contains_key(lock)
                        || new_acq.iter().any(|(l, _)| l == lock)
                        || fact.chain.len() >= MAX_CHAIN
                    {
                        continue;
                    }
                    let mut chain = vec![hop.clone()];
                    chain.extend(fact.chain.iter().cloned());
                    new_acq.push((
                        lock.clone(),
                        AcqFact {
                            name: fact.name.clone(),
                            chain,
                        },
                    ));
                }
                if trans_block[n].is_none() && new_block.is_none() {
                    if let Some(bf) = &trans_block[call.callee] {
                        if bf.chain.len() < MAX_CHAIN {
                            let mut chain = vec![hop.clone()];
                            chain.extend(bf.chain.iter().cloned());
                            new_block = Some(BlockFact { chain });
                        }
                    }
                }
            }
            if !new_acq.is_empty() {
                changed = true;
                for (lock, fact) in new_acq {
                    trans_acq[n].insert(lock, fact);
                }
            }
            if let Some(bf) = new_block {
                trans_block[n] = Some(bf);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    LockSets {
        summaries,
        trans_acq,
        trans_block,
        displays: nodes.iter().map(|n| n.display.clone()).collect(),
    }
}

// ---------------------------------------------------------------------------
// Rule: lock-order-global
// ---------------------------------------------------------------------------

/// One order edge `a -> b` in the global graph, with the site where it is
/// reported and the full acquisition chain that witnesses it.
struct EdgeInfo {
    file: String,
    line: u32,
    a_name: String,
    b_name: String,
    chain: String,
}

/// Emit the workspace-global lock-order findings: every edge on a cycle
/// (with its full chain) plus direct and call-chain self-deadlocks.
pub(crate) fn lock_order_global(ws: &Workspace<'_>, out: &mut Vec<Finding>) {
    let sets = &ws.locksets;
    // (held lock id, acquired lock id) → first witnessing edge.
    let mut edges: BTreeMap<(String, String), EdgeInfo> = BTreeMap::new();
    for sum in sets.summaries.iter().flatten() {
        for (g, acq) in &sum.edges {
            let chain = format!(
                "lock `{}` at {}:{} -> lock `{}` at {}:{}",
                g.name, sum.file, g.line, acq.name, sum.file, acq.line
            );
            edges
                .entry((g.lock.clone(), acq.lock.clone()))
                .or_insert_with(|| EdgeInfo {
                    file: sum.file.clone(),
                    line: acq.line,
                    a_name: g.name.clone(),
                    b_name: acq.name.clone(),
                    chain,
                });
        }
        for (g, name, line) in &sum.reacquired {
            out.push(Finding {
                file: sum.file.clone(),
                line: *line,
                rule: "lock-order-global",
                message: format!(
                    "lock `{}` acquired while already held (first acquired at line {}); \
                     self-deadlock on a non-reentrant Mutex/RwLock",
                    name, g.line
                ),
            });
        }
        for call in &sum.calls {
            if call.held.is_empty() {
                continue;
            }
            for (lock, fact) in &sets.trans_acq[call.callee] {
                for g in &call.held {
                    let chain = format!(
                        "lock `{}` at {}:{} -> call `{}` at {}:{} -> {}",
                        g.name,
                        sum.file,
                        g.line,
                        sets.displays[call.callee],
                        sum.file,
                        call.line,
                        fact.chain.join(" -> ")
                    );
                    if g.lock == *lock {
                        out.push(Finding {
                            file: sum.file.clone(),
                            line: call.line,
                            rule: "lock-order-global",
                            message: format!(
                                "lock `{}` is re-acquired through a call chain while still \
                                 held ({chain}); self-deadlock on a non-reentrant Mutex/RwLock",
                                g.name
                            ),
                        });
                    } else {
                        edges
                            .entry((g.lock.clone(), lock.clone()))
                            .or_insert_with(|| EdgeInfo {
                                file: sum.file.clone(),
                                line: call.line,
                                a_name: g.name.clone(),
                                b_name: fact.name.clone(),
                                chain,
                            });
                    }
                }
            }
        }
    }

    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().insert(b.as_str());
    }
    for ((a, b), e) in &edges {
        if find_path(&adj, b, a).is_none() {
            continue;
        }
        out.push(Finding {
            file: e.file.clone(),
            line: e.line,
            rule: "lock-order-global",
            message: format!(
                "lock-order cycle: `{}` is held while acquiring `{}` ({}); elsewhere \
                 `{}` -> `{}` is (transitively) acquired; impose one global acquisition order",
                e.a_name, e.b_name, e.chain, e.b_name, e.a_name
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// Rule: guard-across-blocking
// ---------------------------------------------------------------------------

/// Emit the guard-across-blocking findings: a live guard at a direct
/// blocking op (condvar waits exempt their own guard) or at a call site
/// whose callee may-block.
pub(crate) fn guard_across_blocking(ws: &Workspace<'_>, out: &mut Vec<Finding>) {
    let sets = &ws.locksets;
    for sum in sets.summaries.iter().flatten() {
        for b in &sum.blocks {
            for g in &b.held {
                if g.var.is_some() && g.var == b.own_guard {
                    continue; // the condvar releases this guard atomically
                }
                out.push(Finding {
                    file: sum.file.clone(),
                    line: b.line,
                    rule: "guard-across-blocking",
                    message: format!(
                        "guard on `{}` is held across blocking `{}` (lock `{}` at {}:{} -> \
                         `{}` at {}:{}); drop the guard or shrink its scope before blocking",
                        g.name, b.op, g.name, sum.file, g.line, b.op, sum.file, b.line
                    ),
                });
            }
        }
        for call in &sum.calls {
            if call.held.is_empty() {
                continue;
            }
            let Some(bf) = &sets.trans_block[call.callee] else {
                continue;
            };
            for g in &call.held {
                out.push(Finding {
                    file: sum.file.clone(),
                    line: call.line,
                    rule: "guard-across-blocking",
                    message: format!(
                        "guard on `{}` is held across a call that (transitively) blocks \
                         (lock `{}` at {}:{} -> call `{}` at {}:{} -> {}); drop the guard \
                         before the call or hoist the blocking op out of the critical section",
                        g.name,
                        g.name,
                        sum.file,
                        g.line,
                        sets.displays[call.callee],
                        sum.file,
                        call.line,
                        bf.chain.join(" -> ")
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: atomic-ordering-pairing
// ---------------------------------------------------------------------------

/// One non-test atomic operation, classified by what it demands and what
/// it can satisfy. RMW ops take their single ordering on both sides; the
/// second ordering of `compare_exchange*`/`fetch_update` is the
/// failure/fetch load.
struct AtomicSite {
    field: String,
    file: String,
    line: u32,
    op: String,
    /// Store side is Release/AcqRel: needs an acquiring load elsewhere.
    demands_acquire: Option<&'static str>,
    /// Load side is Acquire/AcqRel: needs a releasing store elsewhere.
    demands_release: Option<&'static str>,
    provides_acquire: bool,
    provides_release: bool,
}

fn ordering_name(ord: &str) -> Option<&'static str> {
    match ord {
        "Relaxed" => Some("Relaxed"),
        "Acquire" => Some("Acquire"),
        "Release" => Some("Release"),
        "AcqRel" => Some("AcqRel"),
        "SeqCst" => Some("SeqCst"),
        _ => None,
    }
}

/// The `Ordering::X` names inside a call's argument group, in order.
fn orderings_in_call(code: &[Token], open: usize) -> Vec<&'static str> {
    let close = group_end(code, open);
    let mut out = Vec::new();
    let mut j = open + 1;
    while j + 2 < close {
        if text_at(code, j) == "Ordering" && text_at(code, j + 1) == "::" {
            if let Some(ord) = ordering_name(text_at(code, j + 2)) {
                out.push(ord);
            }
            j += 3;
        } else {
            j += 1;
        }
    }
    out
}

fn classify_site(
    field: String,
    file: String,
    line: u32,
    op: &str,
    ords: &[&'static str],
) -> AtomicSite {
    let mut site = AtomicSite {
        field,
        file,
        line,
        op: op.to_string(),
        demands_acquire: None,
        demands_release: None,
        provides_acquire: false,
        provides_release: false,
    };
    // (store-side orderings, load-side orderings) per op shape.
    let (stores, loads): (Vec<&'static str>, Vec<&'static str>) = match op {
        "load" => (vec![], ords.first().copied().into_iter().collect()),
        "store" => (ords.first().copied().into_iter().collect(), vec![]),
        "compare_exchange" | "compare_exchange_weak" | "fetch_update" => (
            ords.first().copied().into_iter().collect(),
            ords.iter().take(2).copied().collect(),
        ),
        // Plain RMW: the one ordering applies to both halves.
        _ => (
            ords.first().copied().into_iter().collect(),
            ords.first().copied().into_iter().collect(),
        ),
    };
    for ord in stores {
        match ord {
            "Release" | "AcqRel" => {
                site.demands_acquire.get_or_insert(ord);
                site.provides_release = true;
            }
            "SeqCst" => site.provides_release = true,
            _ => {}
        }
    }
    for ord in loads {
        match ord {
            "Acquire" | "AcqRel" => {
                site.demands_release.get_or_insert(ord);
                site.provides_acquire = true;
            }
            "SeqCst" => site.provides_acquire = true,
            _ => {}
        }
    }
    site
}

/// Emit the atomic-ordering-pairing findings: demanding sites with no
/// partnering site (by bare field name) anywhere else in the workspace.
pub(crate) fn atomic_ordering_pairing(ws: &Workspace<'_>, out: &mut Vec<Finding>) {
    let mut sites: Vec<AtomicSite> = Vec::new();
    for fa in ws.files {
        let code = &fa.code;
        for item in &fa.items {
            if item.kind != ItemKind::Fn || item.is_test || item.body.is_none() {
                continue;
            }
            for &k in &body_indices(item, &fa.items) {
                let Some(t) = code.get(k) else { break };
                if t.kind != TokKind::Ident
                    || !ATOMIC_METHODS.contains(&t.text.as_str())
                    || text_at(code, k + 1) != "("
                    || k == 0
                    || text_at(code, k - 1) != "."
                {
                    continue;
                }
                let Some(field) = receiver_name(code, k - 1) else {
                    continue;
                };
                let ords = orderings_in_call(code, k + 1);
                if ords.is_empty() {
                    continue; // not an atomic call after all (or macro soup)
                }
                sites.push(classify_site(
                    field,
                    fa.rel_path.clone(),
                    t.line,
                    &t.text,
                    &ords,
                ));
            }
        }
    }

    for (i, s) in sites.iter().enumerate() {
        let partner = |acquire: bool| {
            sites.iter().enumerate().any(|(j, p)| {
                j != i
                    && p.field == s.field
                    && if acquire {
                        p.provides_acquire
                    } else {
                        p.provides_release
                    }
            })
        };
        if let Some(ord) = s.demands_acquire {
            if !partner(true) {
                out.push(Finding {
                    file: s.file.clone(),
                    line: s.line,
                    rule: "atomic-ordering-pairing",
                    message: format!(
                        "`{}.{}` stores with `Ordering::{}` but no other non-test site \
                         performs an Acquire/AcqRel/SeqCst load of `{}` anywhere in the \
                         workspace; the release edge has no acquire to synchronize with — \
                         add the acquiring load or justify a weaker ordering",
                        s.field, s.op, ord, s.field
                    ),
                });
            }
        }
        if let Some(ord) = s.demands_release {
            if !partner(false) {
                out.push(Finding {
                    file: s.file.clone(),
                    line: s.line,
                    rule: "atomic-ordering-pairing",
                    message: format!(
                        "`{}.{}` loads with `Ordering::{}` but no other non-test site \
                         performs a Release/AcqRel/SeqCst store of `{}` anywhere in the \
                         workspace; the acquire edge has no release to synchronize with — \
                         add the releasing store or justify a weaker ordering",
                        s.field, s.op, ord, s.field
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::callgraph::Workspace;
    use crate::rules::{analyze_source, FileAnalysis, FileContext};

    fn analyses(sources: &[(&str, &str)]) -> Vec<FileAnalysis> {
        sources
            .iter()
            .map(|&(rel, src)| {
                let crate_name = rel.split('/').nth(1).unwrap_or("x").to_string();
                let ctx = FileContext {
                    crate_name: &crate_name,
                    rel_path: rel,
                    is_bin: false,
                    test_tree: false,
                };
                analyze_source(&ctx, src, &mut crate::Timings::default())
            })
            .collect()
    }

    fn findings(sources: &[(&str, &str)]) -> Vec<(String, u32, &'static str, String)> {
        let files = analyses(sources);
        let ws = Workspace::new(&files, &mut crate::Timings::default());
        let mut out = Vec::new();
        super::lock_order_global(&ws, &mut out);
        super::guard_across_blocking(&ws, &mut out);
        super::atomic_ordering_pairing(&ws, &mut out);
        let mut out: Vec<_> = out
            .into_iter()
            .map(|f| (f.file, f.line, f.rule, f.message))
            .collect();
        out.sort();
        out
    }

    const PAIR: &str = "vendor/rayon/src/pair.rs";

    #[test]
    fn direct_reversed_pair_is_a_cycle_with_chains() {
        let src = "struct S { alpha: Mutex<u32>, beta: Mutex<u32> }\n\
                   fn fwd(s: &S) {\n\
                   let ga = s.alpha.lock().unwrap();\n\
                   let gb = s.beta.lock().unwrap();\n\
                   drop(gb); drop(ga);\n\
                   }\n\
                   fn bwd(s: &S) {\n\
                   let gb = s.beta.lock().unwrap();\n\
                   let ga = s.alpha.lock().unwrap();\n\
                   drop(ga); drop(gb);\n\
                   }\n";
        let got = findings(&[(PAIR, src)]);
        let rules: Vec<_> = got.iter().map(|f| (f.1, f.2)).collect();
        assert_eq!(
            rules,
            vec![(4, "lock-order-global"), (9, "lock-order-global")]
        );
        assert!(
            got[0].3.contains("`alpha` is held while acquiring `beta`"),
            "{}",
            got[0].3
        );
        assert!(
            got[0]
                .3
                .contains("lock `alpha` at vendor/rayon/src/pair.rs:3 -> lock `beta` at vendor/rayon/src/pair.rs:4"),
            "{}",
            got[0].3
        );
    }

    #[test]
    fn consistent_order_and_drop_before_reacquire_are_clean() {
        let src = "struct S { alpha: Mutex<u32>, beta: Mutex<u32> }\n\
                   fn one(s: &S) {\n\
                   let ga = s.alpha.lock().unwrap();\n\
                   let gb = s.beta.lock().unwrap();\n\
                   drop(gb); drop(ga);\n\
                   }\n\
                   fn two(s: &S) {\n\
                   let ga = s.alpha.lock().unwrap();\n\
                   drop(ga);\n\
                   let gb = s.beta.lock().unwrap();\n\
                   drop(gb);\n\
                   }\n";
        assert_eq!(findings(&[(PAIR, src)]), vec![]);
    }

    #[test]
    fn self_deadlock_direct_and_through_call_chain() {
        let src = "struct S { alpha: Mutex<u32> }\n\
                   fn direct(s: &S) {\n\
                   let ga = s.alpha.lock().unwrap();\n\
                   let gb = s.alpha.lock().unwrap();\n\
                   drop(gb); drop(ga);\n\
                   }\n\
                   fn outer(s: &S) {\n\
                   let ga = s.alpha.lock().unwrap();\n\
                   inner(s);\n\
                   drop(ga);\n\
                   }\n\
                   fn inner(s: &S) {\n\
                   let g = s.alpha.lock().unwrap();\n\
                   drop(g);\n\
                   }\n";
        let got = findings(&[(PAIR, src)]);
        assert_eq!(got.len(), 2, "{got:?}");
        assert_eq!(got[0].1, 4);
        assert!(got[0].3.contains("self-deadlock"));
        assert_eq!(got[1].1, 9);
        assert!(
            got[1].3.contains("re-acquired through a call chain"),
            "{}",
            got[1].3
        );
        assert!(
            got[1]
                .3
                .contains("call `inner` at vendor/rayon/src/pair.rs:9 -> lock `alpha` at vendor/rayon/src/pair.rs:13"),
            "{}",
            got[1].3
        );
    }

    #[test]
    fn cross_file_interprocedural_cycle_reports_full_chain() {
        let a = "struct P { alpha: Mutex<u32>, beta: Mutex<u32> }\n\
                 pub fn a_then_b(p: &P) {\n\
                 let g = p.alpha.lock().unwrap();\n\
                 grab_beta(p);\n\
                 drop(g);\n\
                 }\n";
        let b = "pub fn grab_beta(p: &crate::P) {\n\
                 let g = p.beta.lock().unwrap();\n\
                 drop(g);\n\
                 }\n\
                 pub fn b_then_a(p: &crate::P) {\n\
                 let g = p.beta.lock().unwrap();\n\
                 grab_alpha(p);\n\
                 drop(g);\n\
                 }\n\
                 pub fn grab_alpha(p: &crate::P) {\n\
                 let g = p.alpha.lock().unwrap();\n\
                 drop(g);\n\
                 }\n";
        let got = findings(&[("vendor/rayon/src/fa.rs", a), ("vendor/rayon/src/fb.rs", b)]);
        let cyc: Vec<_> = got.iter().filter(|f| f.2 == "lock-order-global").collect();
        assert_eq!(cyc.len(), 2, "{got:?}");
        assert!(
            cyc[0].3.contains(
                "lock `alpha` at vendor/rayon/src/fa.rs:3 -> call `grab_beta` at \
                 vendor/rayon/src/fa.rs:4 -> lock `beta` at vendor/rayon/src/fb.rs:2"
            ),
            "{}",
            cyc[0].3
        );
    }

    #[test]
    fn guard_across_sleep_and_transitive_socket_write() {
        let src = "struct S { alpha: Mutex<u32> }\n\
                   fn napper(s: &S) {\n\
                   let g = s.alpha.lock().unwrap();\n\
                   sleep(ms);\n\
                   drop(g);\n\
                   }\n\
                   fn sender(s: &S, out: &mut W) {\n\
                   let g = s.alpha.lock().unwrap();\n\
                   emit(out);\n\
                   drop(g);\n\
                   }\n\
                   fn emit(out: &mut W) {\n\
                   out.write_all(b).unwrap();\n\
                   }\n";
        let got = findings(&[(PAIR, src)]);
        let gab: Vec<_> = got
            .iter()
            .filter(|f| f.2 == "guard-across-blocking")
            .collect();
        assert_eq!(gab.len(), 2, "{got:?}");
        assert_eq!(gab[0].1, 4);
        assert!(gab[0].3.contains("held across blocking `sleep`"));
        assert_eq!(gab[1].1, 9);
        assert!(
            gab[1].3.contains(
                "call `emit` at vendor/rayon/src/pair.rs:9 -> `write_all` at \
                 vendor/rayon/src/pair.rs:13"
            ),
            "{}",
            gab[1].3
        );
    }

    #[test]
    fn condvar_wait_on_own_guard_is_exempt_but_other_guards_fire() {
        let own = "struct S { alpha: Mutex<u32> }\n\
                   fn waiter(s: &S, cv: &Condvar) {\n\
                   let mut g = s.alpha.lock().unwrap();\n\
                   g = cv.wait(g).unwrap();\n\
                   drop(g);\n\
                   }\n";
        assert_eq!(findings(&[(PAIR, own)]), vec![]);

        let other = "struct S { alpha: Mutex<u32>, beta: Mutex<u32> }\n\
                     fn waiter(s: &S, cv: &Condvar) {\n\
                     let held = s.beta.lock().unwrap();\n\
                     let mut g = s.alpha.lock().unwrap();\n\
                     g = cv.wait(g).unwrap();\n\
                     drop(g); drop(held);\n\
                     }\n";
        let got = findings(&[(PAIR, other)]);
        let gab: Vec<_> = got
            .iter()
            .filter(|f| f.2 == "guard-across-blocking")
            .collect();
        assert_eq!(gab.len(), 1, "{got:?}");
        assert_eq!(gab[0].1, 5);
        assert!(gab[0].3.contains("`beta`"), "{}", gab[0].3);
    }

    #[test]
    fn unpaired_release_and_acquire_fire_but_pairs_and_seqcst_are_clean() {
        let bad = "struct F { flag: AtomicUsize, seq: AtomicUsize }\n\
                   fn publish(f: &F) {\n\
                   f.flag.store(1, Ordering::Release);\n\
                   }\n\
                   fn observe(f: &F) -> usize {\n\
                   f.seq.load(Ordering::Acquire)\n\
                   }\n";
        let got = findings(&[(PAIR, bad)]);
        let aop: Vec<_> = got
            .iter()
            .filter(|f| f.2 == "atomic-ordering-pairing")
            .collect();
        assert_eq!(aop.len(), 2, "{got:?}");
        assert_eq!(aop[0].1, 3);
        assert!(aop[0].3.contains("no acquire to synchronize with"));
        assert_eq!(aop[1].1, 6);
        assert!(aop[1].3.contains("no release to synchronize with"));

        let good = "struct F { flag: AtomicUsize, n: AtomicUsize }\n\
                    fn publish(f: &F) {\n\
                    f.flag.store(1, Ordering::Release);\n\
                    f.n.store(0, Ordering::SeqCst);\n\
                    }\n\
                    fn observe(f: &F) -> usize {\n\
                    f.flag.load(Ordering::Acquire)\n\
                    + f.n.load(Ordering::SeqCst)\n\
                    + f.n.fetch_add(1, Ordering::AcqRel)\n\
                    }\n";
        assert_eq!(findings(&[(PAIR, good)]), vec![]);
    }

    #[test]
    fn rmw_second_ordering_is_the_failure_load() {
        // compare_exchange(SeqCst, Acquire): the Acquire failure load
        // demands a release partner; none exists.
        let src = "struct F { flag: AtomicUsize }\n\
                   fn bump(f: &F) {\n\
                   let _ = f.flag.compare_exchange(0, 1, Ordering::SeqCst, Ordering::Acquire);\n\
                   }\n";
        let got = findings(&[(PAIR, src)]);
        let aop: Vec<_> = got
            .iter()
            .filter(|f| f.2 == "atomic-ordering-pairing")
            .collect();
        assert_eq!(aop.len(), 1, "{got:?}");
        assert!(aop[0].3.contains("Ordering::Acquire"), "{}", aop[0].3);
    }

    #[test]
    fn ambiguously_declared_locks_are_dropped() {
        // `alpha` declared in two files: no tracking, so the reversed
        // pair with `beta` cannot produce an edge or a cycle.
        let a = "struct S1 { alpha: Mutex<u32>, beta: Mutex<u32> }\n\
                 fn fwd(s: &S1) {\n\
                 let ga = s.alpha.lock().unwrap();\n\
                 let gb = s.beta.lock().unwrap();\n\
                 drop(gb); drop(ga);\n\
                 }\n";
        let b = "struct S2 { alpha: Mutex<u32> }\n\
                 fn bwd(s: &S2, t: &crate::S1) {\n\
                 let gb = t.beta.lock().unwrap();\n\
                 let ga = s.alpha.lock().unwrap();\n\
                 drop(ga); drop(gb);\n\
                 }\n";
        assert_eq!(
            findings(&[("vendor/rayon/src/m1.rs", a), ("vendor/rayon/src/m2.rs", b)]),
            vec![]
        );
    }

    #[test]
    fn engine_is_deterministic() {
        let src = "struct S { alpha: Mutex<u32>, beta: Mutex<u32> }\n\
                   fn fwd(s: &S) {\n\
                   let ga = s.alpha.lock().unwrap();\n\
                   let gb = s.beta.lock().unwrap();\n\
                   sleep(ms);\n\
                   drop(gb); drop(ga);\n\
                   }\n\
                   fn bwd(s: &S) {\n\
                   let gb = s.beta.lock().unwrap();\n\
                   let ga = s.alpha.lock().unwrap();\n\
                   drop(ga); drop(gb);\n\
                   }\n";
        assert_eq!(findings(&[(PAIR, src)]), findings(&[(PAIR, src)]));
    }
}
