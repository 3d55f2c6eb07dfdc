#!/usr/bin/env bash
# Tier-1 verification plus the benchmark's smoke: exactly what a CI job
# runs. Fails on the first broken step.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format =="
cargo fmt --check

echo "== build (release) =="
cargo build --release

echo "== lints =="
# Besides clippy's defaults: panic-free library code (each library root's
# `deny`), documented `unsafe` ([workspace.lints]) and no HashMap/HashSet
# (clippy.toml) — the checks DESIGN.md §8 leaves to clippy. The benchmark
# package is its own workspace, so it gets its own run (one target dir).
cargo clippy --workspace --all-targets -- -D warnings
CARGO_TARGET_DIR="$PWD/target" cargo clippy --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings

echo "== docs =="
# Every crate's rustdoc builds without a warning: a link to an item the
# public page cannot show, or one rustdoc cannot resolve, is an error.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== fedlint =="
# Scans crates/*/src, vendor/*/src and, for confinement's one-place rows,
# the test trees; the crate's own suite pins every fixture line, every RULES
# row's fixtures, and a match in every confinement row's home.
# Each file is lexed once and every rule reads it in that one pass; the
# scan must stay cheap enough to gate every PR, so it gets a
# generous-but-real wall-time budget. The root build above does not build
# `lint`; build it first, off the clock, so the budget times the scan alone.
lint_budget_s=120
cargo build -q -p lint --release
lint_start=$(date +%s)
"${CARGO_TARGET_DIR:-target}/release/fedlint" --deny
lint_elapsed=$(($(date +%s) - lint_start))
echo "fedlint: --deny completed in ${lint_elapsed}s (budget ${lint_budget_s}s)"
if [ "$lint_elapsed" -ge "$lint_budget_s" ]; then
    echo "fedlint: workspace scan blew its ${lint_budget_s}s budget — the lexer, the item scan or a rule has a perf regression" >&2
    exit 1
fi
cargo test -q -p lint

echo "== tests =="
# Every root integration suite, once. Among them, by the stage names this
# script used to run them a second time under:
#   fault tolerance   — tests/fault_tolerance.rs
#   crash recovery    — tests/crash_recovery.rs (the fedclust-cli suite
#                       below does it through the real binary, and net_cli
#                       with a real SIGKILL of a checkpointing server)
#   codec conformance — tests/golden_bytes.rs pins every format against
#                       images generated before the byte layer was last
#                       touched; tests/hostile_bytes.rs runs truncations,
#                       bit flips, lying lengths and resealed garbage
#                       against all three formats; tests/codec_conformance.rs
#                       and tests/comm_accounting.rs pin the numbers
cargo test -q

echo "== quickstart =="
# README's one entry point, run rather than only compiled (~0.4 s once
# built). It prints numbers and ranks nothing, so nothing here reads them.
cargo run -q --release --example quickstart

echo "== kernels =="
# The training kernels' own suites, which `cargo test -q` above does not
# reach: GEMM edge tiles and the packers against their element-wise
# references (bit for bit), each GEMM micro-kernel body the host has (the
# portable one on every host, AVX2+FMA where present) against a reference
# driver on that same body, bit for bit, and the two bodies' agreement
# within a stated rounding bound; max-pool against its runtime-window
# reference loop (output bits and argmax, ties, NaN, odd sizes);
# im2col/col2im, the conv/dense/batch-norm gradient checks, and
# `train_step` against forward + backward + step to the bit for every
# architecture; and the pairwise oracle: Eq. 3's 16-lane builder
# (`distance::Pairwise`) against `Metric::eval` on every pair, `to_bits`,
# on both of its bodies (the portable one on every host, AVX2 where
# present), L2 and cosine, NaN/±∞/−0.0/zero rows, with a rounding probe
# that fails any reordered sum.
kernels_start=$(date +%s%N)
cargo test -q -p fedclust-tensor -p fedclust-nn
echo "kernels: stage took $((($(date +%s%N) - kernels_start) / 1000000)) ms"

echo "== clustering =="
# `cargo test -q` above is the root package only. Round 0's own suites live
# in the crates: the HAC oracle (the cached-minimum `agglomerative` against
# the full-rescan reference, whole dendrograms, exact f32, ties included),
# the non-finite-matrix pins and the cut properties in fedclust-cluster;
# warm-up, proximity matrix (every entry `Metric::eval`'s bits, through the
# lane builder whose pairwise oracle on both bodies runs in "kernels"), the
# λ rule and Algorithm 1/2 in fedclust.
cluster_start=$(date +%s%N)
cargo test -q -p fedclust-cluster -p fedclust
echo "clustering: stage took $((($(date +%s%N) - cluster_start) / 1000000)) ms"

echo "== paper record =="
# results/paper_fast.txt is what `FEDCLUST_FAST=1 paper` printed at the
# commit that last moved a result byte on purpose; recomputing it here means
# the next such change has to touch the record in the same PR, and a unified
# diff shows which rows such a change moved. The record was
# taken with the AVX2+FMA GEMM kernel, and FMA rounds differently, so on a
# host without it the comparison is skipped, not failed. The harness's own
# suite trains (40 runs per smoke-scale grid), so it runs optimised.
cargo build --release -p fedclust-bench
cargo test -q --release -p fedclust-bench --no-run
paper_start=$(date +%s%N)
cargo test -q --release -p fedclust-bench
if grep -qw fma /proc/cpuinfo && grep -qw avx2 /proc/cpuinfo; then
    FEDCLUST_FAST=1 target/release/paper 2>/dev/null | diff -u results/paper_fast.txt -
else
    echo "SKIP (record is avx2+fma)"
fi
echo "paper record: stage took $((($(date +%s%N) - paper_start) / 1000000)) ms"

echo "== networked federation =="
# Wire-protocol unit tests; every `fedclust-cli` library test — the lease
# table's own suite (its transition cases plus 2,000 seeded schedules of
# connections pulling, pushing, misbehaving and dying), the worker's
# untrainable-`Work` case and the flag tables' contracts, which no other
# stage runs — and every `fedclust-fl` and `fedclust-data` test, which
# `cargo test -q` at the root does not reach either: the settle rule for
# what workers push and `train_unit`'s checks (fl::engine), the driver,
# faults, codec, checkpoint and every method, their proptests and the
# stream audit, and the partitioners; then the real binaries end to end: a
# crash after a round, a torn checkpoint write and a seed mismatch through
# `fedclust-cli` (crash_recovery_cli), and server + worker fleet over
# localhost TCP (plain, codec-compressed, through the chaos proxy, across
# a server SIGKILL + resume, and under worker crashes) byte-identical to
# the in-process simulation (net_cli).
net_start=$(date +%s%N)
cargo test -q -p fedclust-proto
cargo test -q -p fedclust-cli --lib
cargo test -q -p fedclust-fl -p fedclust-data
cargo test -q -p fedclust-cli --test crash_recovery_cli
# Every wait inside the suite has its own deadline and fails with the
# server's stderr; `timeout` is the backstop that turns any hang those miss
# into a failed stage (built first, so the limit is on the tests alone).
cargo test -q -p fedclust-cli --test net_cli --no-run
timeout 300 cargo test -q -p fedclust-cli --test net_cli
echo "networked federation: stage took $((($(date +%s%N) - net_start) / 1000000)) ms"

echo "== thread equivalence =="
# The suite sweeps thread counts inside each test, so one invocation is
# the whole check. The pool's default and its clamp are pinned by the
# vendored rayon crate's unit tests, with its panic and nesting tests and
# `map_init`'s: index order at 1, 2, 4 and 7 threads, `init` at most once
# per participant and never for an empty range, a panic's own payload
# re-raised. (That a dirty replica evaluates and trains like a fresh
# clone is fedclust-fl's engine suite, in "networked federation".)
cargo test -q --test thread_equivalence
cargo test -q -p rayon

echo "== benchmark surface =="
# `benchmark/` is its own package and links the crates' public functions
# (benchmark/README.md "Measured surface"): build it and run its smoke so a
# signature drift there, or a break of the benchmark's own output checks
# (net vs in-process, threads 2 vs 1, resumed vs uninterrupted, replay vs
# CLI bit for bit), fails here rather than in the benchmark pipeline.
# One target dir for both steps (run.sh's default), so nothing builds twice.
CARGO_TARGET_DIR="$PWD/target" cargo build --release --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke

echo "== equivalence vs the parent commit (non-gating) =="
# The suites above prove this build agrees with itself; this one proves it
# agrees with its parent. Non-gating: a PR that changes a byte on purpose
# argues it in CHANGES.md.
scripts/equiv_vs.sh HEAD~1 || echo "equiv_vs: differs from HEAD~1 (non-gating)"

echo "== thread sanitizer (best effort) =="
# Dynamic double-check of the pool, wire and server-owner suites when a
# nightly toolchain with TSan support is available; exits 0 with a skip
# message otherwise, and never gates the pipeline either way — the gate is
# the compiler (Send/Sync) plus fedlint's `no locks` and `one relaxed
# atomic` confinement rows.
scripts/tsan.sh || echo "tsan: failed (non-gating)"
