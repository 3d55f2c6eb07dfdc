#!/usr/bin/env bash
# Tier-1 verification plus the benchmark's smoke: exactly what a CI job
# runs. Fails on the first broken step.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format =="
cargo fmt --check

echo "== one byte layer =="
# The FNV-1a offset basis is the fingerprint of a hand-rolled checksum.
# Exactly one source file may carry it (proto::bytes, the layer all three
# byte formats are clients of) and no test may: tests seal through the
# public `bytes::seal`, so a fourth copy cannot come back unnoticed.
fnv_basis='cbf2_9ce4|cbf29ce4'
fnv_src=$(grep -rlIE "$fnv_basis" crates/*/src || true)
if [ "$fnv_src" != "crates/proto/src/bytes.rs" ]; then
    echo "the FNV offset basis belongs in crates/proto/src/bytes.rs only, found in: ${fnv_src:-nothing}" >&2
    exit 1
fi
if fnv_tests=$(grep -rlIE "$fnv_basis" crates/*/tests tests); then
    echo "tests must seal through fedclust_proto::bytes::seal, not their own FNV: $fnv_tests" >&2
    exit 1
fi

echo "== no serde =="
# JSON is written and read by hand in crates/fl/src/json.rs; no manifest
# outside benchmark/ may pull serde back in, and no type may derive it.
serde_manifests=$(find . -name Cargo.toml -not -path './benchmark/*' -not -path './target/*' \
    -exec grep -l serde {} + || true)
if [ -n "$serde_manifests" ]; then
    echo "serde is named in: $serde_manifests" >&2
    exit 1
fi
if serde_derives=$(grep -rnE 'derive\([^)]*\b(Serialize|Deserialize)\b' crates/*/src); then
    echo "serde derives are gone; write JSON through fedclust_fl::json: $serde_derives" >&2
    exit 1
fi

echo "== one rule table =="
# `rules::RULES` is the only list of fedlint's rules: every name is spelled
# exactly once in the file that holds the table (a second list there — a
# name array, a doc table, an unrolled run loop — would be a second
# spelling), and not at all in the driver or the CLI, which derive what
# they need from the table. Other files spell a name only where they raise
# that rule's findings.
rule_table=crates/lint/src/rules.rs
rule_names=$(sed -n 's/^        name: "\([a-z-]*\)",$/\1/p' "$rule_table")
if [ "$(wc -l <<<"$rule_names")" -ne 16 ] || [ "$rule_names" != "$(LC_ALL=C sort -u <<<"$rule_names")" ]; then
    echo "$rule_table: RULES must hold 16 rows sorted by name, found: $(tr '\n' ' ' <<<"$rule_names")" >&2
    exit 1
fi
for rule in $rule_names; do
    if [ "$(grep -c "\"$rule\"" "$rule_table")" -ne 1 ]; then
        echo "$rule_table: \"$rule\" must appear exactly once, as its RULES row" >&2
        exit 1
    fi
    if grep -n "\"$rule\"" crates/lint/src/lib.rs crates/lint/src/main.rs; then
        echo "the driver and the CLI take rule names from rules::RULES, not from a literal" >&2
        exit 1
    fi
done

echo "== one flag table =="
# A flag is spelled once: as the name of its row in the table of each
# binary that parses it (`RUN`, `SERVE`, `WORKER`, `CHAOS`). With every
# `#[cfg(test)]` module cut off, crates/cli/src therefore holds 45 rows +
# one `"--help"` = 46 exact-quoted `"--flag"` literals, none twice in one
# table and only `"--help"` outside a table; a match arm, a `validate`
# tuple or a second usage text would be a second spelling.
flag_literals=$(find crates/cli/src -name '*.rs' | LC_ALL=C sort | while read -r f; do
    awk -v f="$f" '
        /^#\[cfg\(test\)\]/ { exit }
        /const [A-Z]+: &\[Flag</ { table = $0; sub(/.*const /, "", table); sub(/:.*/, "", table) }
        { line = $0; while (match(line, /"--[a-z][a-z-]*"/)) {
              print f, (table == "" ? "-" : table), substr(line, RSTART, RLENGTH)
              line = substr(line, RSTART + RLENGTH) } }
        /^\];/ { table = "" }' "$f"
done)
if repeated=$(sort <<<"$flag_literals" | uniq -d | grep .); then
    echo "a flag is spelled once per table (file, table, flag):" >&2
    echo "$repeated" >&2
    exit 1
fi
if stray=$(grep ' - ' <<<"$flag_literals" | grep -v ' "--help"$'); then
    echo "flag literals belong in a table row, found outside one (file, -, flag):" >&2
    echo "$stray" >&2
    exit 1
fi
if [ "$(wc -l <<<"$flag_literals")" -ne 46 ]; then
    echo "expected 46 flag literals (45 rows + \"--help\") in non-test crates/cli/src, found $(wc -l <<<"$flag_literals")" >&2
    exit 1
fi

echo "== build (release) =="
cargo build --release

echo "== lints =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== fedlint =="
# Scans crates/*/src plus vendor/*/src (pool-discipline audits the
# hand-rolled rayon pool); the crate's own suite then pins every fixture
# line and proves every row of RULES has positive and negative fixtures.
# The workspace-global lock-set fixpoint must stay cheap enough to gate
# every PR, so the scan gets a generous-but-real wall-time budget.
lint_budget_s=120
lint_start=$(date +%s)
cargo run -q -p lint --release -- --deny
lint_elapsed=$(($(date +%s) - lint_start))
echo "fedlint: --deny completed in ${lint_elapsed}s (budget ${lint_budget_s}s)"
if [ "$lint_elapsed" -ge "$lint_budget_s" ]; then
    echo "fedlint: workspace scan blew its ${lint_budget_s}s budget — the lock-set engine (or a rule) has a perf regression" >&2
    exit 1
fi
cargo test -q -p lint

echo "== tests =="
# Every root integration suite, once. Among them, by the stage names this
# script used to run them a second time under:
#   fault tolerance   — tests/fault_tolerance.rs
#   crash recovery    — tests/crash_recovery.rs (the smoke below does the
#                       same dance with a real SIGKILL)
#   codec conformance — tests/golden_bytes.rs pins every format against
#                       images generated before the byte layer was last
#                       touched; tests/hostile_bytes.rs runs truncations,
#                       bit flips, lying lengths and resealed garbage
#                       against all three formats; tests/codec_conformance.rs
#                       and tests/comm_accounting.rs pin the numbers
cargo test -q

echo "== kernels =="
# The training kernels' own suites, which `cargo test -q` above does not
# reach: GEMM edge tiles and the packers against their element-wise
# references (bit for bit), im2col/col2im, the conv/dense/batch-norm
# gradient checks, and `train_step` against forward + backward + step to
# the bit for every architecture.
kernels_start=$(date +%s%N)
cargo test -q -p fedclust-tensor -p fedclust-nn
echo "kernels: stage took $((($(date +%s%N) - kernels_start) / 1000000)) ms"

echo "== clustering =="
# `cargo test -q` above is the root package only. Round 0's own suites live
# in the crates: the HAC oracle (the cached-minimum `agglomerative` against
# the full-rescan reference, whole dendrograms, exact f32, ties included),
# the non-finite-matrix pins and the cut properties in fedclust-cluster;
# warm-up, proximity matrix, the λ rule and Algorithm 1/2 in fedclust.
cluster_start=$(date +%s%N)
cargo test -q -p fedclust-cluster -p fedclust
echo "clustering: stage took $((($(date +%s%N) - cluster_start) / 1000000)) ms"

echo "== paper record =="
# results/paper_fast.txt is what `FEDCLUST_FAST=1 paper` printed at the
# commit that last moved a result byte on purpose; recomputing it here means
# the next such change has to touch the record in the same PR. The record was
# taken with the AVX2+FMA GEMM kernel, and FMA rounds differently, so on a
# host without it the comparison is skipped, not failed. The harness's own
# suite trains (40 runs per smoke-scale grid), so it runs optimised.
cargo build --release -p fedclust-bench
cargo test -q --release -p fedclust-bench --no-run
paper_start=$(date +%s%N)
cargo test -q --release -p fedclust-bench
if grep -qw fma /proc/cpuinfo && grep -qw avx2 /proc/cpuinfo; then
    FEDCLUST_FAST=1 target/release/paper 2>/dev/null | cmp - results/paper_fast.txt
else
    echo "SKIP (record is avx2+fma)"
fi
echo "paper record: stage took $((($(date +%s%N) - paper_start) / 1000000)) ms"

echo "== crash recovery =="
scripts/kill_resume_smoke.sh

echo "== networked federation =="
# Wire-protocol unit tests; every `fedclust-cli` library test — the lease
# table's own suite (its transition cases plus 2,000 seeded schedules of
# connections pulling, pushing, misbehaving and dying), the worker's
# untrainable-`Work` case and the flag tables' contracts, which no other
# stage runs — and the settle rule for what workers push (in fl::engine's);
# then the real binaries end to end: server + worker fleet over localhost
# TCP (plain, codec-compressed, through the chaos proxy, across a server
# SIGKILL + resume, and under worker crashes) must be byte-identical to the
# in-process simulation.
net_start=$(date +%s%N)
cargo test -q -p fedclust-proto
cargo test -q -p fedclust-cli --lib
cargo test -q -p fedclust-fl --lib engine
# Every wait inside the suite has its own deadline and fails with the
# server's stderr; `timeout` is the backstop that turns any hang those miss
# into a failed stage (built first, so the limit is on the tests alone).
cargo test -q -p fedclust-cli --test net_cli --no-run
timeout 300 cargo test -q -p fedclust-cli --test net_cli
scripts/net_smoke.sh
echo "networked federation: stage took $((($(date +%s%N) - net_start) / 1000000)) ms"

echo "== thread equivalence =="
# The suite itself sweeps thread counts inside each test; running the whole
# binary under two different pool defaults additionally proves the
# FEDCLUST_THREADS path and that the surrounding harness (checkpoint I/O,
# fault telemetry) is count-independent too. Includes the pool's
# panic-propagation tests via the vendored rayon crate.
FEDCLUST_THREADS=1 cargo test -q --test thread_equivalence
FEDCLUST_THREADS=4 cargo test -q --test thread_equivalence
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
# Dynamic double-check of the pool and wire suites when a nightly
# toolchain with TSan support is available; exits 0 with a skip message
# otherwise, and never gates the pipeline either way — fedlint's static
# concurrency rules are the gate.
scripts/tsan.sh || echo "tsan: failed (non-gating)"
