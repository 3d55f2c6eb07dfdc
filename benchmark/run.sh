#!/usr/bin/env bash
# The benchmark's one command. Builds the release binaries under test and
# the benchmark package (offline), then runs it.
#
#   benchmark/run.sh [--seed S] [--reps N]        everything: all workloads
#                                                 end to end, then per layer
#   benchmark/run.sh --smoke                      the same at a tenth of the
#                                                 size, 1 rep, under 30 s
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#                                                 one workload, one side: the
#                                                 form BENCHMARK.json's driver
#                                                 uses; the last stdout line
#                                                 is the result object
#
# Every form checks the program's outputs and exits non-zero if one is
# wrong. Numbers land in benchmark/out/{e2e,trace}.json and
# benchmark/out/trace_<workload>.jsonl.
set -euo pipefail

# A relative CARGO_TARGET_DIR is relative to where we were started.
target=$(realpath -m "${CARGO_TARGET_DIR:-$(dirname "$0")/../target}")
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries the result. `fedbench` is
# built on its own so that it survives a refactor `fedbench-trace` does not.
build() { cargo build --release --offline -q "$@" >&2; }
build -p fedclust-cli
build --manifest-path benchmark/Cargo.toml --bin fedbench

fedbench=("$target/release/fedbench" --bin-dir "$target/release" --out-dir benchmark/out)
case " $* " in
*" --trace 0 "*)
    exec "${fedbench[@]}" "$@"
    ;;
*" --trace 1 "*)
    build --manifest-path benchmark/Cargo.toml --bin fedbench-trace
    exec "${fedbench[@]}" "$@"
    ;;
*)
    "${fedbench[@]}" --trace 0 "$@"
    build --manifest-path benchmark/Cargo.toml --bin fedbench-trace
    "${fedbench[@]}" --trace 1 "$@"
    ;;
esac
