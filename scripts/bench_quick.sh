#!/usr/bin/env bash
# Interactive criterion pass: short warm-up and measurement windows so a
# full micro sweep finishes in well under a minute. Extra args (e.g. a name
# filter like `conv2d`) are forwarded to the bench binary. End-to-end and
# per-layer numbers come from the repo's benchmark instead
# (`bash benchmark/run.sh`, see benchmark/README.md).
#
# Usage: scripts/bench_quick.sh [filter] [-- extra cargo args]
set -euo pipefail
cd "$(dirname "$0")/.."

cargo bench -p fedclust-bench --bench micro -- \
    --warm-up-time 0.5 --measurement-time 1 "$@"
