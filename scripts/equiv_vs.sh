#!/usr/bin/env bash
# Cross-build equivalence: prove this tree agrees with another commit byte
# for byte, not just with itself. The in-repo suites (threads, resume,
# codec, wire) compare a build against itself; a refactor that changes a
# byte consistently passes all of them. This script builds <git-ref> next
# to the working tree and, for all eleven methods + `local`, compares
#
#   plain      --json stdout
#   faulty     --json stdout under `--codec delta+topk:0.1` and a lossy,
#              straggling, corrupting link
#   resumed    (not `local`) per-round checkpoints, run to half the rounds,
#              then `--resume` to the end: --json stdout of both legs, the
#              generation files left after each leg (names and bytes)
#
# between the two binaries; compares scaffold, feddyn, lg, perfedavg and
# ifca on `--dataset cifar100` (ResNet-9, whose batch-norm statistics make
# the state longer than the parameters), plain and faulty; checks that
# this tree refuses `local` with
# `--checkpoint-dir` (Local keeps no server state, and an older build may
# have ignored the flag); and then round 0's other readers: the stdout of
# `cluster` and `sweep --points 4`, plain and under the faulty link, at the
# methods' 8 clients and at 40 (two full 16-pair lane blocks of the
# proximity matrix and a ragged third). Same host, same kernel dispatch, so FMA vs
# scalar rounding cannot confuse it. Exits non-zero on the first differing
# byte.
#
#   scripts/equiv_vs.sh <git-ref>
#
# The other commit is exported with `git archive` (not `git worktree add`:
# an export registers nothing in .git, so there is nothing to leave behind
# even on SIGKILL) into a temp dir that is removed on every exit path, and
# built offline into its own target dir there.
set -euo pipefail
cd "$(dirname "$0")/.."

REF=${1:?usage: scripts/equiv_vs.sh <git-ref>}
COMMIT=$(git rev-parse --verify "$REF^{commit}")

WORK=$(mktemp -d "${TMPDIR:-/tmp}/fedclust-equiv.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

echo "-- exporting $REF ($COMMIT)"
mkdir "$WORK/src"
git archive "$COMMIT" | tar -x -C "$WORK/src"

echo "-- building both trees (release, offline)"
(cd "$WORK/src" && CARGO_TARGET_DIR="$WORK/target" cargo build --release --offline -q -p fedclust-cli)
cargo build --release --offline -q -p fedclust-cli
THEIRS="$WORK/target/release/fedclust-cli"
OURS=target/release/fedclust-cli

METHODS=(local fedavg fedprox fednova lg perfedavg cfl ifca pacfl scaffold feddyn fedclust)
ROUNDS=6
BASE=(--dataset fmnist --partition skew30 --clients 8 --epochs 1
  --samples-per-class 20 --seed 7 --threads 1 --json)
WIDE=(--dataset fmnist --partition skew30 --clients 40 --epochs 1
  --samples-per-class 100 --seed 7 --threads 1 --json)
RESNET_METHODS=(scaffold feddyn lg perfedavg ifca)
RESNET=(--dataset cifar100 --partition skew30 --clients 10 --epochs 1
  --samples-per-class 3 --seed 7 --threads 1 --json)
FAULTY=(--codec delta+topk:0.1 --uplink-loss 0.2 --downlink-loss 0.3 --retries 1
  --corrupt-rate 0.15 --straggler-rate 0.3 --straggler-delay 1.0 --deadline 1.5)

compared=0
resumed=0
same() { # same <what> <file-a> <file-b>
  if ! cmp "$2" "$3"; then
    echo "DIFFERENT: $1" >&2
    exit 1
  fi
  compared=$((compared + 1))
}

# cli <ours|theirs> <out-file> <subcommand> <args...>
cli() {
  local bin=$OURS
  [ "$1" = theirs ] && bin=$THEIRS
  "$bin" "${@:3}" > "$2" 2> "$2.err" || {
    echo "FAILED ($1): ${*:3}" >&2
    cat "$2.err" >&2
    exit 1
  }
}

same_generations() { # same_generations <what> <dir-ours> <dir-theirs>
  same "$1: generation listing" <(ls "$2") <(ls "$3")
  local f
  for f in "$2"/*; do
    [ -e "$f" ] || continue # no generations: the glob matched nothing
    same "$1: $(basename "$f")" "$f" "$3/$(basename "$f")"
  done
}

for m in "${METHODS[@]}"; do
  d="$WORK/$m"
  mkdir "$d"
  for side in ours theirs; do
    cli $side "$d/plain.$side" run --method "$m" --rounds $ROUNDS "${BASE[@]}"
    cli $side "$d/faulty.$side" run --method "$m" --rounds $ROUNDS "${BASE[@]}" "${FAULTY[@]}"
    [ "$m" = local ] && continue # no server state: refused below
    cli $side "$d/half.$side" run --method "$m" --rounds $((ROUNDS / 2)) "${BASE[@]}" \
      --checkpoint-dir "$d/ckpt.$side" --checkpoint-every 1
    cp -r "$d/ckpt.$side" "$d/ckpt-half.$side"
    cli $side "$d/resumed.$side" run --method "$m" --rounds $ROUNDS "${BASE[@]}" \
      --checkpoint-dir "$d/ckpt.$side" --checkpoint-every 1 --resume
  done
  same "$m plain" "$d/plain.ours" "$d/plain.theirs"
  same "$m faulty" "$d/faulty.ours" "$d/faulty.theirs"
  if [ "$m" != local ]; then
    same "$m half" "$d/half.ours" "$d/half.theirs"
    same "$m resumed" "$d/resumed.ours" "$d/resumed.theirs"
    same_generations "$m after half" "$d/ckpt-half.ours" "$d/ckpt-half.theirs"
    same_generations "$m after resume" "$d/ckpt.ours" "$d/ckpt.theirs"
    resumed=$((resumed + 1))
  fi
  echo "   $m: identical"
done

for m in "${RESNET_METHODS[@]}"; do
  d="$WORK/resnet-$m"
  mkdir "$d"
  for side in ours theirs; do
    cli $side "$d/plain.$side" run --method "$m" --rounds $ROUNDS "${RESNET[@]}"
    cli $side "$d/faulty.$side" run --method "$m" --rounds $ROUNDS "${RESNET[@]}" "${FAULTY[@]}"
  done
  same "$m cifar100 plain" "$d/plain.ours" "$d/plain.theirs"
  same "$m cifar100 faulty" "$d/faulty.ours" "$d/faulty.theirs"
done
echo "   ${RESNET_METHODS[*]} on cifar100 (ResNet-9): identical"

d="$WORK/local"
status=0
"$OURS" run --method local --rounds $ROUNDS "${BASE[@]}" --checkpoint-dir "$d/ckpt" \
  > "$d/refused.out" 2> "$d/refused.err" || status=$?
if [ $status -ne 1 ] || [ -s "$d/refused.out" ] || [ -e "$d/ckpt" ] ||
  ! grep -q "Local keeps no server state" "$d/refused.err"; then
  echo "NOT REFUSED: local --checkpoint-dir (exit $status)" >&2
  cat "$d/refused.err" >&2
  exit 1
fi
echo "   local --checkpoint-dir: refused"

d="$WORK/round0"
mkdir "$d"
for side in ours theirs; do
  cli $side "$d/cluster.$side" cluster "${BASE[@]}"
  cli $side "$d/cluster-faulty.$side" cluster "${BASE[@]}" "${FAULTY[@]}"
  cli $side "$d/sweep.$side" sweep --points 4 "${BASE[@]}"
  cli $side "$d/sweep-faulty.$side" sweep --points 4 "${BASE[@]}" "${FAULTY[@]}"
  cli $side "$d/cluster-40.$side" cluster "${WIDE[@]}"
  cli $side "$d/cluster-40-faulty.$side" cluster "${WIDE[@]}" "${FAULTY[@]}"
  cli $side "$d/sweep-40.$side" sweep --points 4 "${WIDE[@]}"
  cli $side "$d/sweep-40-faulty.$side" sweep --points 4 "${WIDE[@]}" "${FAULTY[@]}"
done
for what in cluster cluster-faulty sweep sweep-faulty \
  cluster-40 cluster-40-faulty sweep-40 sweep-40-faulty; do
  same "$what" "$d/$what.ours" "$d/$what.theirs"
done
echo "   cluster, sweep at 8 and 40 clients: identical"

echo "OK: ${#METHODS[@]} methods x {plain, codec+faults}, $resumed x checkpoint+resume," \
  "${#RESNET_METHODS[@]} on ResNet-9 x {plain, codec+faults}, cluster and" \
  "sweep x {plain, codec+faults} x {8, 40} clients: $compared comparisons against $COMMIT," \
  "0 differing bytes; local --checkpoint-dir refused"
