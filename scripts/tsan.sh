#!/usr/bin/env bash
# Best-effort ThreadSanitizer pass over the concurrency-heavy suites: the
# scoped fork-join behind every parallel map (vendor/rayon, including the
# schedule-stress tests), the networked-federation wire tests, and the
# fedclust-cli library suites (fedclustd's owner thread and its lease
# table). TSan
# needs a nightly toolchain with `-Zsanitizer=thread` plus the rebuilt std
# (`-Zbuild-std`); the pinned CI container ships stable only, so this
# script probes for support and exits 0 with a skip message when it's
# absent. The always-on gate is the compiler (Send/Sync) plus fedlint's
# `no locks` and `one relaxed atomic` confinement rows; TSan is the dynamic
# double-check wherever the toolchain allows it.
set -euo pipefail
cd "$(dirname "$0")/.."

skip() {
    echo "tsan: skipped — $1"
    exit 0
}

command -v cargo >/dev/null 2>&1 || skip "cargo not on PATH"

# TSan is a nightly-only -Z flag; `cargo +nightly` must resolve.
if ! cargo +nightly --version >/dev/null 2>&1; then
    skip "no nightly toolchain installed (-Zsanitizer=thread requires nightly)"
fi

host="$(rustc -vV | sed -n 's/^host: //p')"
case "$host" in
x86_64-unknown-linux-gnu | aarch64-unknown-linux-gnu | x86_64-apple-darwin | aarch64-apple-darwin) ;;
*) skip "host triple $host has no TSan runtime" ;;
esac

# rust-src is needed to rebuild std with the sanitizer (-Zbuild-std).
if ! cargo +nightly rustc -p rayon --lib -- --emit=metadata >/dev/null 2>&1; then
    skip "nightly toolchain present but cannot compile the workspace"
fi
if ! rustup component list --toolchain nightly 2>/dev/null | grep -q '^rust-src (installed)'; then
    skip "nightly rust-src component not installed (needed for -Zbuild-std)"
fi

echo "tsan: running rayon + proto + cli suites under ThreadSanitizer ($host)"
export RUSTFLAGS="-Zsanitizer=thread"
export RUSTDOCFLAGS="-Zsanitizer=thread"
# A dedicated target dir keeps sanitized artifacts out of the normal cache.
export CARGO_TARGET_DIR="target/tsan"
export TSAN_OPTIONS="halt_on_error=1"

cargo +nightly test -Zbuild-std --target "$host" -q -p rayon
cargo +nightly test -Zbuild-std --target "$host" -q -p fedclust-proto
cargo +nightly test -Zbuild-std --target "$host" -q -p fedclust-cli --lib

echo "tsan: clean"
