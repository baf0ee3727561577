#!/usr/bin/env bash
# Builds `soi` and the benchmark binary, then runs the benchmark.
#
#   benchmark/run.sh [--seed N] [--workload NAME]... [--seconds S] [--traced] [--smoke]
#       every selected workload with its layer pass; writes benchmark/out/<run-id>/
#   benchmark/run.sh --repeat 2 [...]
#       the same set twice, then `compare` in both directions (self-agreement)
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload, one JSON result line (the BENCHMARK.json contract)
#   benchmark/run.sh compare A/results.json B/results.json
#   benchmark/run.sh metrics
#
# See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
# The benchmark measures the repository around it and is nothing without it
# (cargo would otherwise search the parent directories for a manifest).
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates/cli" ]; then
    echo "benchmark/run.sh: no repository around $here (need Cargo.toml and crates/)" >&2
    exit 1
fi

# One target directory for both builds, so the crates they share compile
# once. A relative CARGO_TARGET_DIR is relative to the repository root.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries results only.
cargo build --release --offline -p soi-cli 1>&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" 1>&2
bench="$target/release/benchmark"
soi="$target/release/soi"

repeat=1
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --repeat)
            repeat="${2:?--repeat needs a count}"
            shift 2
            ;;
        *)
            args+=("$1")
            shift
            ;;
    esac
done

case "${args[0]:-}" in
    compare | metrics) exec "$bench" "${args[@]}" ;;
esac
mkdir -p "$here/out"

run_once() {
    "$bench" --soi "$soi" --out "$here/out" ${args[@]+"${args[@]}"}
}

if [ "$repeat" -le 1 ]; then
    run_once
    exit $?
fi

# --repeat N: N sets of the same runs, then every later set is compared
# with the first, in both directions.
results=()
for _ in $(seq "$repeat"); do
    log="$(mktemp "$here/out/repeat.XXXXXX")"
    run_once | tee "$log"
    results+=("$(sed -n 's/^results //p' "$log" | tail -n 1)")
    rm -f "$log"
done
status=0
for ((i = 1; i < ${#results[@]}; i++)); do
    "$bench" compare "${results[0]}" "${results[$i]}" || status=$?
    "$bench" compare "${results[$i]}" "${results[0]}" || status=$?
done
exit "$status"
