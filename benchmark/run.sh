#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh
#       builds offline, runs the four workloads untraced and then traced,
#       checks every answer and that scan-fleet streamed what scan-local
#       did, and prints every metric by name and unit.
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1 [--quick]
#       one run; the last line of standard output is the result object.
#
# Environment: SEED for the suite (default 1; it runs for the run_seconds
# of BENCHMARK.json), QUICK=1 for the seconds-long smoke mode,
# CARGO_TARGET_DIR for the build directory (default benchmark/target).
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$HERE/target}"
WORKLOADS=(scan-local scan-fleet point-fleet churn-durable)

# Build chatter goes to standard error; standard output is the report.
cargo build --release --offline --manifest-path "$HERE/Cargo.toml" >&2
# CARGO_TARGET_DIR may be relative to where this was started.
BIN="$(cd "$CARGO_TARGET_DIR" && pwd)/release/cqc-benchmark"

BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
BENCH_COMMIT="$(git -C "$HERE" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_RUSTC BENCH_COMMIT

# The program writes under out/ of the directory it runs in.
cd "$HERE"
mkdir -p out
if [ "$#" -gt 0 ]; then
    exec "$BIN" "$@"
fi

SEED="${SEED:-1}"
SECONDS_PER_RUN="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$HERE/../BENCHMARK.json")"
QUICK_FLAG=()
if [ "${QUICK:-0}" = 1 ]; then QUICK_FLAG=(--quick); fi

status=0
for trace in 0 1; do
    for w in "${WORKLOADS[@]}"; do
        log="$HERE/out/suite-$w-trace$trace.txt"
        echo "== $w --trace $trace"
        "$BIN" --workload "$w" --seed "$SEED" \
            --seconds "$SECONDS_PER_RUN" --trace "$trace" "${QUICK_FLAG[@]}" | tee "$log" || status=1
        tail -n 1 "$log" | grep -q '"correct": true' || status=1
    done
done

# The same seed gives both scan workloads the same requests, so the fleet
# must have streamed exactly what the in-process engine did.
hashes() { sed -n 's/^# hashes //p' "$HERE/out/suite-$1-trace0.txt"; }
if [ "$(hashes scan-local)" = "$(hashes scan-fleet)" ] && [ -n "$(hashes scan-local)" ]; then
    echo "== scan-fleet hashes equal scan-local: $(hashes scan-local)"
else
    echo "== MISMATCH scan-local [$(hashes scan-local)] scan-fleet [$(hashes scan-fleet)]"
    status=1
fi
if [ "$status" = 0 ]; then echo "== suite ok"; else echo "== suite FAILED"; fi
exit "$status"
