#!/usr/bin/env bash
# benchmark/repeat.sh N [seed]
#     runs every workload N times untraced at one seed (default 1): the
#     exact metrics must then repeat bit for bit.
# benchmark/repeat.sh N seeds [first-seed]
#     the same with another seed each time, as the driver does it.
# benchmark/repeat.sh compare A.jsonl B.jsonl
#     the medians of two earlier sets against each other.
#
# Prints for each workload and end-to-end metric the median, the quartiles
# and the relative spread (q3 - q1) / median as Python's
# statistics.quantiles gives them (the driver's definition), the bound
# from BENCHMARK.json (0 for an exact metric at a fixed seed) and whether
# the spread is within it; then the same for the six ungated timings,
# read off each run's table, with no bound to hold them to. This is the
# tool that sets the bounds; its output is BASELINE.md. Results also go to
# benchmark/out/repeat-<stamp>.jsonl, one object per run.
set -euo pipefail
HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$HERE/out"

if [ "${1:-}" = compare ]; then
    exec python3 "$HERE/repeat.py" compare "$HERE/../BENCHMARK.json" "$2" "$3"
fi

N="${1:?usage: repeat.sh N [seed] | repeat.sh N seeds [first-seed] | repeat.sh compare A.jsonl B.jsonl}"
if [ "${2:-}" = seeds ]; then STEP=1; FIRST="${3:-1}"; else STEP=0; FIRST="${2:-1}"; fi
SECONDS_PER_RUN="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$HERE/../BENCHMARK.json")"
OUT="$HERE/out/repeat-$(date +%Y%m%dT%H%M%S).jsonl"
: > "$OUT"
for w in scan-local scan-fleet point-fleet churn-durable; do
    for ((i = 0; i < N; i++)); do
        seed=$((FIRST + i * STEP))
        echo "run $w seed $seed" >&2
        log="$("$HERE/run.sh" --workload "$w" --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0)"
        timings="$(awk '$1 ~ /^(answers_per_s|requests_per_s|(ttfa|request)_p(50|99)_us)$/ \
            { printf "%s\"%s\": %s", sep, $1, $2; sep = ", " }' <<< "$log")"
        echo "{\"workload\": \"$w\", \"seed\": $seed, \"result\": $(tail -n 1 <<< "$log"), \"timings\": {$timings}}" >> "$OUT"
    done
done
echo "results in $OUT" >&2
python3 "$HERE/repeat.py" summary "$HERE/../BENCHMARK.json" "$OUT"
