"""Spread of repeated runs against the bounds, for repeat.sh.

Quartiles are statistics.quantiles(values, n=4), the driver's definition.
"""
import json
import statistics
import sys

# Metrics that depend on the inputs alone: at one seed they repeat exactly.
EXACT = ("rep_bytes_per_tuple", "rep_vs_output")


def load(path):
    runs, seeds = {}, set()
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            seeds.add(r["seed"])
            for name, m in r["result"]["metrics"].items():
                runs.setdefault((r["workload"], name), []).append(m["value"])
            for name, value in r["timings"].items():
                runs.setdefault((r["workload"], name), []).append(value)
            runs.setdefault((r["workload"], "ops_failed"), []).append(r["result"]["failed"])
    return runs, len(seeds) == 1


def row(w, name, unit, values, bound):
    """One table row; returns whether the spread is within `bound`."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2
    within = bound is None or spread <= bound
    print(
        f"| {w} | {name} | {unit} | {q2:.6g} | {q1:.6g} | {q3:.6g} | {spread * 100:.2f}% | "
        + ("ungated | |" if bound is None else f"{bound * 100:g}% | {'within' if within else 'EXCEEDS'} |")
    )
    return within


def summary(bench, path):
    runs, one_seed = load(path)
    ok = True
    print("| workload | metric | unit | median | q1 | q3 | spread | bound | |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in [w["name"] for w in bench["workloads"]]:
        for m in bench["end_to_end"]:
            bound = 0.0 if one_seed and m["name"] in EXACT else m["bound"]
            ok &= row(w, m["name"], m["unit"], runs[(w, m["name"])], bound)
        for m in bench["per_layer"]:
            if (w, m["name"]) in runs:
                row(w, m["name"], m["unit"], runs[(w, m["name"])], None)
        failed = sum(runs[(w, "ops_failed")])
        ok &= failed == 0
        print(f"| {w} | ops_failed | count | {failed} | | | | 0 | {'within' if failed == 0 else 'EXCEEDS'} |")
    return ok


def compare(bench, a_path, b_path):
    (a, _), (b, _) = load(a_path), load(b_path)
    ok = True
    print("| workload | metric | median A | median B | B worse by | bound | |")
    print("|---|---|---|---|---|---|---|")
    for w in [w["name"] for w in bench["workloads"]]:
        for m in bench["end_to_end"]:
            ma, mb = (statistics.median(s[(w, m["name"])]) for s in (a, b))
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            within = worse <= m["bound"]
            ok &= within
            print(
                f"| {w} | {m['name']} | {ma:.6g} | {mb:.6g} | {worse * 100:+.2f}% | "
                f"{m['bound'] * 100:g}% | {'within' if within else 'EXCEEDS'} |"
            )
    return ok


def main():
    mode, bench_path, *paths = sys.argv[1:]
    with open(bench_path) as f:
        bench = json.load(f)
    ok = summary(bench, *paths) if mode == "summary" else compare(bench, *paths)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
