#!/usr/bin/env python3
"""Summarises and compares benchmark results written by run.py.

    python3 perfbench/compare.py .bench_build/perfbench/results
    python3 perfbench/compare.py NEW_DIR --against BASE_DIR

Results are grouped by workload and trace mode. For each metric the
tool prints the median of the runs, their quartiles and the spread (the
interquartile distance as a share of the median); with --against it
also prints the base median, the change, and whether an end-to-end
metric got worse by more than its bound in BENCHMARK.json. It refuses
to mix results whose build stamps differ (build type, compiler and
version, flags, nproc, worker threads or SHA-256 backend): such numbers
do not measure the same thing. The git sha and source digest are
expected to differ between the two sides and are only printed.
"""

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
ENVIRONMENT_KEYS = ("build_type", "compiler", "compiler_version", "flags",
                    "nproc", "worker_threads", "sha256_backend")


def load(paths):
    results = []
    for p in map(Path, paths):
        files = sorted(p.glob("*.json")) if p.is_dir() else [p]
        results += [json.loads(f.read_text()) for f in files]
    return results


def environment(result):
    return {k: result["stamp"][k] for k in ENVIRONMENT_KEYS}


def check_stamps(results):
    """Returns an error message when the results' environments differ."""
    first = environment(results[0])
    for r in results[1:]:
        env = environment(r)
        if env != first:
            diff = {k: (first[k], env[k]) for k in first if first[k] != env[k]}
            return f"stamps differ: {diff}"
    return None


def grouped(results):
    groups = defaultdict(lambda: defaultdict(list))
    for r in results:
        for name, m in r["metrics"].items():
            groups[(r["workload"], r["trace"])][name].append(m["value"])
    return groups


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = stats.quartiles(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="+")
    parser.add_argument("--against", nargs="+", default=[])
    args = parser.parse_args()

    new = load(args.results)
    base = load(args.against)
    if not new:
        print("compare: no results found", file=sys.stderr)
        return 2
    error = check_stamps(new + base)
    if error:
        print(f"compare: refusing to compare: {error}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    new_groups, base_groups = grouped(new), grouped(base)
    worse = 0
    for key in sorted(new_groups):
        workload, trace = key
        runs = sum(1 for r in new if (r["workload"], r["trace"]) == key)
        print(f"{workload} (trace {trace}, {runs} runs)")
        for name, values in new_groups[key].items():
            med, q1, q3, spread = summary(values)
            line = (f"  {name:40s} median {med:<14.6g} q1 {q1:<12.6g} "
                    f"q3 {q3:<12.6g} spread {spread:.4f}")
            if name in bounds:
                line += f" (bound {bounds[name]['bound']})"
            old = base_groups.get(key, {}).get(name)
            if old:
                old_med = stats.median(old)
                change = (med - old_med) / old_med if old_med else 0.0
                line += f" | base {old_med:<12.6g} change {change:+.4f}"
                if name in bounds:
                    m = bounds[name]
                    loss = change if m["better"] == "lower" else -change
                    if loss > m["bound"]:
                        line += " WORSE THAN BOUND"
                        worse += 1
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
