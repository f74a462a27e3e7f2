#!/usr/bin/env python3
"""Fleet-epoch benchmark: one command that builds the repository in
Release inside .bench_build/perfbench, runs one workload in a fresh
process, checks its outputs and prints every metric by name and unit.

    python3 perfbench/run.py --workload passive_wfi --seed 1 \
        --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones (from a separate traced run). The last stdout line
is {"correct", "attempted", "failed", "metrics"}; the full stamped
result is also written under .bench_build/perfbench/results/ for
perfbench/compare.py. --expect-digest and --tamper-siem are negative
tests: a wrong digest or a tampered SIEM line must fail the run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench_fleet"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_name):
    """Runs a build step, keeping its output in a log under BUILD_DIR."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / log_name
    with open(log, "w") as out:
        code = subprocess.run(cmd, cwd=ROOT, stdout=out,
                              stderr=subprocess.STDOUT).returncode
    if code != 0:
        tail = log.read_text(errors="replace").splitlines()[-20:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"{' '.join(cmd[:2])} failed (log: {log})")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("repository sources (src/) not found next to perfbench/")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=Release"], "configure.log")
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(BUILD_DIR), "--target",
                "perfbench_fleet", "-j", jobs], "build.log")


def source_digest():
    """SHA-256 over every file the benchmark builds from, so results
    from different code are told apart even outside a git checkout."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, env=env)
    return out.stdout.strip() if out.returncode == 0 else None


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def end_to_end(raw):
    tail_ms, tail_pct, samples = stats.tail(raw["epoch_ms"])
    values = {
        "setup_s": stats.median(raw["setup_s"]),
        "epoch_p50_ms": stats.median(raw["epoch_ms"]),
        "epoch_tail_ms": tail_ms,
        "node_cycles_per_s": raw["node_cycles"] / raw["epoch_wall_s"],
        "heap_bytes_per_node": stats.median(raw["heap_bytes_per_node"]),
        "peak_rss_bytes": float(raw["peak_rss_bytes"]),
    }
    notes = {"epoch_tail_percentile": tail_pct, "epoch_samples": samples,
             "setup_samples": len(raw["setup_s"])}
    return values, notes


def per_layer(raw):
    values = dict(raw["layers"])
    values["failure_ratio"] = raw["failed"] / raw["attempted"]
    return values, {"trace_file": raw["trace_file"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--expect-digest", default="")
    parser.add_argument("--tamper-siem", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    build()

    out_dir = BUILD_DIR / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--out", str(out_dir)]
    if args.expect_digest:
        cmd += ["--expect-digest", args.expect_digest]
    if args.tamper_siem:
        cmd.append("--tamper-siem")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{args.workload} printed no result (exit {proc.returncode})")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values, notes = per_layer(raw) if args.trace else end_to_end(raw)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"harness produced no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    stamp = {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "build_type": raw["build_type"],
        "compiler": raw["compiler"],
        "compiler_version": raw["compiler_version"],
        "flags": raw["flags"],
        "nproc": os.cpu_count(),
        "worker_threads": raw["worker_threads"],
        "sha256_backend": raw["sha256_backend"],
    }
    correct = proc.returncode == 0 and raw["failed"] == 0
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "stamp": stamp, "digest": raw["digest"],
        "trials": raw["trials"], "devices": raw["devices"], **notes,
        "correct": correct, "attempted": raw["attempted"],
        "failed": raw["failed"], "metrics": metrics,
    }
    results_dir = BUILD_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(result, indent=1) + "\n")

    print("stamp: " + json.dumps(stamp, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {raw['trials']} "
          f"trials, estate digest {raw['digest']}")
    if args.trace:
        print(f"spans: {notes['trace_file']}")
    else:
        print(f"epoch_tail_ms is p{100 * notes['epoch_tail_percentile']:.1f} "
              f"of {notes['epoch_samples']} epochs; setup_s is the median "
              f"of {notes['setup_samples']} enrolments")
    for m in wanted:
        print(f"  {m['name']:40s} {values[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
