#!/usr/bin/env python3
"""Repository benchmark: build the harness from source, run one workload,
check its products, and print its metrics.

    python3 repobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

--workload all runs every workload in turn (each prints as below).

Run from the repository root. The harness (repobench/src, built with
repobench/CMakeLists.txt against the library sources) prints one JSON report
line with every metric it measured, its environment record and its operation
ledger. This script prints that report, a readable table of the metrics the
benchmark declares in BENCHMARK.json (end_to_end with --trace 0, per_layer
with --trace 1) with their units and sample counts, and as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

It exits 0 only when every product was right and no operation failed. The
build goes to $CARGO_TARGET_DIR (default .bench_build) under the repository
root; nothing is written outside it.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("square-reuse", "prep-amortize", "serve-frontier", "serve-sharded")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"repobench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def quiet(cmd, what):
    """Run a build step; show its output (on stderr) only if it fails."""
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                         text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        fail(what)


def build(build_dir):
    """Configure once (until a configure succeeds), then build incrementally."""
    configured = build_dir / ".configured"
    if not configured.exists():
        quiet(["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"],
              "configure failed (the library sources must sit one directory "
              "above repobench/)")
        configured.touch()
    jobs = str(max(1, os.cpu_count() or 1))
    quiet(["cmake", "--build", str(build_dir), "--target", "repobench", "-j", jobs],
          "build failed")
    return build_dir / "repobench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs for the self-test")
    args = ap.parse_args()

    exe = build(build_root() / "repobench-build")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_workload(exe, w, args) for w in workloads]
    sys.exit(max(codes))


def run_workload(exe, workload, args):
    """Run one workload; print its report, table and result line."""
    out_dir = build_root() / "repobench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = res.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"harness exited {res.returncode} without a report")

    measured = report["metrics"]
    chosen = {}
    for m in declared_metrics(args.trace):
        got = measured.get(m["name"])
        if got is None:
            fail(f"{workload}: metric {m['name']} was not measured")
        if got["unit"] != m["unit"]:
            fail(f"{workload}: {m['name']} measured in {got['unit']}, "
                 f"declared in {m['unit']}")
        chosen[m["name"]] = got

    print(json.dumps(report))
    for name, got in chosen.items():
        samples = got.get("samples")
        print(f"  {name:32s} {got['value']:>16.6g} {got['unit']:8s} "
              f"{got['label']:9s} n={samples if samples else '-'}")
    if report.get("problem"):
        print(f"  problem: {report['problem']}")
    print(json.dumps({
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {n: {"value": g["value"], "unit": g["unit"]}
                    for n, g in chosen.items()},
    }), flush=True)
    return 0 if res.returncode == 0 else 1


if __name__ == "__main__":
    main()
