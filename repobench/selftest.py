#!/usr/bin/env python3
"""Self-test of the repository benchmark at smoke size.

    python3 repobench/selftest.py

Runs every workload through run.py --smoke, untraced and traced, and asserts:
  * the last line is exactly {correct, attempted, failed, metrics}, correct,
    nothing failed, with exactly the metrics BENCHMARK.json declares for the
    mode, in the declared units;
  * the report carries every end-to-end metric with its unit, timings with
    their sample count, and error_rate is 0;
  * the traced report carries every per-layer metric the workload is
    expected to move, with a unit; work counters are labelled "computed";
  * the environment record names the seed, nproc, OpenMP threads, SIMD tier,
    L2/LLC sizes and the B bytes;
  * traced spans nest: every child lies inside its parent, and every span's
    self time (its duration minus the union of its children) is >= 0.
Exits 1 on the first failed assertion.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

END_TO_END = ["setup_s", "raw_to_products_s", "round_ms_p50", "round_ms_p95",
              "request_ms_p50", "request_ms_p95", "throughput_rps",
              "peak_rss_mb", "error_rate"]
SETUP = ["core.cluster_ms", "matrix.format_ms", "matrix.permute_ms",
         "matrix.csr_bytes", "matrix.clustered_bytes", "obs.trace_overhead_pct"]
KERNEL = ["core.multiply_ms", "core.unpermute_ms", "core.symbolic_ms",
          "core.numeric_ms", "core.speedup_vs_rowwise", "core.clusters",
          "core.mean_cluster_rows", "core.b_reuse", "accumulator.probes",
          "accumulator.probes_rowwise", "core.ops_per_byte", "spgemm.flops",
          "spgemm.output_nnz"]
ROWWISE = ["spgemm.rowwise_ms", "spgemm.rowwise_1t_ms", "spgemm.symbolic_ms",
           "spgemm.numeric_ms"]
ENGINE = ["serve.batch_mean", "serve.stacked_frac", "serve.window_timeout_frac",
          "serve.busy_frac"] + [
    f"fault.errors.{c}" for c in ("deadline_exceeded", "shed", "corrupt_snapshot",
                                  "io_error", "cancelled", "internal")]


def per_matrix(names, roles):
    return [f"{n}.{r}" for n in names for r in roles]


PER_LAYER = {
    "square-reuse": SETUP + ["core.advise_ms", "reorder.ms"]
    + per_matrix(KERNEL + ROWWISE, ["lattice", "mesh", "powerlaw"]),
    "prep-amortize": SETUP + ["reorder.ms", "reorder.bandwidth_ratio"]
    + per_matrix(KERNEL + ROWWISE, ["lattice", "mesh"]),
    "serve-frontier": SETUP + ENGINE + [
        "core.advise_ms", "spgemm.stack_ms", "spgemm.split_ms",
        "serve.fingerprint_us", "serve.lookup_us", "serve.submit_us",
        "serve.overhead_ms", "serve.registry_hit_rate", "serve.evictions"]
    + per_matrix(["core.multiply_ms", "core.unpermute_ms"],
                 ["lattice", "mesh", "powerlaw"]),
    "serve-sharded": SETUP + ENGINE + [
        "serve.snapshot_save_ms", "serve.snapshot_load_ms", "shard.plan_ms",
        "shard.multiply_ms_max", "shard.imbalance", "shard.gather_overhead_ms",
        "io.cold_multiplies"],
}
ENV = ["seed", "nproc", "omp_threads", "simd.tier", "l2_bytes", "llc_bytes"]
COMPUTED_PREFIXES = ("accumulator.probes", "spgemm.flops", "core.b_row_fetches",
                     "core.b_bytes", "core.clusters", "matrix.csr_bytes",
                     "matrix.clustered_bytes", "spgemm.output_nnz")


def check(cond, msg):
    if not cond:
        print(f"selftest FAILED: {msg}", file=sys.stderr)
        sys.exit(1)


def run(workload, trace):
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = res.stdout.strip().splitlines()
    check(res.returncode == 0, f"{workload} trace={trace} exited {res.returncode}")
    return json.loads(lines[0]), json.loads(lines[-1])


def check_result_line(workload, trace, last):
    tag = f"{workload} trace={trace}"
    check(set(last) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: result keys {sorted(last)}")
    check(last["correct"] is True, f"{tag}: products not correct")
    check(last["failed"] == 0 and last["attempted"] >= 1, f"{tag}: ledger {last}")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    check(list(last["metrics"]) == [m["name"] for m in declared],
          f"{tag}: result metrics differ from BENCHMARK.json")
    for m in declared:
        got = last["metrics"][m["name"]]
        check(set(got) == {"value", "unit"} and got["unit"] == m["unit"],
              f"{tag}: {m['name']} = {got}")


def check_spans(workload, report):
    check(report["span_check"]["outside_parent"] == 0 and
          report["span_check"]["unclosed"] == 0,
          f"{workload}: harness span check {report['span_check']}")
    events = json.loads(Path(report["span_file"]).read_text())["traceEvents"]
    check(len(events) > 0, f"{workload}: no spans recorded")
    by_id = {e["args"]["id"]: e for e in events}
    children = {}
    eps = 1e-3  # µs; timestamps are printed from integer nanoseconds
    for e in events:
        p = e["args"]["parent"]
        if p < 0:
            continue
        parent = by_id[p]
        check(e["tid"] == parent["tid"], f"{workload}: child on another thread")
        check(e["ts"] >= parent["ts"] - eps and
              e["ts"] + e["dur"] <= parent["ts"] + parent["dur"] + eps,
              f"{workload}: span {e['name']} outside parent {parent['name']}")
        children.setdefault(p, []).append((e["ts"], e["ts"] + e["dur"]))
    for i, e in by_id.items():
        covered, end = 0.0, None
        for b, f in sorted(children.get(i, [])):
            if end is None or b > end:
                covered += f - b
                end = f
            elif f > end:
                covered += f - end
                end = f
        check(e["dur"] - covered >= -eps, f"{workload}: negative self time in {e['name']}")
    requests = {e["args"]["request"] for e in events if e["name"] == "serve.request"}
    if workload.startswith("serve"):
        check(len(requests) > 0 and 0 not in requests,
              f"{workload}: served requests carry no request id")


def main():
    for workload in PER_LAYER:
        report, last = run(workload, 0)
        check_result_line(workload, 0, last)
        metrics = report["metrics"]
        for name in END_TO_END:
            check(name in metrics and metrics[name]["unit"],
                  f"{workload}: end-to-end metric {name} missing")
            if name.endswith(("_s", "_ms_p50", "_ms_p95", "_rps")):
                check(metrics[name].get("samples", 0) >= 1,
                      f"{workload}: {name} has no sample count")
        check(metrics["error_rate"]["value"] == 0, f"{workload}: error_rate != 0")
        for key in ENV:
            check(key in report["env"], f"{workload}: env record lacks {key}")
        check(any(k.startswith("b_bytes.") for k in report["env"]),
              f"{workload}: env record lacks B bytes")

        report, last = run(workload, 1)
        check_result_line(workload, 1, last)
        metrics = report["metrics"]
        for name in PER_LAYER[workload]:
            check(name in metrics and metrics[name]["unit"],
                  f"{workload}: per-layer metric {name} missing")
        for name, m in metrics.items():
            if name.startswith(COMPUTED_PREFIXES):
                check(m["label"] == "computed", f"{workload}: {name} not labelled computed")
        check(metrics["error_rate"]["value"] == 0, f"{workload}: traced error_rate != 0")
        if workload == "serve-sharded":
            check(metrics["io.cold_multiplies"]["value"] == 0,
                  "serve-sharded: paging reached the measured path")
        check_spans(workload, report)
        print(f"selftest: {workload} ok ({len(metrics)} traced metrics, "
              f"{report['span_check']['spans']} spans)")
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
