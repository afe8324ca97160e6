#!/usr/bin/env python3
"""Build and run the MAICC benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S
                             [--trace 0|1] [--threads 1..4]

Run from the repository root. The first run configures and builds
perfbench/ (which compiles the simulator from src/) in Release mode
under $CARGO_TARGET_DIR, default .bench_build/. The last line of
stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}; with --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, with --trace 1 the per-layer ones, and the traced
run's spans are written as a Chrome trace-event file. Everything
else (build output, a readable table) goes before it or to stderr.
See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (d if d.is_absolute() else ROOT / d) / "perfbench"


def build(out):
    """Configure (once) and build the benchmark binary; @return its
    path."""
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j4"],
                   check=True, stdout=sys.stderr)
    return out / "maicc_perfbench"


def print_table(title, metrics, notes=None):
    print(f"== {title} ==")
    for name, m in metrics.items():
        note = (notes or {}).get(name, "")
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']:10s} {note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, choices=(1, 2, 3, 4))
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summarize.check_spec(spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"unknown workload {args.workload}")

    out = build_dir()
    binary = build(out)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.threads:
        cmd += ["--threads", str(args.threads)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                          timeout=RUN_TIMEOUT_S)
    raw = json.loads(proc.stdout)

    if args.trace:
        metrics = summarize.select(summarize.per_layer(raw),
                                   spec["per_layer"], fill_missing=True)
        trace_path = out / "traces" / (
            f"{args.workload}-seed{args.seed}.trace.json")
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        spans = [tuple(s) for s in raw["spans"]]
        trace_path.write_text(json.dumps(summarize.chrome_trace(spans)))
        print_table(f"{args.workload} per-layer (traced run)", metrics)
        print(f"tracing overhead: traced op p50 "
              f"{statistics.median(raw['traced_op_ms']):.3f} ms "
              f"vs untraced {statistics.median(raw['op_ms']):.3f}"
              f" ms ({summarize.tracing_overhead_pct(raw):+.2f}%)")
        print(f"chrome trace: {trace_path}")
    else:
        metrics = summarize.select(summarize.end_to_end(raw),
                                   spec["end_to_end"], fill_missing=False)
        _, pct, n = summarize.tail_percentile(raw["op_ms"])
        print_table(f"{args.workload} end-to-end", metrics,
                    {"host_op_ms.tail": f"p{pct:.1f} of {n} ops"})
        ungated = {k: {"value": v, "unit": u}
                   for k, (v, u) in summarize.host_speed(raw).items()}
        print_table("reported, not gated (per-layer list)", ungated)
        print(f"untimed warm-up op: {raw['warmup_ms']:.3f} ms")
    for f in raw["failures"]:
        print(f"FAILED {f}")

    correct = raw["failed"] == 0 and raw["run_ok"]
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
