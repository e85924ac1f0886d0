#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

The spread is the distance between the first and third quartile of the
values (statistics.quantiles, n=4) as a share of their median — the
figure the benchmark's bounds are judged against. Run from the root of
the repository:

    python3 perfbench/spread.py --workload mci-churn --seeds 1-5
    python3 perfbench/spread.py --workload mci-churn --seeds 1-10 --trace 1

Each run's full output is kept in .bench_out/spread-<workload>-seed<n>-trace<t>.txt.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    values = {}
    for seed in seeds(a.seeds):
        cmd = bench["command"] + ["--workload", a.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", a.trace]
        t0 = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True, check=False)
        wall = time.monotonic() - t0
        os.makedirs(".bench_out", exist_ok=True)
        log = f".bench_out/spread-{a.workload}-seed{seed}-trace{a.trace}.txt"
        with open(log, "w") as f:
            f.write(out.stdout)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={wall:.1f}s", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':<44} {'median':>14} {'spread':>8} {'bound':>6}  within bound/3  values")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        ok = "" if bound is None else ("yes" if spread < bound / 3 else "NO")
        shown = " ".join(f"{v:.4g}" for v in vs)
        print(f"{name:<44} {med:>14.6g} {spread:>8.4f} {bound if bound is not None else '':>6}  {ok:<14}  {shown}")


if __name__ == "__main__":
    main()
