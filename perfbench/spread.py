#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload paper_batch --seeds 1-10 \
        --seconds 20 [--trace 0] [--bench path/to/perfbench]

For every metric of the result line it prints the median of the runs and
the distance between the first and third quartile as a share of that
median (`statistics.quantiles(values, n=4)`), which is how run-to-run
spread is judged against the bounds in BENCHMARK.json. Without --bench
the benchmark is run through `cargo run`, from the root of the checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bench")
    args = ap.parse_args()
    if args.bench:
        cmd = [args.bench]
    else:
        cmd = ["cargo", "run", "--quiet", "--release", "--offline",
               "--manifest-path", "perfbench/Cargo.toml", "--"]
    values = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            cmd + ["--workload", args.workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, text=True, check=False)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<28} median {med:<14.6g} spread {spread:.4f}")


if __name__ == "__main__":
    main()
