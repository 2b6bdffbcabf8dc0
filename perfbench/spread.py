#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints, per metric, the median of
the per-run values and their spread: the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median.

    python3 perfbench/spread.py --workload inject_crc32 --seeds 1-10 \
        [--seconds 40] [--trace 0] [--bin PATH]

Without --bin it goes through `cargo run --release`. Run it from the
repository root.
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
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bin")
    a = ap.parse_args()
    cmd = [a.bin] if a.bin else [
        "cargo", "run", "--quiet", "--release", "--locked", "--offline",
        "--manifest-path", "perfbench/Cargo.toml", "--"]
    values = {}
    units = {}
    for seed in seeds(a.seeds):
        out = subprocess.run(
            cmd + ["--workload", a.workload, "--seed", str(seed),
                   "--seconds", str(a.seconds), "--trace", a.trace],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        last = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not last["correct"]:
            sys.exit(f"seed {seed}: exit {out.returncode}, correct={last['correct']}")
        for name, m in last["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in last["metrics"].items()),
            file=sys.stderr)
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{a.workload:>20} {name:>40} median {med:14.6g} {units[name]:<9}"
              f" spread {spread:8.4f}  n={len(xs)}")


if __name__ == "__main__":
    main()
