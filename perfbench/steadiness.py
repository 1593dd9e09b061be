#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py [--workloads W ...] [--seeds N]
                                    [--first-seed S]

Runs run.py once per seed on each workload (untraced, BENCHMARK.json's
run_seconds) and prints, per metric, the median over the runs and the
distance between the first and third quartile as a share of that median,
next to the metric's bound. A spread above a third of its bound is marked
'WIDE'; setup_s is exempt from the spread check but shown.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    ok = True
    for w in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {done.returncode}\n"
                      f"{done.stdout}{done.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{w} seed {seed}: incorrect\n{done.stdout}")
                ok = False
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"{w}: {args.seeds} seeds from {args.first_seed}")
        for m in bench["end_to_end"]:
            xs = values.get(m["name"], [])
            if len(xs) < 2:
                print(f"  {m['name']:<22} too few runs")
                ok = False
                continue
            spread = stats.iqr_share(xs)
            wide = spread > m["bound"] / 3 and m["name"] != "setup_s"
            ok &= not wide
            print(f"  {m['name']:<22} median {stats.median(xs):<14.6g} "
                  f"spread {spread:7.2%}  bound {m['bound']:.0%}"
                  f"{'  WIDE' if wide else ''}  "
                  + " ".join(f"{x:.4g}" for x in xs))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
