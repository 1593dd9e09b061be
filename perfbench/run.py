#!/usr/bin/env python3
"""End-to-end benchmark of graphene-ipu.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench_e2e (an optimized build of ../src plus e2e.cpp) under
$CARGO_TARGET_DIR (default .bench_build), runs workload W with seed N for S
seconds and prints a table of every metric with its unit and sample count,
then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones from the traced mirror run (see NOTES.md). Any wrong output,
determinism mismatch or failed layer-sum check makes "correct" false and the
exit code 1. A run that does not finish within its watchdog limit is killed
and reported by name, with exit code 3 and no result line.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fem-ilu", "fem-ilu-mpir", "service-mix")
# The whole command must end within 180 s; the first run in a checkout may
# also build for up to 900 s.
WATCHDOG_S = 150
BUILD_TIMEOUT_S = 850
# ROADMAP item 1: per-solve layer spans must sum to the solve within 5%.
LAYER_SUM_TOLERANCE = 0.05
# Compute-set categories of Profile::computeCycles across the workloads
# (the Table IV rows they exercise).
# Printed in the table but left out of the result line: failed_frac is 0
# on a correct run, and rel_residual_max moves with the seed's right-hand
# sides by more than any bound allows. Both are gated by the correctness
# check instead: any failed solve or residual above its bound makes the run
# incorrect.
TABLE_ONLY = ("failed_frac", "rel_residual_max")
SIM_CATEGORIES = ("spmv", "reduce", "elementwise", "condition",
                  "ilu_factorize", "ilu_solve", "extended_precision")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures, then brings perfbench_e2e up to date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "-j", jobs,
              "--target", "perfbench_e2e"]]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log(f"watchdog: build did not finish within {BUILD_TIMEOUT_S} s")
            sys.exit(3)
        if done.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(1)
    return out / "perfbench_e2e"


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_binary(binary, args, label, limit):
    cmd = [str(binary)] + args
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        log(f"watchdog: {label} did not finish within {limit:.0f} s")
        sys.exit(3)
    if done.returncode != 0:
        log(f"{label}: perfbench_e2e exited with {done.returncode}")
        sys.exit(1)
    return json.loads(done.stdout.strip().splitlines()[-1])


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


# ---- --trace 0: end-to-end metrics ------------------------------------------

def end_to_end(doc):
    solves = doc["solves"]
    walls = [s["wall_ms"] for s in solves]
    n = len(solves)
    ok = sum(1 for s in solves if s["ok"])
    tail = stats.tail_percentile(n)
    return {
        "solve_wall_ms_p50": metric(stats.median(walls), "ms", n),
        # p95 has ten samples beyond it only from 200 solves on; the table
        # marks how many there are.
        "solve_wall_ms_p95": metric(stats.percentile(walls, 95), "ms", n),
        "solves_per_s": metric(ok / doc["window_s"], "1/s", n),
        "setup_s": metric(stats.median(doc["setup_s"]), "s",
                          len(doc["setup_s"])),
        "sim_cycles_per_solve": metric(
            sum(s["sim_cycles"] for s in solves) / n, "cycles", n),
        "rel_residual_max": metric(
            max(s["rel_residual"] for s in solves), "ratio", n),
        "failed_frac": metric((n - ok) / n, "ratio", n),
        "peak_rss_mb": metric(doc["meta"]["peak_rss_mb"], "MiB", 1),
    }, {"p95_samples_beyond": stats.samples_beyond(n, 95),
        "tail_percentile_with_10_beyond": tail}


# ---- --trace 1: per-layer metrics -------------------------------------------

def span_ms(span):
    return (span["end_us"] - span["start_us"]) / 1000.0


def layer_sums(spans):
    """Self time of each mirrored root span ('build', 'solve') as a share
    of its duration: what the layer spans below it leave unexplained."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    shares = []
    for s in spans:
        if s["parent"] != -1 or s["name"] not in ("build", "solve"):
            continue
        kids = [(c["start_us"], c["end_us"]) for c in children.get(s["id"], [])]
        own = stats.self_time((s["start_us"], s["end_us"]), kids)
        shares.append(own / max(s["end_us"] - s["start_us"], 1e-9))
    return shares


def per_layer(doc, spans):
    # Build spans come from the one set-up (session workloads) or from each
    # mirrored job (service-mix); solve spans from the measured solves only,
    # not the warm-up.
    by_name = {}
    for s in spans:
        if s["solve"] >= 0 or s["name"].startswith("build"):
            by_name.setdefault(s["name"], []).append(span_ms(s))

    def span_p50(name):
        xs = by_name.get(name, [])
        return metric(stats.median(xs) if xs else 0.0, "ms", len(xs))

    counters = doc["counters"]
    n = len(counters)

    def mean_of(key, unit):
        return metric(sum(c[key] for c in counters) / n, unit, n)

    m = {}
    # service / plan cache (service-mix; zero where no service runs)
    jobs = doc.get("service_jobs", [])
    cache = doc.get("service", {})
    cold = [j["wall_ms"] for j in jobs if not j["cache_hit"]]
    warm = [j["wall_ms"] for j in jobs if j["cache_hit"]]
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    m["service.queue_wait_ms_p50"] = metric(
        cache.get("queue_wait_ms_p50", 0.0), "ms", len(jobs))
    m["service.cold_job_ms_p50"] = metric(
        stats.median(cold) if cold else 0.0, "ms", len(cold))
    m["service.warm_job_ms_p50"] = metric(
        stats.median(warm) if warm else 0.0, "ms", len(warm))
    m["plan_cache.hits"] = metric(hits, "count", len(jobs))
    m["plan_cache.misses"] = metric(misses, "count", len(jobs))
    m["plan_cache.evictions"] = metric(cache.get("evictions", 0), "count",
                                       len(jobs))
    m["plan_cache.hit_ratio"] = metric(
        hits / (hits + misses) if hits + misses else 0.0, "ratio",
        hits + misses)
    m["service.attempts_per_job"] = metric(
        sum(j["attempts"] for j in jobs) / len(jobs) if jobs else 0.0,
        "count", len(jobs))

    # plan build
    builds = doc["build"].get("per_job", [doc["build"]])
    for name in ("partition", "distmatrix", "make_solver", "emit"):
        m[f"build.{name}_ms"] = span_p50(f"build.{name}")
    for key, unit in (("blockwise_transfers", "count"),
                      ("sram_peak_bytes", "bytes")):
        m[f"build.{key}"] = metric(stats.median([b[key] for b in builds]),
                                   unit, len(builds))

    # graph::Engine
    for name in ("construct", "upload", "run", "readback"):
        m[f"engine.{name}_ms"] = span_p50(f"engine.{name}")
    for key in ("compute_supersteps", "exchange_supersteps",
                "vertices_executed"):
        m[f"engine.{key}"] = mean_of(key, "count")
    runs = by_name.get("engine.run", [])
    run_ms = sum(runs)
    supersteps = sum(c["compute_supersteps"] + c["exchange_supersteps"]
                     for c in counters)
    vertices = sum(c["vertices_executed"] for c in counters)
    m["engine.host_us_per_superstep"] = metric(
        run_ms * 1e3 / supersteps if supersteps else 0.0, "us", len(runs))
    m["engine.host_ns_per_vertex"] = metric(
        run_ms * 1e6 / vertices if vertices else 0.0, "ns", len(runs))

    # ipu cost model, simulated clock
    for cat in SIM_CATEGORIES:
        m[f"sim.compute_cycles.{cat}"] = metric(
            sum(c["compute_cycles"].get(cat, 0.0) for c in counters) / n,
            "cycles", n)
    m["sim.exchange_cycles"] = mean_of("exchange_cycles", "cycles")
    m["sim.sync_cycles"] = mean_of("sync_cycles", "cycles")
    m["sim.exchanged_bytes"] = mean_of("exchanged_bytes", "bytes")
    m["sim.exchange_instructions"] = mean_of("exchange_instructions", "count")

    # solver kernels
    solves = doc["solves"]
    m["solver.iterations_per_solve"] = metric(
        sum(s["iterations"] for s in solves) / len(solves), "count",
        len(solves))
    m["solver.restarts"] = metric(sum(c["restarts"] for c in counters),
                                  "count", n)

    # support::TraceSink
    m["trace.events_per_solve"] = mean_of("trace_events", "count")
    m["trace.dropped"] = metric(sum(c["trace_dropped"] for c in counters),
                                "count", n)

    # The trace itself: overhead against the untraced run of the same
    # solves, and the layer-sum residue.
    if jobs:
        traced = [j["wall_ms"] for j in jobs]
    else:
        traced = [span_ms(s) for s in spans
                  if s["name"] == "solve" and s["solve"] >= 0]
    untraced = [s["wall_ms"] for s in doc["untraced"]]
    m["trace.overhead_ms"] = metric(
        stats.median(traced) - stats.median(untraced), "ms", len(traced))
    shares = layer_sums(spans)
    m["trace.layer_gap_max"] = metric(max(shares), "ratio", len(shares))
    return m


# ---- report -----------------------------------------------------------------

def print_table(metrics):
    width = max(len(k) for k in metrics)
    for name, v in metrics.items():
        print(f"  {name:<{width}}  {v['value']:>16.6g} {v['unit']:<7} "
              f"n={v['samples']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    binary = build(out)
    started = time.monotonic()
    mode = "trace" if args.trace else "run"
    label = f"workload {args.workload} (seed {args.seed}, mode {mode})"
    bin_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--mode", mode]
    spans_path = out / "spans" / f"{args.workload}-seed{args.seed}.json"
    if args.trace:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        bin_args += ["--spans", str(spans_path)]
    doc = run_binary(binary, bin_args, label, WATCHDOG_S)

    failures = list(doc["failures"])
    solves = doc.get("solves", [])
    extra = {}
    if not solves:
        failures.append("no solve completed")
        metrics = {}
    elif args.trace:
        spans = json.loads(spans_path.read_text())
        metrics = per_layer(doc, spans)
        gap = metrics["trace.layer_gap_max"]["value"]
        if gap > LAYER_SUM_TOLERANCE:
            failures.append(f"layer sum: spans leave {gap:.1%} of a mirrored "
                            f"solve unexplained (limit "
                            f"{LAYER_SUM_TOLERANCE:.0%})")
        extra["spans_file"] = str(spans_path.relative_to(ROOT)
                                  if spans_path.is_relative_to(ROOT)
                                  else spans_path)
    else:
        metrics, extra = end_to_end(doc)

    attempted = max(1, len(solves))
    failed = sum(1 for s in solves if not s["ok"])
    nproc = len(os.sched_getaffinity(0))
    meta = dict(doc["meta"])
    meta.update(extra)
    meta.update({
        "nproc": nproc,
        "git_rev": git_rev(),
        "seconds": args.seconds,
        "elapsed_s": round(time.monotonic() - started, 3),
        "threads_exceed_cores": meta["host_threads"] > nproc,
        "samples": {k: v["samples"] for k, v in metrics.items()},
    })
    print(f"perfbench {args.workload} seed={args.seed} "
          f"{'traced' if args.trace else 'untraced'}")
    print("meta: " + json.dumps(meta, sort_keys=True))
    if meta["threads_exceed_cores"]:
        print(f"  FLAG: {meta['host_threads']} host threads on {nproc} cores")
    if "thread_check" in doc:
        print(f"  determinism: {doc['thread_check']}")
    print_table(metrics)
    for f in failures:
        print(f"  FAIL: {f}")
    correct = not failures and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": max(failed, 0 if correct else 1),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()
                    if k not in TABLE_ONLY},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
