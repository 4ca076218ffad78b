"""ramforge benchmark entry point.  See perfbench/README.md.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root.  The process pins itself and its children
to one CPU.  Workloads run in fresh worker processes (python -m
perfbench.worker, PYTHONPATH=src), each with a PYTHONHASHSEED drawn from
the workload and --seed.  With --trace 0 an in-process workload runs in
WORKERS processes of --seconds / WORKERS each, and an item's time is the
median over them, so that no one process's hash seed and memory layout
sets the result; cli-cold runs in one.  The set-up time is the median over
SETUP_RUNS fresh processes, the workers among them.  With --trace 1 one
worker runs for --seconds.  The last stdout line is the JSON result:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
of BENCHMARK.json under --trace 0 and its per-layer metrics under
--trace 1.  Lines before it, prefixed '#', restate the run for people.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["reduce", "herbrand-eval", "genus-build", "cli-cold"]
WORKERS = 3
SETUP_RUNS = 9
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def pin_to_one_cpu():
    """Run this process and every child on one CPU of the affinity set, so
    the reference loop (perfbench/speed.py) shares a core with the timed
    work: a CLI child otherwise runs on another CPU than the parent's
    reference samples, and the two CPUs are loaded differently."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    return len(cpus)


def child(args, hashseed):
    """Run `python -m <args>` in the checkout with the given PYTHONHASHSEED;
    its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = str(hashseed)
    try:
        proc = subprocess.run([sys.executable, "-m", *args], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[:2]} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(args[:4])} exited {proc.returncode}")
    return json.loads(lines[-1])


def nearest_rank(xs, q):
    xs = sorted(xs)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def measure(workload, seed, seconds, trace, tiny=False):
    base = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    run = ["perfbench.worker", "run", *base, "--trace", str(trace)]

    def hashseed(k):
        return zlib.crc32(f"{workload}:{seed}:{k}".encode())

    if trace:
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        run += ["--spans", str(out / f"spans-{workload}-{seed}.jsonl")]
        return child(run + ["--seconds", str(seconds)], hashseed(0))
    if workload == "cli-cold":
        runs = [child(run + ["--seconds", str(seconds)], hashseed(0))]
        probe = ["perfbench.cli_probe", "import"]
    else:
        runs = [child(run + ["--seconds", str(seconds / WORKERS)], hashseed(k))
                for k in range(WORKERS)]
        probe = ["perfbench.worker", "setup", *base]
    setups = [(r["setup_s"], r["setup_wall_s"]) for r in runs if "setup_s" in r]
    while len(setups) < SETUP_RUNS:
        r = child(probe, hashseed(len(setups)))
        setups.append((r["setup_s"], r["setup_wall_s"]))

    def end_to_end(item_s, setup_s):
        return {"throughput_items_per_s": len(item_s) / sum(item_s),
                "latency_ms_p50": 1e3 * nearest_rank(item_s, 0.5),
                "latency_ms_p90": 1e3 * nearest_rank(item_s, 0.9),
                "setup_s": statistics.median(setup_s)}

    metrics = end_to_end([statistics.median(ts) for ts in zip(*(r["lat"] for r in runs))],
                         [s for s, _ in setups])
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in runs)
    return {key: sum(r[key] for r in runs) for key in ("attempted", "failed", "samples")} | {
        "metrics": metrics,
        "wall": end_to_end([statistics.median(ts) for ts in zip(*(r["wall"] for r in runs))],
                           [w for _, w in setups]),
    }


def report(workload, seed, trace, result, declared, nproc):
    """Print the human lines and the JSON result line."""
    missing = [d["name"] for d in declared if d["name"] not in result["metrics"]]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"# workload={workload} seed={seed} trace={trace} python={platform.python_version()}"
          f" nproc={nproc} pinned_to_cpu={max(os.sched_getaffinity(0))} samples={result['samples']}"
          f" attempted={attempted} failed_frac={failed / attempted}")
    metrics = {}
    for d in declared:
        value = result["metrics"][d["name"]]
        metrics[d["name"]] = {"value": value, "unit": d["unit"]}
        wall = result.get("wall", {}).get(d["name"])
        print(f"#   {d['name']} = {value} {d['unit']}"
              + (f" (wall clock {wall})" if wall is not None else ""))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def smoke(spec):
    """Every workload at tiny size, traced and untraced: every declared
    metric is emitted and nothing fails."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = measure(workload, 1, 0.2, trace, tiny=True)
            declared = spec["per_layer" if trace else "end_to_end"]
            missing = [d["name"] for d in declared if d["name"] not in result["metrics"]]
            if missing:
                problems.append(f"{workload} trace={trace}: missing {missing}")
            if result["failed"]:
                problems.append(f"{workload} trace={trace}: failed_frac "
                                f"{result['failed'] / result['attempted']}")
            print(f"# smoke {workload} trace={trace}: {result['attempted']} items, "
                  f"{result['failed']} failed, {len(result['metrics'])} metrics")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="all workloads at tiny size")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ramforge" / "__init__.py").is_file():
        print(f"run.py: no ramforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc = pin_to_one_cpu()
    try:
        if args.smoke:
            return smoke(spec)
        if args.workload is None:
            ap.error("--workload is required unless --smoke is given")
        result = measure(args.workload, args.seed, args.seconds, args.trace)
        report(args.workload, args.seed, args.trace, result,
               spec["per_layer" if args.trace else "end_to_end"], nproc)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
