"""One workload in a fresh single-threaded process.

    python3 -m perfbench.worker setup --workload W --seed N [--tiny]
    python3 -m perfbench.worker run --workload W --seed N --seconds S
                                    --trace 0|1 [--spans PATH] [--tiny]

Run from the repository root with PYTHONPATH=src.  The deck is generated
before ramforge is imported.  Set-up time runs from `import ramforge` until
the first item can be sent.  Times are in reference units
(perfbench/speed.py); the wall-clock times travel alongside.  The last
stdout line is one JSON object: {"attempted", "failed", "samples", and
"lat"/"wall" (one time per item, in seconds), "setup_s", "setup_wall_s",
"peak_rss_mb"} untraced, {"attempted", "failed", "samples", "metrics"}
traced, or {"setup_s", "setup_wall_s"} for `setup`.  run.py turns the
item times into the end-to-end metrics.

In-process workloads run whole passes over the deck until --seconds have
passed (at least one untraced).  The reference loop runs between items
every 10 ms.  An item's time is the median over the untraced passes of its
wall time scaled by the reference samples around it.  With --trace 1,
traced and untraced passes alternate.  Layer metrics are medians over
traced passes of each pass's summed, scaled self time.  trace.overhead_frac
is the ratio of summed item times, traced over untraced, minus one.

cli-cold runs CLI_CYCLES cycles of clideck.CYCLE commands, whatever
--seconds says, each command in a fresh `python -m ramforge.cli`.  A bare
`python -c pass` runs after every command as the reference sample, and a
command's time is its scaled wall time.  peak_rss_mb is the mean over runs of each child's ru_maxrss.  With
--trace 1, each command instead runs once plain and once under
perfbench.cli_probe, which times the import and a cold in-process main();
cli.interpreter_ms is the median scaled time of the bare starts, close to
BARE_NS by construction.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

from . import clideck, gen
from .speed import BARE_NS, Gauge, scaled_block
from .trace import Tracer, untraced

DECKS = {
    "reduce": lambda rng, tiny: gen.reduce_deck(rng, 1 if tiny else 8),
    "herbrand-eval": lambda rng, tiny: gen.herbrand_deck(rng, 16 if tiny else 896),
    "genus-build": lambda rng, tiny: gen.genus_deck(rng, 20 if tiny else 1200),
}
MIN_PASSES = 1
LAYER_SPANS = [
    "algebra.parse", "algebra.format", "aschreier.as_reduce", "asext.ext_as_reduce",
    "asext.tower_jumps", "ramfilt.construct", "ramfilt.psi_phi", "ramfilt.validate",
    "ramfilt.convert", "ramfilt.action_transform", "genus.construct",
    "genus.ram_divisor_degree", "genus.rh_genus", "genus.spectrum",
]
COUNTS = ["aschreier.as_reduce.steps", "asext.ext_as_reduce.steps",
          "ramfilt.psi_phi.evals", "genus.spectrum.genera"]
CALLS = ["algebra.parse", "aschreier.as_reduce", "asext.ext_as_reduce", "genus.rh_genus"]
CLI_METRICS = ["cli.process_ms", "cli.interpreter_ms", "cli.import_ms", "cli.main_ms"]
GRID_NAMES = [g[0] for g in clideck.GRIDS]
CLI_CYCLES = 2


def deck_rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def empty_layers():
    out = {f"{n}.busy_ms": 0.0 for n in LAYER_SPANS}
    out.update({f"{n}.calls": 0 for n in CALLS})
    out.update({n: 0 for n in COUNTS})
    out.update({f"grids.{g}.busy_ms": 0.0 for g in GRID_NAMES})
    out.update({n: 0.0 for n in CLI_METRICS})
    out.update({"algebra.field_setup_ms": 0.0, "aschreier.as_reduce.us_per_step": 0.0,
                "asext.ext_as_reduce.us_per_step": 0.0, "ramfilt.psi_phi.us_per_eval": 0.0,
                "trace.overhead_frac": 0.0})
    return out


def per_item(passes):
    """Each item's time over the passes: the median of its times."""
    return [statistics.median(ts) for ts in zip(*passes)]


def _ratio(num, den):
    return num / den if den else 0.0


# ------------------------------------------------------------ in-process


def _setup(workload, sp):
    import ramforge  # noqa: F401

    from . import workloads

    setup, item_fn, check = workloads.WORKLOADS[workload]
    return setup(sp), item_fn, check


def setup_only(args):
    _, wall_ns, ref_ns = scaled_block(lambda: _setup(args.workload, untraced))
    return {"setup_s": ref_ns / 1e9, "setup_wall_s": wall_ns / 1e9}


def run_in_process(args):
    deck = DECKS[args.workload](deck_rng(args.workload, args.seed), args.tiny)
    tracer = Tracer() if args.trace else None
    (ctx, item_fn, check), setup_wall_ns, setup_ns = scaled_block(
        lambda: _setup(args.workload, tracer.span if tracer else untraced))
    setup_spans = tracer.self_times() if tracer else {}

    gauge = Gauge()
    gauge.mark(8)
    first, passes, mismatched = None, [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        mark = len(tracer.spans) if tracer else 0
        outs, when = [], []
        for idx, it in enumerate(deck):
            t = time.perf_counter_ns()
            try:
                if traced:
                    tracer.item = idx
                    with tracer.span("item"):
                        out = item_fn(ctx, it, tracer.span)
                else:
                    out = item_fn(ctx, it, untraced)
            except Exception as exc:  # a raising item is a failed item
                out = ("raised", f"{type(exc).__name__}: {exc}")
            e = time.perf_counter_ns()
            when.append((t, e))
            outs.append(out)
            gauge.maybe_mark(e)
        span_range = (mark, len(tracer.spans)) if traced else None
        passes.append({"traced": traced, "when": when, "spans": span_range})
        if first is None:
            first = outs
        mismatched.append({i for i, (a, b) in enumerate(zip(first, outs)) if a != b})
        if time.perf_counter() >= deadline and len(passes) >= MIN_PASSES + (tracer is not None):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gauge.mark(8)
    for p in passes:
        p["lat"] = [gauge.scale(t, e) / 1e9 for t, e in p["when"]]
        p["wall"] = [(e - t) / 1e9 for t, e in p["when"]]

    bad, counts = {}, dict.fromkeys(COUNTS, 0)
    for idx, (it, out) in enumerate(zip(deck, first)):
        if isinstance(out, tuple) and out[:1] == ("raised",):
            bad[idx] = out[1]
            continue
        err, got = check(it, out, ctx)
        if err:
            bad[idx] = err
        for k, v in got.items():
            counts[k] += v
    failed = sum(len(set(bad) | m) for m in mismatched)
    for idx, reason in list(bad.items())[:5]:
        print(f"item {idx} failed: {reason}", file=sys.stderr)

    plain = [p for p in passes if not p["traced"]]
    result = {"attempted": len(deck) * len(passes), "failed": failed,
              "samples": len(deck) * len(plain)}
    if not tracer:
        result.update(lat=per_item(p["lat"] for p in plain),
                      wall=per_item(p["wall"] for p in plain),
                      setup_s=setup_ns / 1e9, setup_wall_s=setup_wall_ns / 1e9,
                      peak_rss_mb=rss_mb)
        return result

    traced = [p for p in passes if p["traced"]]
    per_pass = [tracer.self_times(*p["spans"], factor=gauge.factor) for p in traced]
    m = empty_layers()
    for name in LAYER_SPANS:
        m[f"{name}.busy_ms"] = statistics.median(pp.get(name, [0, 0])[0] for pp in per_pass) / 1e6
    for name in CALLS:
        m[f"{name}.calls"] = per_pass[0].get(name, [0, 0])[1]
    m.update(counts)
    m["algebra.field_setup_ms"] = (setup_spans.get("algebra.field_setup", [0])[0]
                                   * setup_ns / setup_wall_ns / 1e6)
    m["aschreier.as_reduce.us_per_step"] = _ratio(
        1e3 * m["aschreier.as_reduce.busy_ms"], counts["aschreier.as_reduce.steps"])
    m["asext.ext_as_reduce.us_per_step"] = _ratio(
        1e3 * m["asext.ext_as_reduce.busy_ms"], counts["asext.ext_as_reduce.steps"])
    m["ramfilt.psi_phi.us_per_eval"] = _ratio(
        1e3 * m["ramfilt.psi_phi.busy_ms"], counts["ramfilt.psi_phi.evals"])
    m["trace.overhead_frac"] = (sum(per_item(p["lat"] for p in traced))
                                / sum(per_item(p["lat"] for p in plain)) - 1)
    if args.spans:
        tracer.dump(args.spans)
    result["metrics"] = m
    return result


# --------------------------------------------------------------- cli-cold


def spawn(argv, env):
    """Run argv to completion: (exit code, stdout, child ru_maxrss in KB,
    start ns, end ns).  stderr is small for every command in the deck, so
    reading the pipes one after the other cannot block."""
    start = time.perf_counter_ns()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    with proc.stdout, proc.stderr:
        out = proc.stdout.read()
        err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.perf_counter_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode not in (0, 2, 3):
        sys.stderr.write(err.decode(errors="replace")[-2000:])
    return proc.returncode, out.decode(), usage.ru_maxrss, start, end


def run_cli(args):
    rng = deck_rng(args.workload, args.seed)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    py = sys.executable
    tracer = Tracer() if args.trace else None
    gauge = Gauge(lambda: subprocess.run([py, "-c", "pass"], env=env, check=True), BARE_NS)
    regular = len(clideck.CLASSES) if args.tiny else clideck.CYCLE - len(clideck.GRIDS)
    done, plain, rss, bad, attempted = [], [], [], 0, 0
    traced_at, spans = [], {"cli.import": [], "cli.main": []}
    for _ in range(CLI_CYCLES):
        cycle = list(enumerate(clideck.deck(rng, 1, regular), start=len(done)))
        if tracer:
            runs = [(i, cmd, traced) for i, cmd in cycle
                    for traced in ((False, True) if i % 2 == 0 else (True, False))]
        else:
            runs = [(i, cmd, False) for i, cmd in cycle]
        for i, cmd, traced in runs:
            if traced:
                tracer.item = i
                code, out, _, s, e = spawn([py, "-m", "perfbench.cli_probe", "run"]
                                           + cmd["argv"], env)
                traced_at.append((s, e))
                parent = tracer.add("cli.process", s, e)
                if code == 0:
                    probe = json.loads(out.splitlines()[-1])
                    code, out = probe["code"], probe["stdout"]
                    for name, ps, pe in probe["spans"]:
                        tracer.add(name, ps, pe, parent)
                        spans[name].append((ps, pe))
            else:
                code, out, kb, s, e = spawn([py, "-m", "ramforge.cli"] + cmd["argv"], env)
                plain.append((s, e))
                rss.append(kb)
            gauge.mark()
            attempted += 1
            reason = clideck.check(cmd, code, out)
            if reason:
                bad += 1
                print(f"command {i} {cmd['argv'][:3]} failed: {reason}", file=sys.stderr)
        done += [cmd for _, cmd in cycle]

    def ms(pairs):
        return [gauge.scale(s, e) / 1e6 for s, e in pairs]

    result = {"attempted": attempted, "failed": bad, "samples": len(plain)}
    if not tracer:
        result.update(lat=[t / 1e3 for t in ms(plain)],
                      wall=[(e - s) / 1e9 for s, e in plain],
                      peak_rss_mb=statistics.mean(rss) / 1024)
        return result

    grids = []
    for cmd in done:
        g = [a for a in cmd["argv"][1:] if a != "--json"]
        if cmd["cls"] == "grid" and g not in grids:
            grids.append(g)
    layers = {"fields": clideck.spec_keys(done), "grids": grids}
    gauge.mark(8)
    code, out, _, _, _ = spawn(
        [py, "-m", "perfbench.cli_probe", "layers", json.dumps(layers)], env)
    gauge.mark(8)
    if code != 0:
        raise SystemExit("cli_probe layers failed")
    tracer.item = None
    for name, s, e in json.loads(out.splitlines()[-1])["spans"]:
        tracer.add(name, s, e)
    own = tracer.self_times(factor=gauge.factor)
    m = empty_layers()
    plain_ms = ms(plain)
    m["cli.process_ms"] = statistics.median(plain_ms)
    m["cli.interpreter_ms"] = statistics.median(
        ns * gauge.factor(at) for at, ns in zip(gauge.at, gauge.ns)) / 1e6
    m["cli.import_ms"] = statistics.median(ms(spans["cli.import"]))
    m["cli.main_ms"] = statistics.median(ms(spans["cli.main"]))
    m["algebra.field_setup_ms"] = own.get("algebra.field_setup", [0])[0] / 1e6
    for g in GRID_NAMES:
        durations = ms((s, e) for name, s, e, _, _ in tracer.spans if name == f"grids.{g}")
        m[f"grids.{g}.busy_ms"] = statistics.median(durations) if durations else 0.0
    m["trace.overhead_frac"] = sum(ms(traced_at)) / sum(plain_ms) - 1
    if args.spans:
        tracer.dump(args.spans)
    result["metrics"] = m
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(prog="perfbench.worker")
    ap.add_argument("mode", choices=["setup", "run"])
    ap.add_argument("--workload", required=True, choices=list(DECKS) + ["cli-cold"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spans", default=None, help="write traced spans here as JSON lines")
    ap.add_argument("--tiny", action="store_true", help="smoke-test deck sizes")
    args = ap.parse_args(argv)
    if args.mode == "setup":
        result = setup_only(args)
    elif args.workload == "cli-cold":
        result = run_cli(args)
    else:
        result = run_in_process(args)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
