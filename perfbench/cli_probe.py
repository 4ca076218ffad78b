"""Fresh-interpreter probes for the cli-cold workload.

    python3 -m perfbench.cli_probe import
        time `import ramforge.cli`; prints {"setup_s", "setup_wall_s"}, the
        first in reference seconds (perfbench/speed.py)
    python3 -m perfbench.cli_probe run ARGV...
        time the import, then a cold in-process `main(ARGV)` with stdout
        captured; prints {"code", "stdout", "spans"}
    python3 -m perfbench.cli_probe layers JSON
        JSON is {"fields": [[p, n], ...], "grids": [[name, argv...], ...]};
        builds each FieldSpec cold, then runs each grid's library runner;
        prints {"spans"}

Spans are [name, start_ns, end_ns] on the shared monotonic clock.  Only the
last stdout line is read.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from .speed import scaled_block


def _import():
    t0 = time.perf_counter_ns()
    import ramforge.cli  # noqa: F401

    return ["cli.import", t0, time.perf_counter_ns()]


def probe_run(argv):
    span = _import()
    from ramforge.cli import main

    buf = io.StringIO()
    t0 = time.perf_counter_ns()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    spans = [span, ["cli.main", t0, time.perf_counter_ns()]]
    return {"code": code, "stdout": buf.getvalue(), "spans": spans}


def probe_layers(spec):
    from ramforge import FieldSpec
    from ramforge.grids import GRID_PARAMS, GRID_RUNNERS

    spans = []
    for p, n in spec["fields"]:
        t0 = time.perf_counter_ns()
        FieldSpec(p, n)
        spans.append(["algebra.field_setup", t0, time.perf_counter_ns()])
    for name, *flags in spec["grids"]:
        given = dict(zip(flags[::2], flags[1::2]))
        kwargs = {k: int(given[f"--{k}"]) for k in GRID_PARAMS[name]}
        t0 = time.perf_counter_ns()
        result = GRID_RUNNERS[name](**kwargs)
        spans.append([f"grids.{name}", t0, time.perf_counter_ns()])
        if not result.passed:
            raise SystemExit(f"grid {name} did not pass: {result.summary}")
    return {"spans": spans}


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "import":
        _, wall_ns, ref_ns = scaled_block(_import)
        out = {"setup_s": ref_ns / 1e9, "setup_wall_s": wall_ns / 1e9}
    elif mode == "run":
        out = probe_run(rest)
    elif mode == "layers":
        out = probe_layers(json.loads(rest[0]))
    else:
        raise SystemExit(f"unknown probe mode {mode!r}")
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
