"""Run `ramforge.cli.main` in one process over a fixed list of commands and
print one JSON line per command: its argv, exit code, stdout and stderr.

Two trees have CLI parity when this script prints the same lines in both:

    git worktree add ../parent HEAD~1
    python tools/cli_parity.py --root ../parent > parent.jsonl
    python tools/cli_parity.py > change.jsonl
    diff parent.jsonl change.jsonl && git worktree remove ../parent

It imports `ramforge` from `ROOT/src` and `perfbench` from ROOT, the tree
given by --root (by default the one it lies in), and reads ROOT/README.md,
so one copy checks any tree.  The commands are, in this order:

* the cli-cold decks of `perfbench.clideck` for each seed, `--cycles`
  cycles each, drawn exactly as the benchmark draws them;
* every `ramforge ...` line of README.md's fenced code blocks, read with
  `shlex.split(line, comments=True)`, as written and with `--json` added;
* the probes below, each as written and with `--json` added: one or more
  per check of the genus deformation reader and of the grids, then one
  `reduce` per field kernel (F_7 mod p, F_2^8 XOR, F_5^2 Zech tables,
  F_67^2 digits) and one `tower` over F_3^9 (digits), as no cli-cold deck
  builds a digit-kernel field (odd p, q > 4096), then one `reduce` or
  `tower --F` per outcome of the coefficient parser, then one `tower`
  per edge of the tower's text form and a `reduce` whose substitution
  cancels a term, then a `reduce` and a `tower --F` per chunk layout of
  the text tables (F_2^8, F_2^9, F_2^16, F_3^5, F_3^6, F_5^2, F_5^4,
  F_7^3), each with a full vector, a short one and one with a digit
  >= p, then each construction error of a filtration through `herbrand`,
  `act` and `genus --branch`.

A command that escapes `main` with an exception is recorded with the code
"raised" and the exception's type and message as its stderr, and makes
the script exit 1 once every line is printed, so no CLI input of the list
may end in a traceback.  Only the standard library and `perfbench.clideck`
(read, never changed) are used.

    python tools/cli_parity.py [--root DIR] [--seeds 1 2 3] [--cycles 2]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import re
import shlex
import sys
from fractions import Fraction
from pathlib import Path

SPECTRUM = ["spectrum", "--G", "3", "--p", "3", "--limit", "10"]
PROBES = [
    ["spectrum", "--G", "3", "--p", "2", "--limit", "10"],  # p^a*m does not divide |G|
    ["spectrum", "--G", "9", "--p", "3", "--a", "2", "--m", "2", "--limit", "10"],
    SPECTRUM + ["--sigma0", "0"],
    SPECTRUM + ["--sigma0=-1/2"],
    SPECTRUM + ["--sigma0", "1.5"],
    SPECTRUM + ["--sigma0", str(2**64 + 1)],
    SPECTRUM + ["--sigma0", f"1/{2**65}"],
    SPECTRUM + [f"--sigma0={-(2**70)}/3"],
    SPECTRUM + ["--a", "0"],
    SPECTRUM + ["--a", "65"],
    ["spectrum", "--G", "0", "--p", "3", "--limit", "10"],
    ["spectrum", "--G", str(2**64 + 1), "--p", "3", "--limit", "10"],
    SPECTRUM + ["--m", "0"],
    SPECTRUM + ["--m", "3"],
    SPECTRUM + ["--m", str(2**65)],
    ["spectrum", "--G", "4", "--p", "4", "--limit", "10"],
    ["spectrum", "--G", "3", "--p", str(2**64 + 1), "--limit", "10"],
    SPECTRUM + ["--g0", "-1"],
    ["spectrum", "--G", "3", "--p", "3", "--limit", "-1"],
    SPECTRUM + ["--s-iota", "2"],
    SPECTRUM + ["--s-iota", "0"],
    ["spectrum", "--G", "3", "--p", "3", "--limit", str(10**9)],  # the window cap
    ["spectrum", "--G", "2", "--p", "2", "--sigma0", "3/2", "--limit", "10"],  # 3/4 genus
    ["spectrum", "--G", "3", "--p", "3", "--sigma0", "5", "--g0", "20", "--limit", "10"],
    ["spectrum", "--G", "18", "--p", "3", "--a", "2", "--m", "2", "--sigma0", "7/2",
     "--g0", "4", "--s-iota", "1", "--limit", "400"],
    # an invalid check order: a, then |G|, then sigma0, then g0, limit, s_iota, then p, m
    ["spectrum", "--G", "0", "--p", "4", "--a", "0", "--sigma0", "0", "--limit", "-1"],
    ["spectrum", "--G", "0", "--p", "4", "--sigma0", "0", "--g0", "-1", "--limit", "-1"],
    ["spectrum", "--G", "3", "--p", "4", "--sigma0", "0", "--g0", "-1", "--limit", "-1"],
    ["spectrum", "--G", "3", "--p", "4", "--g0", "-1", "--limit", "-1"],
    ["spectrum", "--G", "3", "--p", "4", "--s-iota", "2", "--limit", "5"],
    ["grid", "density-check", "--p", "2", "--gmax", "50"],
    ["grid", "density-check", "--p", "3", "--gmax", "1"],  # below the increment
    ["grid", "density-check", "--p", "7", "--gmax", "1000"],
    ["grid", "density-check", "--p", "4", "--gmax", "10"],
    ["grid", "econd-grid", "--p", "3", "--jmax", "4", "--smax", "20"],
    ["grid", "herbrand-roundtrip", "--count", "50", "--seed", "7"],
    ["reduce", "--p", "7", "3*x^-14 + 2*x^-9 + x^-1"],
    ["reduce", "--p", "2", "--n", "8", "[0,1,1]*x^-12 + [1,0,0,0,0,0,0,1]*x^-3 + x^2"],
    ["reduce", "--p", "5", "--n", "2", "[1,2]*x^-50 + [0,3]*x^-7 + 4"],
    ["reduce", "--p", "67", "--n", "2", "[5,66]*x^-134 + [1,1]*x^-3"],
    ["tower", "--p", "3", "--n", "9", "--j", "2", "--F", "[0,1]*x^-20"],
    # each outcome of the coefficient parser: a stray character, a sign after a sign,
    # a malformed and an over-long vector, an over-long numeral, an exponent past 2^64,
    # sums that cancel; then an error in segment 2 of a tower and a cancelling segment
    ["reduce", "--p", "3", "x^-7 + x@"],
    ["reduce", "--p", "3", "x^-7 +- x"],
    ["reduce", "--p", "2", "--n", "3", "x^-7 + [1,,1]*x^-3"],
    ["reduce", "--p", "2", "--n", "3", "[1,0,0,1]*x^-3"],
    ["reduce", "--p", "3", "x^-7 + " + "1" * 4301 + "*x^-2"],
    ["reduce", "--p", "3", f"x^-{2**64 + 1}"],
    ["reduce", "--p", "3", "x^-7 + 2*x^-7 + x^-7 + x^-5 - x^-5 + x^-2"],
    ["reduce", "--p", "5", "x^-3 - x^-3"],
    ["tower", "--p", "3", "--j", "1", "--F", "x^-4 ; x^-2 ; x^-1 ++ x"],
    ["tower", "--p", "3", "--j", "1", "--F", "x^-5 ; x^-2 - x^-2 + 3*x ; x^-1"],
    # the edges of `format_ext` in `tower --json`: an empty middle row, an F already
    # reduced (a zero substitution), x^0 and x^1 terms, vectors over F_2^8 and F_5^2,
    # p = 7 with every row full; then a `reduce` whose substitution cancels a term
    ["tower", "--p", "3", "--j", "1", "--F", "x^-4 ; 0 ; x^-1"],
    ["tower", "--p", "3", "--j", "1", "--F", "0 ; x^-2"],
    ["tower", "--p", "3", "--j", "1", "--F", "x^-7 + 2 + x ; x^0 + x^1 ; 1"],
    ["tower", "--p", "2", "--n", "8", "--j", "1", "--F",
     "[0,1]*x^-9 + [1] + [1,0,0,0,0,0,0,1]*x ; [1,1]*x^-2"],
    ["tower", "--p", "5", "--n", "2", "--j", "2", "--F",
     "[1,2]*x^-13 + [0,1] + [3,0]*x ; 0 ; [0,3]*x^-1 ; 0 ; [4,4]"],
    ["tower", "--p", "7", "--j", "3", "--F",
     "x^-50 + 1 ; x^-9 ; x^-8 ; x^-7 ; x^-6 ; x^-5 + x ; x^-4"],
    ["reduce", "--p", "3", "x^-9 + 2*x^-3 + x^-1"],
]
# one field per chunk layout of the per-characteristic text tables (one full chunk,
# a full chunk and one more component, two full chunks, ...): a `reduce` and a
# `tower --F` whose text holds a full vector, a short vector and a vector with a
# digit >= p, which the table does not hold
for p, n in [(2, 8), (2, 9), (2, 16), (3, 5), (3, 6), (5, 2), (5, 4), (7, 3)]:
    full = "[" + ",".join(str((k * k + 1) % p) for k in range(n)) + "]"
    short = "[" + ",".join(str(k % p) for k in range(1, n // 2 + 1)) + "]"
    big = "[" + ",".join([str(p + 1)] + ["1"] * (n - 1)) + "]"
    flags = ["--p", str(p), "--n", str(n)]
    PROBES += [["reduce", *flags, f"{full}*x^-{2 * p + 1} + {short}*x^-3 + {big}"],
               ["tower", *flags, "--j", "1", "--F", f"{full}*x^-7 + {big} ; {short}*x^-2"]]

# (p, e, m, breaks) of a filtration the constructor refuses or finds invalid: breaks
# not increasing; the lcm bound (the odd primes 3..59 as denominators pass 2^64 at
# the 16th), the break-index bound and the multiplicity bound; a bool and a float
# multiplicity; an invalid filtration's findings; p = 4, e = 65 and m = 6 at p = 3
ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
REFUSED = [
    (2, 2, 1, [("2", 1), ("1", 1)]),
    (2, 16, 1, [(str(k + Fraction(1, d)), 1) for k, d in enumerate(ODD_PRIMES, 1)]),
    (2, 1, 1, [(str(2**64 + 1), 1)]),
    (2, 1, 1, [("1", 65)]),
    (2, 1, 1, [("1", True)]),
    (2, 1, 1, [("1", 1.5)]),
    (2, 2, 1, [("2", 1)]),
    (4, 1, 1, [("1", 1)]),
    (3, 65, 1, [("1", 1)]),
    (3, 1, 6, [("1", 1)]),
]
for p, e, m, breaks in REFUSED:
    filt = json.dumps({"p": p, "e": e, "m": m, "breaks": [{"c": c, "mult": l}
                                                          for c, l in breaks]})
    # a branch point lists each jump mult times; a bool or float multiplicity is a jump
    jumps = [j for c, l in breaks for j in ([c] * l if type(l) is int else [l])]
    branch = json.dumps({"p": p, "e": e, "m": m, "upper_jumps": jumps})
    PROBES += [["herbrand", filt], ["act", "--a", "1", "--s", "5", filt],
               ["genus", "--G", "12", "--branch", branch]]


def readme_commands(root: Path) -> list[list[str]]:
    """The argv of every `ramforge ...` line inside README.md's fenced code blocks."""
    out, fenced = [], False
    for line in (root / "README.md").read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and re.match(r"ramforge\s", line):
            out.append(shlex.split(line, comments=True)[1:])
    return out


def run(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a traceback is a finding, recorded as one
            code = "raised"
            err.write(f"{type(exc).__name__}: {exc}")
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="the tree whose src/ramforge and perfbench run")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--cycles", type=int, default=2)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.root / "src"), str(args.root)]
    from perfbench import clideck
    from ramforge.cli import main as cli_main

    commands = [cmd["argv"] for seed in args.seeds
                for cmd in clideck.deck(random.Random(f"cli-cold:{seed}"), args.cycles)]
    for argv in readme_commands(args.root) + PROBES:
        commands += [argv, argv + ["--json"]] if "--json" not in argv else [argv]
    raised = 0
    for argv in commands:
        result = run(cli_main, argv)
        raised += result["code"] == "raised"
        print(json.dumps(result, sort_keys=True))
    if raised:
        print(f"{raised} of {len(commands)} commands raised", file=sys.stderr)
    return 1 if raised else 0


if __name__ == "__main__":
    sys.exit(main())
