"""Crash fuzz of the `ramforge` command, in process through `cli.main`.

The argv lists are built from every subcommand and flag the parser
declares, with valid values, malformed values and huge integers, plus
Laurent text, `;` extension text, rationals, jump sequences and JSON.
Every call must return 0, 2 or 3; the only exception allowed out of
`main` is argparse's SystemExit (0 for help, otherwise 2); and every
call must finish within BUDGET_S.  Nothing here starts a process or a
thread.
"""

import argparse
import contextlib
import io
import json
import time

from hypothesis import HealthCheck, example, given, settings, strategies as st

from ramforge import grids
from ramforge.cli import build_parser, main

BUDGET_S = 2.0


def _subcommands():
    """{subcommand: [its actions]}, without the help action."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [a for a in sp._actions if not isinstance(a, argparse._HelpAction)]
        for name, sp in sub.choices.items()
    }


SUBCOMMANDS = _subcommands()

# ------------------------------------------------------------------ values

# the longest numeral int() reads; results built from it are longer than str() writes
N4300 = int("9" * 4299 + "7")
# json.dumps cannot write a numeral past int()'s digit limit, so `_dumps`
# writes one in place of this value
LONG_JSON_INT = 31415926535897932384626

small_ints = st.one_of(st.sampled_from([2, 3, 5, 7, 1, 13, 251, 257]), st.integers(-2, 40))
huge_ints = st.one_of(
    st.integers(10**6, 10**40),
    st.integers(-(10**40), -(10**6)),
    st.sampled_from([2**61 - 1, 2**64 - 59, 2**64 + 13, 10**4000, N4300, -N4300,
                     LONG_JSON_INT]),
)
int_texts = st.one_of(
    huge_ints.map(str),
    st.just("9" * 5000),  # above int()'s digit limit
)
malformed = st.one_of(
    st.sampled_from(["", "x", "1.5", "-", "1e3", "0x10", "\u0663", " 7", "--json", "1/0"]),
    st.text(max_size=8),
)
exponents = st.one_of(st.integers(-60, 6), huge_ints)
terms = st.one_of(
    st.builds("{}*x^{}".format, st.integers(0, 12), exponents),
    st.builds("x^{}".format, exponents),
    st.sampled_from(["x", "1", "[1,1]*x^-3", "[0,1,1]*x^-7", "2*x"]),
)
laurent_texts = st.one_of(
    st.lists(terms, min_size=1, max_size=5).map(" + ".join),
    st.text(alphabet="x^*+-0123456789[], ;", max_size=30),
)
ext_texts = st.lists(st.one_of(laurent_texts, st.just("0")), min_size=1, max_size=4).map(
    " ; ".join
)
rationals = st.one_of(
    st.builds("{}/{}".format, st.integers(-5, 60), st.integers(0, 13)),
    st.one_of(small_ints, huge_ints).map(str),
    st.builds("{}/{}".format, st.one_of(small_ints, huge_ints), st.sampled_from([2, 3, N4300])),
)
sequences = st.lists(st.one_of(st.integers(0, 300), huge_ints), min_size=1, max_size=6).map(
    lambda xs: ",".join(map(str, xs))
)
json_ints = st.one_of(small_ints, huge_ints)
json_scalars = st.one_of(json_ints, rationals, st.booleans(), st.none(), st.just(1.5))
filtrations = st.fixed_dictionaries(
    {"p": json_ints, "e": json_ints, "m": json_ints,
     "breaks": st.lists(st.fixed_dictionaries({"c": rationals, "mult": json_ints}),
                        max_size=4)},
    optional={"extra": json_scalars},
)
branch_points = st.fixed_dictionaries(
    {"p": json_ints, "e": json_ints, "m": json_ints,
     "upper_jumps": st.lists(rationals, max_size=4)},
)
any_json = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8,
)


def _dumps(obj):
    return json.dumps(obj).replace(str(LONG_JSON_INT), "1" * 4400)


TEXT_VALUES = {
    "f": laurent_texts,
    "t0": laurent_texts,
    "F": ext_texts,
    "filtration": st.one_of(filtrations, filtrations, any_json).map(_dumps),
    "branch": st.one_of(branch_points, branch_points, any_json).map(_dumps),
    "psi": rationals,
    "phi": rationals,
    "sigma0": rationals,
    "check": sequences,
    "start": sequences,
    "target": sequences,
    "name": st.sampled_from(sorted(grids.GRID_RUNNERS)),
}


# hypothesis draws integers near 0 most often, so the top value is the rare case
rare = st.integers(0, 19).map(lambda k: k == 19)


def _value(draw, action):
    """Mostly a well-formed value of the flag's kind: 1 in 20 is huge (ints
    only) and 1 in 20 malformed."""
    kind = draw(st.integers(0, 19))
    if kind == 19:
        return draw(malformed)
    if action.type is int:
        return draw(int_texts if kind == 18 else small_ints.map(str))
    return draw(TEXT_VALUES[action.dest])


@st.composite
def argvs(draw):
    """One argv list: a subcommand with each required flag or positional in
    19 of 20 cases and each optional flag in 1 of 2, in a drawn order; 1 in
    20 is a list of arbitrary words instead."""
    if draw(rare):
        return draw(st.lists(st.text(max_size=10), max_size=6))
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    words = []
    for action in SUBCOMMANDS[name]:
        if draw(rare if action.required else st.booleans()):
            continue
        if action.nargs == 0:  # --json
            words.append([action.option_strings[0]])
        elif action.option_strings:
            words.append([action.option_strings[0], _value(draw, action)])
        else:
            words.append([_value(draw, action)])
    if draw(st.integers(0, 49)) == 49:
        words.append(["--help"])
    order = draw(st.permutations(range(len(words))))
    return [name] + [w for k in order for w in words[k]]


# ----------------------------------------------------------------- the target

def _asks_for_help(argv):
    # -h, or an abbreviation argparse expands to --help
    return any(w.startswith("-h") or (len(w) > 2 and "--help".startswith(w)) for w in argv)


def _check(argv):
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2), argv
            assert exc.code == 2 or _asks_for_help(argv), argv
        else:
            assert code in (0, 2, 3), argv
    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET_S, (argv, elapsed)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(argvs())
# results longer than str() writes, and a JSON numeral past int()'s digit limit
@example(["kato", "--n", "1", "--dK", str(N4300), "--dk", str(-N4300), "--mw", "1"])
@example(["genus", "--G", str(2**64), "--branch",
          '{"p":2,"e":1,"upper_jumps":["%d"]}' % N4300])
@example(["herbrand", "--psi", str(N4300), '{"p":2,"e":2,"breaks":[{"c":"1","mult":2}]}'])
@example(["herbrand", "--psi", "9", '{"p":2,"e":0,"m":%d,"breaks":[]}' % N4300])
@example(["herbrand", '{"p":2,"e":1,"m":3,"breaks":[{"c":"%d/2","mult":1}]}' % N4300])
@example(["genus", "--G", "6", "--branch", '{"p":2,"e":1,"m":3,"upper_jumps":["%d/2"]}' % N4300])
@example(["spectrum", "--G", "2", "--p", "2", "--m", str(N4300), "--limit", "10"])
@example(["spectrum", "--G", "8", "--p", "2", "--a", "2", "--sigma0", f"1/{N4300}",
          "--limit", "10"])
@example(["admissible", "--p", str(2**61 - 1), "--e", "1000", "--bound", str(N4300)])
@example(["tower", "--p", "2", "--j", str(N4300), "--F", "x^-5 ; x^-18446744073709551616"])
@example(["herbrand", '{"p": %s, "e": 1, "breaks": []}' % ("1" * 4400)])
@example(["herbrand", "[" * 100000])  # past the JSON decoder's recursion limit
@example(["grid", "econd-grid", "--p", "2", "--jmax", str(N4300), "--smax", "-1"])
def test_main_exits_0_2_or_3_within_budget(argv):
    _check(argv)


def test_fuzz_covers_every_subcommand_and_flag():
    # each text-valued flag has a value strategy; a new flag needs one too
    for actions in SUBCOMMANDS.values():
        for action in actions:
            if action.nargs != 0 and action.type is not int:
                assert action.dest in TEXT_VALUES, action.dest
