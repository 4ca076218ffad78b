"""Command-line front end.

Thin adapter over the library: parsing, dispatch and rendering only, no
arithmetic.  Each command handler returns (payload, text): the JSON object
printed under --json and the text printed otherwise; `main` alone writes
the result to stdout.  `cmd_grid` also returns its exit status, 3 when a
row fails.  Exit status 0 on success, 2 on input validation errors, 3 on
invariant violations (a library bug or arithmetically inconsistent data).
Rationals are always num/den strings, never floats.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction

from . import asext, grids
from .algebra import FieldSpec, format_laurent, parse_laurent
from .aschreier import UNRAMIFIED, as_deform, as_reduce
from .errors import InputError, InvariantViolation
from .genus import (
    CoverData,
    KatoInput,
    branch_from_dict,
    genus_spectrum,
    kato_mu,
    rh_genus,
)
from .ramfilt import (
    action_transform,
    admissible_check,
    admissible_enumerate,
    filtration_from_dict,
    filtration_to_dict,
    parse_rational,
    phi,
    psi,
    tower_plan,
    upper_to_lower,
)


def _conductor_json(c):
    return None if c is UNRAMIFIED else c


def _parse_seq(text: str, flag: str) -> tuple[int, ...]:
    seq = text.replace(" ", "")
    if not re.fullmatch(r"[0-9]+(?:,[0-9]+)*", seq):
        raise InputError(f"{flag}: {text!r} is not a comma-separated list of integers")
    try:
        return tuple(map(int, seq.split(",")))
    except ValueError:  # the pattern matched, so only int()'s digit limit is left
        raise InputError(f"{flag}: a numeral has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad {what} JSON: {exc}") from exc
    except ValueError:  # the one other ValueError: an int numeral past int()'s digit limit
        raise InputError(f"bad {what} JSON: a numeral has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise InputError(f"bad {what} JSON: nested too deeply") from None


def cmd_reduce(args):
    f = parse_laurent(FieldSpec(args.p, args.n), args.f)
    red = as_reduce(f)
    reduced, subst = format_laurent(red.f_reduced), format_laurent(red.substitution)
    payload = {"p": args.p, "n": args.n, "f": format_laurent(f), "f_reduced": reduced,
               "conductor": _conductor_json(red.conductor), "substitution": subst}
    return payload, f"f_reduced: {reduced}\nconductor: {red.conductor}\nsubstitution: {subst}"


def cmd_conductor(args):
    c = as_reduce(parse_laurent(FieldSpec(args.p, args.n), args.f)).conductor
    return {"p": args.p, "n": args.n, "conductor": _conductor_json(c)}, f"conductor: {c}"


def cmd_genus(args):
    branch = tuple(branch_from_dict(_load_json(b, "branch point")) for b in args.branch or ())
    g = rh_genus(CoverData(args.G, args.gx, branch))
    return {"G": args.G, "g_X": args.gx, "genus": g}, f"genus: {g}"


def cmd_deform(args):
    spec = FieldSpec(args.p, args.n)
    f = parse_laurent(spec, args.f)
    t0 = parse_laurent(spec, args.t0)
    if len(t0.terms) != 1 or t0.valuation != 0:
        raise InputError(f"deformation parameter {args.t0!r} must be a nonzero constant")
    out = format_laurent(as_deform(f, args.s, t0[0]))
    return ({"p": args.p, "n": args.n, "f": out, "conductor": args.s},
            f"f: {out}\nconductor: {args.s}")


def cmd_act(args):
    filt = filtration_from_dict(_load_json(args.filtration, "filtration"))
    out = action_transform(filt, args.a, args.s)
    if out == filt:
        note = "s/m equals the conductor; the acted cover may be disconnected" \
            if Fraction(args.s, filt.shape.m) == filt.conductor \
            else "s/m is below the conductor"
        print(f"warning: filtration unchanged ({note})", file=sys.stderr)
    bs = ", ".join(f"({c}, {l})" for c, l in out.breaks)
    return (filtration_to_dict(out),
            f"filtration: p={out.shape.p} e={out.shape.e} m={out.shape.m} breaks=[{bs}]")


def cmd_tower(args):
    ext = asext.ExtFieldSpec(FieldSpec(args.p, args.n), args.j)
    F = asext.parse_ext(ext, args.F)
    red = asext.ext_as_reduce(F)
    s1, s2 = asext.upper_jumps(ext, red.jump)
    payload = {"p": args.p, "n": args.n, "j": args.j, "F": asext.format_ext(F),
               "last_lower_jump": red.jump, "upper_jumps": [s1, s2], "conductor": s2}
    return payload, f"upper jumps: ({s1}, {s2})\nlast lower jump: {red.jump}\nconductor: {s2}"


def cmd_herbrand(args):
    filt = filtration_from_dict(_load_json(args.filtration, "filtration"))
    for name, fn in (("psi", psi), ("phi", phi)):
        at = getattr(args, name)
        if at is not None:
            c = parse_rational(at, f"--{name}")
            if c.numerator > 2**64 or c.denominator > 2**64:
                raise InputError(f"--{name}: numerator or denominator exceeds the bound 2^64")
            v = fn(filt, c)
            return {name: {"at": str(c), "value": str(v)}}, f"{name}({c}) = {v}"
    lower = upper_to_lower(filt)
    return ({"lower_jumps": [{"j": j, "mult": l} for j, l in lower]},
            "lower jumps: " + ", ".join(f"({j}, {l})" for j, l in lower))


def cmd_admissible(args):
    if args.check is not None:
        seq = _parse_seq(args.check, "--check")
        ok = admissible_check(list(seq), args.p)
        return {"sequence": list(seq), "admissible": ok}, f"admissible: {str(ok).lower()}"
    if args.e is None or args.bound is None:
        raise InputError("admissible requires either --check or both --e and --bound")
    seqs = admissible_enumerate(args.p, args.e, args.bound)
    return ({"p": args.p, "e": args.e, "bound": args.bound,
             "sequences": [list(s) for s in seqs]},
            "\n".join(",".join(str(x) for x in s) for s in seqs))


def cmd_plan(args):
    steps = tower_plan(_parse_seq(args.start, "--start"), _parse_seq(args.target, "--target"),
                       args.p)
    return (
        {"steps": [{"level": st.level, "start": st.start, "target": st.target}
                   for st in steps]},
        "\n".join(
            f"level {st.level}: minimal {st.start}, deform {st.start} -> {st.target}"
            if st.deforms else f"level {st.level}: minimal {st.start}, no deformation needed"
            for st in steps
        ),
    )


def cmd_spectrum(args):
    result = genus_spectrum(
        args.G, args.p, args.a, args.m, parse_rational(args.sigma0, "--sigma0"),
        args.g0, args.s_iota, args.limit,
    )
    # each value brings its own space, so an empty list prints the bare label
    genera = ",".join(f" {g}" for g in result.genera)
    residues = ",".join(f" {r}" for r in result.residues)
    return ({"genera": list(result.genera), "increment": result.increment,
             "residues": list(result.residues)},
            f"genera:{genera}\nincrement: {result.increment}\nresidues:{residues}")


def cmd_kato(args):
    mu, smooth = kato_mu(KatoInput(args.n, args.dK, args.dk, args.mw))
    return {"mu": mu, "smooth": smooth}, f"mu: {mu}, smooth: {str(smooth).lower()}"


def cmd_grid(args):
    name = args.name
    runner = grids.GRID_RUNNERS.get(name)
    if runner is None:
        raise InputError(
            f"unknown grid {name!r}; available: {', '.join(sorted(grids.GRID_RUNNERS))}"
        )
    kwargs = {}
    for param in grids.GRID_PARAMS[name]:
        value = getattr(args, param)
        if value is None:
            raise InputError(f"grid {name} requires --{param}")
        kwargs[param] = value
    result = runner(**kwargs)
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(result.columns)
    for row in result.rows:
        writer.writerow(
            [str(row[c]).lower() if isinstance(row[c], bool) else row[c]
             for c in result.columns]
        )
    text.write(f"# {result.summary}")
    payload = {"name": result.name, "rows": result.rows, "summary": result.summary}
    return payload, text.getvalue(), 0 if result.passed else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramforge",
        description="Exact wild-ramification invariants of curve covers in characteristic p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, field=False):
        sp = sub.add_parser(name, help=help)
        if field:
            sp.add_argument("--p", type=int, required=True, help="prime characteristic")
            sp.add_argument("--n", type=int, default=1, help="field extension degree")
        sp.add_argument("--json", action="store_true", help="emit JSON instead of text")
        sp.set_defaults(func=func)
        return sp

    sp = command("reduce", cmd_reduce, "reduce an Artin-Schreier right-hand side", field=True)
    sp.add_argument("f", help="Laurent polynomial, e.g. 'x^-4 + x^-1'")

    sp = command("conductor", cmd_conductor, "conductor of y^p - y = f at x = 0", field=True)
    sp.add_argument("f")

    sp = command("genus", cmd_genus, "Riemann-Hurwitz genus from branch data")
    sp.add_argument("--G", type=int, required=True, help="Galois group order")
    sp.add_argument("--gx", type=int, default=0, help="base curve genus")
    sp.add_argument(
        "--branch", action="append",
        help='branch point JSON, e.g. \'{"p":2,"e":2,"m":1,"upper_jumps":["1","2"]}\'',
    )

    sp = command("deform", cmd_deform, "add a dominating pole t0*x^-s", field=True)
    sp.add_argument("--s", type=int, required=True, help="target conductor")
    sp.add_argument("--t0", default="1", help="nonzero constant parameter")
    sp.add_argument("f")

    sp = command("act", cmd_act, "transform a filtration by an order-p^a action")
    sp.add_argument("--a", type=int, required=True, help="subgroup exponent")
    sp.add_argument("--s", type=int, required=True, help="conductor of the acting cover")
    sp.add_argument("filtration", help="filtration JSON")

    sp = command("tower", cmd_tower, "upper jumps of a degree-p^2 tower layer", field=True)
    sp.add_argument("--j", type=int, required=True, help="first lower jump")
    sp.add_argument("--F", required=True,
                    help="extension element, ';'-separated Laurent coefficients")

    sp = command("herbrand", cmd_herbrand, "psi/phi evaluation and jump conversion")
    at = sp.add_mutually_exclusive_group()
    at.add_argument("--psi", default=None, help="evaluate psi at this rational")
    at.add_argument("--phi", default=None, help="evaluate phi at this rational")
    sp.add_argument("filtration", help="filtration JSON")

    sp = command("admissible", cmd_admissible, "check or enumerate admissible sequences")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--e", type=int, default=None)
    sp.add_argument("--bound", type=int, default=None)
    sp.add_argument("--check", default=None, help="comma-separated sequence to check")

    sp = command("plan", cmd_plan, "deformation plan between admissible sequences")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--start", required=True, help="comma-separated sequence")
    sp.add_argument("--target", required=True, help="comma-separated sequence")

    sp = command("spectrum", cmd_spectrum, "achievable genera under conductor deformation")
    sp.add_argument("--G", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a", type=int, default=1)
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--sigma0", default="1", help="base conductor (num/den)")
    sp.add_argument("--g0", type=int, default=0, help="base genus")
    sp.add_argument("--s-iota", dest="s_iota", type=int, default=1)
    sp.add_argument("--limit", type=int, required=True)

    sp = command("kato", cmd_kato, "Kato's smoothness invariant")
    sp.add_argument("--n", type=int, required=True, help="cover degree")
    sp.add_argument("--dK", type=int, required=True, help="generic ramification degree")
    sp.add_argument("--dk", type=int, required=True, help="special ramification degree")
    sp.add_argument("--mw", type=int, required=True, help="points over the singularity")

    sp = command("grid", cmd_grid, "run a named computed-vs-predicted grid")
    sp.add_argument("name", help=", ".join(sorted(grids.GRID_RUNNERS)))
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--jmax", type=int, default=None)
    sp.add_argument("--smax", type=int, default=None)
    sp.add_argument("--e", type=int, default=None)
    sp.add_argument("--bound", type=int, default=None)
    sp.add_argument("--count", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--gmax", type=int, default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, text, *status = args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(text)
    return status[0] if status else 0


if __name__ == "__main__":
    sys.exit(main())
