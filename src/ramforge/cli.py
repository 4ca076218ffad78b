"""Command-line front end.

Thin adapter over the library: parsing, dispatch and rendering only, no
arithmetic.  Exit status 0 on success, 2 on input validation errors, 3 on
invariant violations (a library bug or arithmetically inconsistent data).
Rationals are always num/den strings, never floats.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from . import asext, grids
from .algebra import FieldSpec, format_laurent, parse_laurent
from .aschreier import UNRAMIFIED, as_deform, as_reduce
from .errors import InputError, InvariantViolation
from .genus import (
    BranchPoint,
    CoverData,
    KatoInput,
    genus_spectrum,
    kato_mu,
    rh_genus,
)
from .ramfilt import (
    InertiaShape,
    action_transform,
    admissible_check,
    admissible_enumerate,
    filtration_from_dict,
    filtration_to_dict,
    parse_rational,
    phi,
    psi,
    reject_unknown_keys,
    tower_plan,
    upper_to_lower,
    validate,
)


def _emit_json(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _conductor_json(c):
    return None if c is UNRAMIFIED else c


def _parse_seq(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(",") if x)
    except ValueError:
        raise InputError(f"bad jump sequence {text!r}; expected comma-separated integers")


def _load_filtration(text: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad filtration JSON: {exc}") from exc
    filt = filtration_from_dict(data)
    problems = validate(filt)
    if problems:
        raise InputError("invalid filtration: " + "; ".join(problems))
    return filt


def _load_branch(text: str) -> BranchPoint:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad branch point JSON: {exc}") from exc
    try:
        reject_unknown_keys(data, ("p", "e", "m", "upper_jumps"), "branch point")
        shape = InertiaShape(int(data["p"]), int(data["e"]), int(data.get("m", 1)))
        jumps = tuple(
            parse_rational(s, f"upper jump {i}")
            for i, s in enumerate(data.get("upper_jumps", ()), 1)
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad branch point object: {exc}") from exc
    return BranchPoint(shape, jumps)


def cmd_reduce(args) -> int:
    f = parse_laurent(FieldSpec(args.p, args.n), args.f)
    red = as_reduce(f)
    if args.json:
        _emit_json(
            {
                "p": args.p,
                "n": args.n,
                "f": format_laurent(f),
                "f_reduced": format_laurent(red.f_reduced),
                "conductor": _conductor_json(red.conductor),
                "substitution": format_laurent(red.substitution),
            }
        )
    else:
        print(f"f_reduced: {format_laurent(red.f_reduced)}")
        print(f"conductor: {red.conductor}")
        print(f"substitution: {format_laurent(red.substitution)}")
    return 0


def cmd_conductor(args) -> int:
    spec = FieldSpec(args.p, args.n)
    c = as_reduce(parse_laurent(spec, args.f)).conductor
    if args.json:
        _emit_json({"p": args.p, "n": args.n, "conductor": _conductor_json(c)})
    else:
        print(f"conductor: {c}")
    return 0


def cmd_genus(args) -> int:
    branch = tuple(_load_branch(b) for b in args.branch or ())
    g = rh_genus(CoverData(args.G, args.gx, branch))
    if args.json:
        _emit_json({"G": args.G, "g_X": args.gx, "genus": g})
    else:
        print(f"genus: {g}")
    return 0


def cmd_deform(args) -> int:
    spec = FieldSpec(args.p, args.n)
    f = parse_laurent(spec, args.f)
    t0 = parse_laurent(spec, args.t0)
    if len(t0.terms) != 1 or t0.valuation != 0:
        raise InputError(f"deformation parameter {args.t0!r} must be a nonzero constant")
    out = as_deform(f, args.s, t0[0])
    if args.json:
        _emit_json(
            {"p": args.p, "n": args.n, "f": format_laurent(out.f), "conductor": args.s}
        )
    else:
        print(f"f: {format_laurent(out.f)}")
        print(f"conductor: {args.s}")
    return 0


def cmd_act(args) -> int:
    filt = _load_filtration(args.filtration)
    out = action_transform(filt, args.a, args.s, args.s_iota)
    if out == filt:
        note = "s/m equals the conductor; the acted cover may be disconnected" \
            if Fraction(args.s, filt.shape.m) == filt.conductor \
            else "s/m is below the conductor"
        print(f"warning: filtration unchanged ({note})", file=sys.stderr)
    if args.json:
        _emit_json(filtration_to_dict(out))
    else:
        bs = ", ".join(f"({c}, {l})" for c, l in out.breaks)
        print(f"filtration: p={out.shape.p} e={out.shape.e} m={out.shape.m} breaks=[{bs}]")
    return 0


def cmd_tower(args) -> int:
    ext = asext.ExtFieldSpec(FieldSpec(args.p, args.n), args.j)
    F = asext.parse_ext(ext, args.F)
    red = asext.ext_as_reduce(F)
    s1, s2 = asext.upper_jumps(ext, red.jump)
    if args.json:
        _emit_json(
            {
                "p": args.p,
                "n": args.n,
                "j": args.j,
                "F": asext.format_ext(F),
                "last_lower_jump": red.jump,
                "upper_jumps": [s1, s2],
                "conductor": s2,
            }
        )
    else:
        print(f"upper jumps: ({s1}, {s2})")
        print(f"last lower jump: {red.jump}")
        print(f"conductor: {s2}")
    return 0


def cmd_herbrand(args) -> int:
    filt = _load_filtration(args.filtration)
    if args.psi is not None:
        c = parse_rational(args.psi, "--psi")
        v = psi(filt, c)
        if args.json:
            _emit_json({"psi": {"at": str(c), "value": str(v)}})
        else:
            print(f"psi({c}) = {v}")
        return 0
    if args.phi is not None:
        c = parse_rational(args.phi, "--phi")
        v = phi(filt, c)
        if args.json:
            _emit_json({"phi": {"at": str(c), "value": str(v)}})
        else:
            print(f"phi({c}) = {v}")
        return 0
    lower = upper_to_lower(filt)
    if args.json:
        _emit_json({"lower_jumps": [{"j": j, "mult": l} for j, l in lower]})
    else:
        print("lower jumps: " + ", ".join(f"({j}, {l})" for j, l in lower))
    return 0


def cmd_admissible(args) -> int:
    if args.check is not None:
        seq = _parse_seq(args.check)
        ok = admissible_check(list(seq), args.p)
        if args.json:
            _emit_json({"sequence": list(seq), "admissible": ok})
        else:
            print(f"admissible: {str(ok).lower()}")
        return 0
    if args.e is None or args.bound is None:
        raise InputError("admissible requires either --check or both --e and --bound")
    seqs = admissible_enumerate(args.p, args.e, args.bound)
    if args.json:
        _emit_json({"p": args.p, "e": args.e, "bound": args.bound,
                    "sequences": [list(s) for s in seqs]})
    else:
        for s in seqs:
            print(",".join(str(x) for x in s))
    return 0


def cmd_plan(args) -> int:
    steps = tower_plan(_parse_seq(args.start), _parse_seq(args.target), args.p)
    if args.json:
        _emit_json(
            {"steps": [{"level": st.level, "start": st.start, "target": st.target}
                       for st in steps]}
        )
    else:
        for st in steps:
            if st.deforms:
                print(f"level {st.level}: minimal {st.start}, deform {st.start} -> {st.target}")
            else:
                print(f"level {st.level}: minimal {st.start}, no deformation needed")
    return 0


def cmd_spectrum(args) -> int:
    result = genus_spectrum(
        args.G, args.p, args.a, args.m, parse_rational(args.sigma0, "--sigma0"),
        args.g0, args.s_iota, args.limit,
    )
    if args.json:
        _emit_json(
            {
                "genera": list(result.genera),
                "increment": result.increment,
                "residues": list(result.residues),
            }
        )
    else:
        print("genera: " + ", ".join(str(g) for g in result.genera))
        print(f"increment: {result.increment}")
        print("residues: " + ", ".join(str(r) for r in result.residues))
    return 0


def cmd_kato(args) -> int:
    mu, smooth = kato_mu(KatoInput(args.n, args.dK, args.dk, args.mw))
    if args.json:
        _emit_json({"mu": mu, "smooth": smooth})
    else:
        print(f"mu: {mu}, smooth: {str(smooth).lower()}")
    return 0


def cmd_grid(args) -> int:
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
    if args.json:
        _emit_json(
            {"name": result.name, "rows": result.rows, "summary": result.summary}
        )
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(result.columns)
        for row in result.rows:
            writer.writerow(
                [str(row[c]).lower() if isinstance(row[c], bool) else row[c]
                 for c in result.columns]
            )
        print(f"# {result.summary}")
    return 0 if result.passed else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramforge",
        description="Exact wild-ramification invariants of curve covers in characteristic p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, field=True):
        if field:
            sp.add_argument("--p", type=int, required=True, help="prime characteristic")
            sp.add_argument("--n", type=int, default=1, help="field extension degree")
        sp.add_argument("--json", action="store_true", help="emit JSON instead of text")

    sp = sub.add_parser("reduce", help="reduce an Artin-Schreier right-hand side")
    common(sp)
    sp.add_argument("f", help="Laurent polynomial, e.g. 'x^-4 + x^-1'")
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("conductor", help="conductor of y^p - y = f at x = 0")
    common(sp)
    sp.add_argument("f")
    sp.set_defaults(func=cmd_conductor)

    sp = sub.add_parser("genus", help="Riemann-Hurwitz genus from branch data")
    sp.add_argument("--G", type=int, required=True, help="Galois group order")
    sp.add_argument("--gx", type=int, default=0, help="base curve genus")
    sp.add_argument(
        "--branch", action="append",
        help='branch point JSON, e.g. \'{"p":2,"e":2,"m":1,"upper_jumps":["1","2"]}\'',
    )
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_genus)

    sp = sub.add_parser("deform", help="add a dominating pole t0*x^-s")
    common(sp)
    sp.add_argument("--s", type=int, required=True, help="target conductor")
    sp.add_argument("--t0", default="1", help="nonzero constant parameter")
    sp.add_argument("f")
    sp.set_defaults(func=cmd_deform)

    sp = sub.add_parser("act", help="transform a filtration by an order-p^a action")
    sp.add_argument("--a", type=int, required=True, help="subgroup exponent")
    sp.add_argument("--s", type=int, required=True, help="conductor of the acting cover")
    sp.add_argument("--s-iota", dest="s_iota", type=int, default=None,
                    help="override the congruence class (default: derived)")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("filtration", help="filtration JSON")
    sp.set_defaults(func=cmd_act)

    sp = sub.add_parser("tower", help="upper jumps of a degree-p^2 tower layer")
    common(sp)
    sp.add_argument("--j", type=int, required=True, help="first lower jump")
    sp.add_argument("--F", required=True,
                    help="extension element, ';'-separated Laurent coefficients")
    sp.set_defaults(func=cmd_tower)

    sp = sub.add_parser("herbrand", help="psi/phi evaluation and jump conversion")
    sp.add_argument("--psi", default=None, help="evaluate psi at this rational")
    sp.add_argument("--phi", default=None, help="evaluate phi at this rational")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("filtration", help="filtration JSON")
    sp.set_defaults(func=cmd_herbrand)

    sp = sub.add_parser("admissible", help="check or enumerate admissible sequences")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--e", type=int, default=None)
    sp.add_argument("--bound", type=int, default=None)
    sp.add_argument("--check", default=None, help="comma-separated sequence to check")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_admissible)

    sp = sub.add_parser("plan", help="deformation plan between admissible sequences")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--start", required=True, help="comma-separated sequence")
    sp.add_argument("--target", required=True, help="comma-separated sequence")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_plan)

    sp = sub.add_parser("spectrum", help="achievable genera under conductor deformation")
    sp.add_argument("--G", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a", type=int, default=1)
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--sigma0", default="1", help="base conductor (num/den)")
    sp.add_argument("--g0", type=int, default=0, help="base genus")
    sp.add_argument("--s-iota", dest="s_iota", type=int, default=1)
    sp.add_argument("--limit", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("kato", help="Kato's smoothness invariant")
    sp.add_argument("--n", type=int, required=True, help="cover degree")
    sp.add_argument("--dK", type=int, required=True, help="generic ramification degree")
    sp.add_argument("--dk", type=int, required=True, help="special ramification degree")
    sp.add_argument("--mw", type=int, required=True, help="points over the singularity")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_kato)

    sp = sub.add_parser("grid", help="run a named computed-vs-predicted grid")
    sp.add_argument("name", help=", ".join(sorted(grids.GRID_RUNNERS)))
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--jmax", type=int, default=None)
    sp.add_argument("--smax", type=int, default=None)
    sp.add_argument("--e", type=int, default=None)
    sp.add_argument("--bound", type=int, default=None)
    sp.add_argument("--count", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--gmax", type=int, default=None)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_grid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (InputError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
