"""In-process workloads: set-up, one item, and the check of its output.

Importing this module imports ramforge, so the worker imports it only
after the deck is built and the set-up clock has started.  Each item
function takes the span factory `sp` and wraps every call it makes into a
ramforge layer in `with sp(name):`.  Check functions read only the item,
its output and the reference arithmetic in `oracle`.
"""

from __future__ import annotations

from fractions import Fraction

from ramforge import (
    BranchPoint,
    CoverData,
    ExtFieldSpec,
    FieldSpec,
    Filtration,
    InertiaShape,
    action_transform,
    as_reduce,
    ext_as_reduce,
    format_ext,
    format_laurent,
    genus_spectrum,
    lower_to_upper,
    parse_ext,
    parse_laurent,
    phi,
    psi,
    ram_divisor_degree,
    rh_genus,
    tower_jumps,
    upper_to_lower,
    validate,
)

from . import gen
from . import oracle as O

# ------------------------------------------------------------------ reduce


def reduce_setup(sp):
    """Every FieldSpec and ExtFieldSpec a reduce deck can use, built cold."""
    ctx = {}
    for key in gen.reduce_specs():
        with sp("algebra.field_setup"):
            if len(key) == 2:
                ctx[key] = FieldSpec(*key)
            else:
                ctx[key] = ExtFieldSpec(ctx[key[:2]], key[2])
    return ctx


def reduce_item(ctx, it, sp):
    if it["kind"] == "line":
        with sp("algebra.parse"):
            f = parse_laurent(ctx[it["pn"]], it["f"])
        with sp("aschreier.as_reduce"):
            red = as_reduce(f)
        with sp("algebra.format"):
            reduced = format_laurent(red.f_reduced)
            subst = format_laurent(red.substitution)
        return {"conductor": red.conductor, "reduced": reduced, "subst": subst}
    with sp("algebra.parse"):
        F = parse_ext(ctx[it["pn"] + (it["j"],)], it["F"])
    with sp("asext.ext_as_reduce"):
        red = ext_as_reduce(F)
    with sp("asext.tower_jumps"):
        jumps = tower_jumps(F)
    with sp("algebra.format"):
        reduced = format_ext(red.reduced)
        subst = format_ext(red.substitution)
    return {"J": red.jump, "jumps": jumps, "reduced": reduced, "subst": subst}


def reduce_check(it, out, ctx):
    """Planted conductor or closed-form tower jumps, then the certificate
    f - reduced == h^p - h in reference arithmetic.  Returns (error, counts)."""
    F = O.field(*it["pn"])
    if tuple(ctx[it["pn"]].modulus) != F.modulus:
        return "field modulus differs from the least irreducible", {}
    if it["kind"] == "line":
        if out["conductor"] != it["s"]:
            return f"conductor {out['conductor']} != planted {it['s']}", {}
        f, red, h = (O.l_parse(F, t) for t in (it["f"], out["reduced"], out["subst"]))
        if O.l_add(F, f, red, -1) != O.l_frob_minus_id(F, h):
            return "f - reduced != h^p - h", {}
        return None, {"aschreier.as_reduce.steps": len(h)}
    j = it["j"]
    if out["J"] != it["J"] or tuple(out["jumps"]) != tuple(it["jumps"]):
        return f"tower J={out['J']} jumps={out['jumps']}, expected {it['J']} {it['jumps']}", {}
    f, red, H = (O.x_parse(F, t) for t in (it["F"], out["reduced"], out["subst"]))
    if O.x_add(F, f, red, -1) != O.x_frob_minus_id(F, j, H):
        return "F - reduced != H^p - H", {}
    return None, {"asext.ext_as_reduce.steps": O.x_monomials(H)}


# ------------------------------------------------------------- herbrand-eval


def herbrand_setup(sp):
    return None


def herbrand_item(ctx, it, sp):
    with sp("ramfilt.construct"):
        filt = Filtration(InertiaShape(it["p"], it["e"], it["m"]), it["breaks"])
    out = []
    with sp("ramfilt.psi_phi"):
        for c in it["points"]:
            u = psi(filt, c)
            out.append((u, phi(filt, u)))
    return out


def herbrand_check(it, out, ctx):
    """psi against the segment-sum reference, phi o psi = id."""
    m, p, breaks = it["m"], it["p"], it["breaks"]
    for c, (u, back) in zip(it["points"], out):
        if u != O.psi(m, p, breaks, c):
            return f"psi({c}) = {u}, expected {O.psi(m, p, breaks, c)}", {}
        if back != c or O.phi(m, p, breaks, u) != c:
            return f"phi(psi({c})) = {back}", {}
    return None, {"ramfilt.psi_phi.evals": 2 * len(out)}


# --------------------------------------------------------------- genus-build


def genus_setup(sp):
    return None


def genus_item(ctx, it, sp):
    p = it["p"]
    with sp("ramfilt.construct"):
        shape = InertiaShape(p, it["e"], it["m"])
        filt = lower_to_upper(shape, it["lower"])
    with sp("ramfilt.validate"):
        problems = validate(filt)
    with sp("ramfilt.convert"):
        lower = upper_to_lower(filt)
    upper = [s for s, mult in filt.breaks for _ in range(mult)]
    with sp("genus.construct"):
        bps = [BranchPoint(shape, upper)] + [
            BranchPoint(InertiaShape(p, b["e"], b["m"]), b["upper"]) for b in it["branches"]
        ]
        cover = CoverData(it["G"], it["g_X"], bps)
    with sp("genus.ram_divisor_degree"):
        degrees = [ram_divisor_degree(bp) for bp in bps]
    with sp("genus.rh_genus"):
        g = rh_genus(cover)
    with sp("ramfilt.action_transform"):
        acted = action_transform(filt, it["a"], it["s"])
    with sp("genus.spectrum"):
        spec = genus_spectrum(
            it["G"], p, it["a"], it["m"], filt.conductor, g, it["s_iota"], it["limit"]
        )
    return {
        "upper": list(filt.breaks), "problems": problems, "lower": lower,
        "degrees": degrees, "genus": g, "acted": list(acted.breaks),
        "genera": list(spec.genera),
    }


def genus_check(it, out, ctx):
    """Jump conversion round trip, Hilbert's formula, Riemann-Hurwitz,
    the action law and the spectrum enumeration, all by reference."""
    want = {
        "upper": it["want_upper"], "problems": [], "lower": [tuple(x) for x in it["lower"]],
        "degrees": it["want_degrees"], "genus": it["want_genus"],
        "acted": it["want_acted"], "genera": it["want_spectrum"],
    }
    for key, value in want.items():
        got = out[key]
        if key in ("upper", "acted"):
            got = [(Fraction(s), mult) for s, mult in got]
        if got != value:
            return f"{key}: got {got}, expected {value}", {}
    return None, {"genus.spectrum.genera": len(out["genera"])}


WORKLOADS = {
    "reduce": (reduce_setup, reduce_item, reduce_check),
    "herbrand-eval": (herbrand_setup, herbrand_item, herbrand_check),
    "genus-build": (genus_setup, genus_item, genus_check),
}
