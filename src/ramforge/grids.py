"""Named parameter grids with computed-vs-predicted columns.

Each runner is a pure library call returning a GridResult; the CLI only
renders them.  The grids double as the machinery behind the acceptance
checks, so every row carries an explicit pass flag.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .algebra import FieldSpec, _Record, _store, require_int, require_prime
from .asext import ExtElement, ExtFieldSpec, ext_as_reduce, minimal_tower_element, upper_jumps
from .errors import InputError
from .genus import (
    BranchPoint,
    CoverData,
    contains_progressions,
    genus_increment,
    genus_spectrum,
    rh_genus,
    spectrum_density,
)
from .ramfilt import (
    InertiaShape,
    _admissible,
    admissible_enumerate,
    lower_to_upper,
    phi,
    psi,
    random_filtration,
    upper_to_lower,
)


class GridResult(_Record):
    __slots__ = ()
    _fields = ("name", "columns", "rows", "passed", "summary")

    def __init__(self, name: str, columns: list[str], rows: list[dict], passed: bool,
                 summary: str):
        _store(self, (name, columns, rows, passed, summary))


def _finish(name: str, rows: list[dict]) -> GridResult:
    """The grid's result; its columns are the keys of its rows."""
    if not rows:
        raise InputError(f"grid {name} has no rows for these parameters")
    ok = sum(1 for r in rows if r["pass"])
    passed = ok == len(rows)
    verdict = "PASS" if passed else "FAIL"
    return GridResult(name, list(rows[0]), rows, passed, f"{verdict} {ok}/{len(rows)}")


# Each cap below keeps its grid's call, rendering included, at ~0.5 s or
# less on a 2-vCPU VM.  A genus-grid row costs ~45 us.
MAX_GENUS_GRID_JMAX = 10000


def genus_grid(p: int, jmax: int) -> GridResult:
    """Riemann-Hurwitz pipeline vs the closed form (p-1)(j-1)/2 for one
    wildly ramified point on the line, j <= jmax <= MAX_GENUS_GRID_JMAX."""
    require_prime(p)
    require_int(jmax, "jmax", 0, MAX_GENUS_GRID_JMAX)
    rows = []
    for j in range(1, jmax + 1):
        if j % p == 0:
            continue
        bp = BranchPoint(InertiaShape(p, 1, 1), (Fraction(j),))
        computed = rh_genus(CoverData(p, 0, (bp,)))
        predicted = (p - 1) * (j - 1) // 2
        rows.append(
            {"p": p, "j": j, "computed": computed, "predicted": predicted,
             "pass": computed == predicted}
        )
    return _finish("genus-grid", rows)


# An econd-grid row costs ~5.5 us * (p + 10); there are at most jmax*smax.
MAX_ECOND_WORK = 60000


def econd_grid(p: int, jmax: int, smax: int) -> GridResult:
    """Tower jump engine vs the closed forms J = max(ps - j(p-1), (p^2-p+1)j)
    and conductor = max(s, pj), for jmax*smax*(p + 10) <= MAX_ECOND_WORK with
    |jmax|, |smax| <= 2^64, so the cap's message prints them; and
    the tower's Riemann-Hurwitz genus (one Z/p^2 point over the line) vs the
    base tower's genus plus genus_increment from the conductor pj out to s.
    The base tower minimal_tower_element has leading weight (p^2-p+1)j, prime
    to p, so it is reduced and that weight is its jump."""
    field = FieldSpec(p)
    require_int(jmax, "jmax", -2**64)
    require_int(smax, "smax", -2**64)
    # smax counts as at least 1: each j costs a base tower even with no s
    if jmax * max(smax, 1) * (p + 10) > MAX_ECOND_WORK:
        raise InputError(
            f"jmax {jmax} and smax {smax} at p = {p} exceed the cap "
            f"jmax*smax*(p + 10) <= {MAX_ECOND_WORK}"
        )
    shape = InertiaShape(p, 2, 1)

    def tower_genus(jumps):
        return rh_genus(CoverData(p * p, 0, (BranchPoint(shape, jumps),)))

    rows = []
    for j in range(1, jmax + 1):
        if j % p == 0:
            continue
        ext = ExtFieldSpec(field, j)
        f_min = minimal_tower_element(ext)
        base_genus = tower_genus(upper_jumps(ext, -f_min.valuation))
        for s in range(j + 1, smax + 1):
            if s % p == 0:
                continue
            F = f_min + ExtElement.x_pow(ext, -s)
            J = ext_as_reduce(F).jump
            J_pred = max(p * s - j * (p - 1), (p * p - p + 1) * j)
            jumps = upper_jumps(ext, J)
            cond = jumps[1]
            cond_pred = max(s, p * j)
            genus = tower_genus(jumps)
            genus_pred = base_genus + (
                genus_increment(p * p, p, 1, 1, p * j, s) if s > p * j else 0)
            rows.append(
                {"p": p, "j": j, "s": s,
                 "J": J, "J_predicted": J_pred,
                 "conductor": cond, "conductor_predicted": cond_pred,
                 "genus": genus, "genus_predicted": genus_pred,
                 "pass": J == J_pred and cond == cond_pred and genus == genus_pred}
            )
    return _finish("econd-grid", rows)


# The roundtrip grid's cost is linear in its count.
MAX_ROUNDTRIP_COUNT = 2000


def herbrand_roundtrip(count: int = 1000, seed: int = 1) -> GridResult:
    """phi(psi(c)) = c at ten random rational points, plus exact inversion of the
    upper/lower jump conversion, on count <= MAX_ROUNDTRIP_COUNT random valid
    filtrations."""
    require_int(count, "count", 0, MAX_ROUNDTRIP_COUNT)
    rng = random.Random(seed)
    rows = []
    for idx in range(count):
        filt = random_filtration(rng)
        ok = True
        for _ in range(10):
            c = Fraction(rng.randint(0, 40), rng.randint(1, 12))
            if phi(filt, psi(filt, c)) != c or psi(filt, phi(filt, c)) != c:
                ok = False
        if lower_to_upper(filt.shape, upper_to_lower(filt)) != filt:
            ok = False
        rows.append(
            {"index": idx, "p": filt.shape.p, "e": filt.shape.e, "m": filt.shape.m,
             "breaks": "|".join(str(c) for c, _ in filt.breaks), "pass": ok}
        )
    return _finish("herbrand-roundtrip", rows)


def brute_force_admissible(p: int, e: int, bound: int) -> list[tuple[int, ...]]:
    """Filter every integer tuple up to the bound with the definition, in the
    lexicographic order `itertools.product` yields them; p is checked once."""
    require_prime(p)
    return [seq for seq in itertools.product(range(1, bound + 1), repeat=e)
            if _admissible(seq, p)]


# The brute force costs ~0.3 us per tuple.
MAX_BRUTE_FORCE_TUPLES = 300000


def admissible_count(p: int, e: int, bound: int) -> GridResult:
    """Level-wise enumeration vs the brute-force filter, for every length up
    to e; the brute force walks bound + bound^2 + ... + bound^e tuples, at
    most MAX_BRUTE_FORCE_TUPLES, with |e|, |bound| <= 2^64 so the cap's
    message prints them; `admissible_enumerate` checks p."""
    require_int(e, "e", -2**64)
    require_int(bound, "bound", -2**64)
    tuples, width = 0, 1
    for _ in range(e):
        width *= max(bound, 1)
        tuples += width
        if tuples > MAX_BRUTE_FORCE_TUPLES:
            raise InputError(
                f"e {e} and bound {bound} leave more than {MAX_BRUTE_FORCE_TUPLES} "
                "tuples to brute-force"
            )
    rows = []
    for length in range(1, e + 1):
        fast = admissible_enumerate(p, length, bound)
        brute = brute_force_admissible(p, length, bound)
        rows.append(
            {"p": p, "e": length, "bound": bound,
             "enumerated": len(fast), "bruteforce": len(brute),
             "pass": fast == brute}
        )
    return _finish("admissible-count", rows)


# A density-check row costs ~2.5 us.
MAX_DENSITY_GMAX = 100000


def predicted_line_genera(p: int, limit: int) -> set[int]:
    """Enumeration oracle: genera (p-1)(j-1)/2 <= limit over conductors j
    prime to p, that is j <= 2*limit/(p-1) + 1, for a prime p and
    0 <= limit <= MAX_DENSITY_GMAX."""
    require_prime(p)
    require_int(limit, "limit", 0, MAX_DENSITY_GMAX)
    return {(p - 1) * (j - 1) // 2 for j in range(1, 2 * limit // (p - 1) + 2) if j % p}


def density_check(p: int, gmax: int) -> GridResult:
    """Achieved genus set for a cyclic-p cover of the line vs the predicted
    congruence classes, with the density ratio on an increment-aligned range;
    one row per g <= gmax <= MAX_DENSITY_GMAX."""
    require_int(gmax, "gmax", 0, MAX_DENSITY_GMAX)
    spectrum = genus_spectrum(p, p, 1, 1, Fraction(1), 0, 1, gmax)
    achieved = set(spectrum.genera)
    predicted = predicted_line_genera(p, gmax)
    inc = spectrum.increment
    if gmax < inc:
        raise InputError(f"gmax {gmax} is below the progression increment {inc}")
    aligned = (gmax // inc) * inc
    count = sum(1 for g in achieved if g < aligned)
    density = Fraction(count, aligned)
    rows = []
    for g in range(0, gmax + 1):
        rows.append(
            {"p": p, "g": g, "achieved": g in achieved, "predicted": g in predicted,
             "pass": (g in achieved) == (g in predicted)}
        )
    bound = spectrum_density(p, p, 1)  # 2/p for G = Z/p
    rows.append(
        {"p": p, "g": f"density[0,{aligned})", "achieved": str(density),
         "predicted": str(bound),
         "pass": density == bound and contains_progressions(spectrum, p)}
    )
    return _finish("density-check", rows)


GRID_PARAMS = {
    "genus-grid": ("p", "jmax"),
    "econd-grid": ("p", "jmax", "smax"),
    "herbrand-roundtrip": ("count", "seed"),
    "admissible-count": ("p", "e", "bound"),
    "density-check": ("p", "gmax"),
}

GRID_RUNNERS = {
    "genus-grid": genus_grid,
    "econd-grid": econd_grid,
    "herbrand-roundtrip": herbrand_roundtrip,
    "admissible-count": admissible_count,
    "density-check": density_check,
}
