"""Artin-Schreier reduction, conductors, deformation and the cover action."""

import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from ramforge.algebra import FieldSpec, LaurentPoly, artin_schreier, parse_laurent
from ramforge.aschreier import (
    UNRAMIFIED,
    Connectedness,
    action_connectedness,
    as_conductor,
    as_deform,
    as_reduce,
)
from ramforge.errors import (
    FieldMismatch,
    InvalidJump,
    NotLarger,
    SplitInput,
    ZeroParameter,
)
from ramforge.genus import BranchPoint, CoverData, branch_from_dict, rh_genus
from ramforge.ramfilt import InertiaShape

# the benchmark's reference arithmetic, written without ramforge
_ORACLE = importlib.util.spec_from_file_location(
    "oracle", Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py")
O = importlib.util.module_from_spec(_ORACLE)
_ORACLE.loader.exec_module(O)

F2 = FieldSpec(2)
F3 = FieldSpec(3)


def L(spec, text):
    return parse_laurent(spec, text)


def brute_force_conductor(f):
    """Independent oracle: maximize the valuation of f - (h^p - h) over all
    substitutions h supported on a small exponent window."""
    spec = f.spec
    v = f.valuation
    if v >= 0:
        return UNRAMIFIED
    best = v
    exps = range(v, 0)
    nonzero = [c for c in spec.elements() if not c.is_zero]
    for k in range(0, len(exps) + 1):
        for combo in itertools.combinations(exps, k):
            for coeffs in itertools.product(nonzero, repeat=k):
                h = LaurentPoly(spec, dict(zip(combo, coeffs)))
                w = (f - artin_schreier(h)).valuation
                if w > best:
                    best = w
    if best >= 0:
        return UNRAMIFIED
    return -best


# ----------------------------------------------------------------- reduction

def test_reduce_x_minus_4_char_2():
    red = as_reduce(L(F2, "x^-4"))
    assert red.f_reduced == L(F2, "x^-1")
    assert red.conductor == 1
    assert red.substitution == L(F2, "x^-2 + x^-1")
    # the substitution accounts exactly for the change
    assert L(F2, "x^-4") - red.f_reduced == artin_schreier(red.substitution)


def test_reduce_prime_pole_is_noop():
    red = as_reduce(L(F2, "x^-3"))
    assert red.conductor == 3
    assert red.f_reduced == L(F2, "x^-3")
    assert red.substitution.is_zero


def test_reduce_split_cover():
    red = as_reduce(L(F2, "x^-2 + x^-1"))
    assert red.conductor is UNRAMIFIED
    assert red.f_reduced.is_zero


def test_reduce_idempotent():
    rng = random.Random(7)
    for _ in range(40):
        f = _random_laurent(rng, F2)
        red = as_reduce(f)
        again = as_reduce(red.f_reduced)
        assert again.f_reduced == red.f_reduced
        assert again.substitution.is_zero


# ----------------------------------------------------------------- conductor

def test_conductor_two_step_reduction_char_3():
    f = L(F3, "x^-6 + x^-3")
    assert as_conductor(f) == 2
    assert brute_force_conductor(f) == 2


def test_conductor_trivial_cases():
    assert as_conductor(L(F2, "x^-5")) == 5
    assert as_conductor(L(F3, "x^2")) is UNRAMIFIED
    assert as_conductor(L(F2, "1 + x")) is UNRAMIFIED


def test_conductor_agrees_with_brute_force():
    rng = random.Random(11)
    for spec in (F2, F3):
        for _ in range(25):
            f = _random_laurent(rng, spec, lo=-6, hi=1, maxterms=3)
            assert as_conductor(f) == brute_force_conductor(f)


def _random_laurent(rng, spec, lo=-12, hi=3, maxterms=5):
    terms = {}
    for _ in range(rng.randint(0, maxterms)):
        e = rng.randint(lo, hi)
        c = rng.randrange(spec.q)
        coords = []
        for _ in range(spec.n):
            coords.append(c % spec.p)
            c //= spec.p
        terms[e] = spec.element(coords)
    return LaurentPoly(spec, terms)


def test_conductor_never_divisible_by_p():
    rng = random.Random(3)
    for spec in (F2, F3, FieldSpec(5)):
        for _ in range(60):
            c = as_conductor(_random_laurent(rng, spec))
            if c is not UNRAMIFIED:
                assert c % spec.p != 0


def test_wp_invariance():
    rng = random.Random(5)
    for spec in (F2, F3):
        for _ in range(50):
            f = _random_laurent(rng, spec)
            h = _random_laurent(rng, spec, lo=-6, hi=2)
            assert as_conductor(f + artin_schreier(h)) == as_conductor(f)


# --------------------------------------------------------------- genus on A1

def affine_line_genus(p, j):
    """rh_genus of y^p - y = f with deg f = j: one Z/p point with jump j."""
    return rh_genus(CoverData(p, 0, (BranchPoint(InertiaShape(p, 1, 1), (j,)),)))


def test_genus_affine_line_values():
    assert affine_line_genus(3, 4) == 3
    assert affine_line_genus(2, 1) == 0
    assert affine_line_genus(5, 3) == 4
    for p, j in [(2, 7), (3, 5), (7, 9)]:
        assert affine_line_genus(p, j) == (p - 1) * (j - 1) // 2


def test_genus_affine_line_rejects_p_dividing_j():
    message = "^invalid branch point: break 6: lower jump 6 divisible by 3$"
    with pytest.raises(ValueError, match=message):
        branch_from_dict({"p": 3, "e": 1, "upper_jumps": ["6"]})
    with pytest.raises(ValueError):
        branch_from_dict({"p": 2, "e": 1, "upper_jumps": ["0"]})


# --------------------------------------------------------------- deformation

def test_deform_examples():
    out = as_deform(L(F2, "x^-1"), 3, F2.one)
    assert out == L(F2, "x^-3 + x^-1")
    assert as_conductor(out) == 3

    out = as_deform(L(F2, "x^-3"), 5, F2.one)
    assert as_conductor(out) == 5


def test_deform_errors():
    with pytest.raises(InvalidJump):
        as_deform(L(F3, "x^-2"), 6, F3.one)
    with pytest.raises(NotLarger):
        as_deform(L(F2, "x^-3"), 3, F2.one)
    with pytest.raises(NotLarger):
        as_deform(L(F2, "x^-5"), 3, F2.one)
    with pytest.raises(ZeroParameter):
        as_deform(L(F2, "x^-1"), 3, F2.zero)


def test_deform_bounds_the_target_like_the_grammar():
    # x^-s must parse back, so s obeys the exponent bound |e| <= 2^64
    out = as_deform(L(F3, "x^-1"), 2**64, F3.one)
    assert as_conductor(out) == 2**64
    assert L(F3, "x^-%d + x^-1" % 2**64) == out
    for s in (2**64 + 1, 2**70 + 1, int("7" * 4000)):
        with pytest.raises(InvalidJump, match=r"^target conductor s must lie in 1\.\.2\^64$"):
            as_deform(L(F2, "x^-3"), s, F2.one)


def test_deform_reads_t0_as_a_field_scalar():
    # an int t0 is taken mod p, as the equal element; anything else is a TypeError
    f = L(F3, "x^-1")
    assert as_deform(f, 5, 2) == as_deform(f, 5, F3.scalar(2)) == as_deform(f, 5, -1)
    with pytest.raises(TypeError):
        as_deform(f, 5, 1.5)
    with pytest.raises(ZeroParameter):
        as_deform(f, 5, 3)


def test_deform_from_split_cover():
    out = as_deform(L(F2, "x^-2 + x^-1"), 3, F2.one)
    assert as_conductor(out) == 3


# -------------------------------------------------------------------- action

def test_action_identity_and_inverse():
    f = L(F3, "x^-4 + x^-1")
    zero = LaurentPoly.zero(F3)
    assert f + zero == f
    inv = f.scale(F3.scalar(2))  # (p-1) * f is the inverse in characteristic 3
    assert as_conductor(f + inv) is UNRAMIFIED


def test_action_ultrametric_dominance():
    assert as_conductor(L(F2, "x^-3") + L(F2, "x^-5")) == 5


def test_action_field_mismatch():
    with pytest.raises(FieldMismatch):
        L(F2, "x^-1") + L(F3, "x^-1")


def test_action_group_law():
    rng = random.Random(13)
    zero = LaurentPoly.zero(F3)
    for _ in range(40):
        f1 = _random_laurent(rng, F3)
        f2 = _random_laurent(rng, F3)
        f3 = _random_laurent(rng, F3)
        lhs = (f1 + f2) + f3
        rhs = f1 + (f2 + f3)
        assert lhs == rhs
        assert f1 + f2 == f2 + f1
        assert f1 + zero == f1


def test_action_ultrametric_exhaustive_grid():
    for a in range(1, 11):
        for b in range(1, 11):
            fa, fb = L(F2, f"x^-{a}"), L(F2, f"x^-{b}")
            ca, cb = as_conductor(fa), as_conductor(fb)
            if ca != cb:
                assert as_conductor(fa + fb) == max(ca, cb)


# ------------------------------------------------------------- connectedness

def test_connectedness_unequal_conductors():
    assert (
        action_connectedness(L(F2, "x^-3"), L(F2, "x^-5"))
        is Connectedness.CONNECTED
    )


def test_connectedness_exact_cancellation():
    # the sum is 0: the acted-on cover is split
    assert (
        action_connectedness(L(F2, "x^-3"), L(F2, "x^-3"))
        is Connectedness.DISCONNECTED
    )


def test_connectedness_leading_term_cancellation():
    # the sum reduces to x^-1, dropping the common conductor 3, and is still ramified
    f_phi = L(F2, "x^-3 + x^-1")
    f_alpha = L(F2, "x^-3")
    assert as_conductor(f_phi + f_alpha) == 1
    assert action_connectedness(f_phi, f_alpha) is Connectedness.CONNECTED


def test_connectedness_sum_in_the_image():
    # the sum x^-2 + x^-1 is h^2 - h for h = x^-1, so the cover is split
    f_phi = L(F2, "x^-3 + x^-2 + x^-1")
    f_alpha = L(F2, "x^-3")
    assert action_connectedness(f_phi, f_alpha) is Connectedness.DISCONNECTED


def test_connectedness_retained_conductor():
    assert (
        action_connectedness(L(F3, "x^-2"), L(F3, "x^-2"))
        is Connectedness.CONNECTED
    )


def test_connectedness_rejects_split_input():
    with pytest.raises(SplitInput):
        action_connectedness(L(F2, "x^2"), L(F2, "x^-3"))


def test_connected_action_takes_max_conductor():
    rng = random.Random(17)
    checked = 0
    for _ in range(200):
        f1 = _random_laurent(rng, F2)
        f2 = _random_laurent(rng, F2)
        c1, c2 = as_conductor(f1), as_conductor(f2)
        if c1 is UNRAMIFIED or c2 is UNRAMIFIED:
            continue
        if c1 != c2:
            assert action_connectedness(f1, f2) is Connectedness.CONNECTED
            assert as_conductor(f1 + f2) == max(c1, c2)
            checked += 1
    assert checked > 30


def _split_by_brute_force(F, g):
    """True iff h^p - h - g has no pole for some h in x^-1 F_p[x^-1], for a
    pole-only g over the oracle field F.  The leading pole of h^p is then
    g's, so the pole order of h is at most that of g over p."""
    if not g:
        return True
    for coeffs in itertools.product(range(F.p), repeat=-min(g) // F.p):
        h = {-i: (c,) for i, c in enumerate(coeffs, 1) if c}
        if not O.l_add(F, O.l_frob_minus_id(F, h), g, -1):
            return True
    return False


@pytest.mark.parametrize("p,depth", [(2, 8), (3, 6)])
def test_connectedness_matches_brute_force(p, depth):
    # every pole-only sum g of order at most depth, split as f_phi + f_alpha
    # with f_alpha drawn from the ramified ones; h -> h^p - h is injective on
    # x^-1 F_p[x^-1], so exactly p^(depth // p) of the sums are split
    F, spec, rng = O.field(p, 1), FieldSpec(p), random.Random(p)
    sums = [{-e: (c,) for e, c in enumerate(cs, 1) if c}
            for cs in itertools.product(range(p), repeat=depth)]
    polys = [LaurentPoly(spec, {e: c for e, (c,) in g.items()}) for g in sums]
    ramified = [f for f in polys if as_conductor(f) is not UNRAMIFIED]
    seen = []
    for g, f in zip(sums, polys):
        f_alpha = rng.choice(ramified)
        f_phi = f - f_alpha
        if as_conductor(f_phi) is UNRAMIFIED:
            continue
        split = _split_by_brute_force(F, g)
        want = Connectedness.DISCONNECTED if split else Connectedness.CONNECTED
        assert action_connectedness(f_phi, f_alpha) is want, (g, f_alpha)
        seen.append(split)
    assert seen.count(True) == p ** (depth // p) and seen.count(False) > 100
