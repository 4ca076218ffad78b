"""Acceptance suite: one check per criterion, exact tolerances throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Every comparison is exact integer or rational arithmetic;
there are no tolerances to tune.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

from ramforge.algebra import FieldSpec, LaurentPoly, artin_schreier
from ramforge.aschreier import UNRAMIFIED, as_reduce
from ramforge.asext import (
    ExtElement,
    ExtFieldSpec,
    ext_as_reduce,
    minimal_tower_element,
    tower_jumps,
)
from ramforge.genus import (
    BranchPoint,
    CoverData,
    KatoInput,
    contains_progressions,
    genus_increment,
    genus_spectrum,
    kato_mu,
    last_lower_jump_increment,
    rh_genus,
)
from ramforge.grids import brute_force_admissible, predicted_line_genera
from ramforge.ramfilt import (
    InertiaShape,
    action_transform,
    admissible_enumerate,
    lower_to_upper,
    phi,
    psi,
    random_filtration,
    upper_to_lower,
    validate,
)

# the benchmark's reference arithmetic, written without ramforge
from perfbench import oracle as O


class _Tally:
    cases = 0


@contextmanager
def criterion(num, label):
    tally = _Tally()
    try:
        yield tally
    except BaseException:
        print(f"[criterion {num}] {label}: FAIL")
        raise
    print(f"[criterion {num}] {label}: PASS ({tally.cases} checks)")


def _random_laurent(rng, spec, lo=-12, hi=3, maxterms=5):
    terms = {}
    for _ in range(rng.randint(0, maxterms)):
        terms[rng.randint(lo, hi)] = spec.scalar(rng.randrange(1, spec.p))
    return LaurentPoly(spec, terms)


def test_criterion_1_genus_closed_form():
    with criterion(1, "genus closed form (p-1)(j-1)/2") as tally:
        for p in (2, 3, 5):
            for j in range(1, 26):
                if j % p == 0:
                    continue
                bp = BranchPoint(InertiaShape(p, 1, 1), (Fraction(j),))
                assert rh_genus(CoverData(p, 0, (bp,))) == (p - 1) * (j - 1) // 2
                tally.cases += 1


def test_criterion_2_econd_law():
    with criterion(
        2, "tower jump law J = max(ps - j(p-1), j2), conductor max(s, pj)"
    ) as tally:
        for p in (2, 3):
            field = FieldSpec(p)
            for j in range(1, 8):
                if j % p == 0:
                    continue
                ext = ExtFieldSpec(field, j)
                f_min = minimal_tower_element(ext)
                assert f_min.valuation == -(p * p - p + 1) * j
                for s in range(j + 1, 41):
                    if s % p == 0:
                        continue
                    F = f_min + ExtElement.x_pow(ext, -s)
                    J = ext_as_reduce(F).jump
                    assert J == max(p * s - j * (p - 1), (p * p - p + 1) * j)
                    sigma1, sigma2 = tower_jumps(F)
                    assert sigma1 == j
                    assert sigma2 == max(s, p * j)
                    tally.cases += 1


def test_criterion_3_herbrand_roundtrips():
    rng = random.Random(20260810)
    with criterion(3, "Herbrand roundtrips on 1000 random filtrations") as tally:
        for _ in range(1000):
            filt = random_filtration(rng, e_max=4, m_max=6)
            assert validate(filt) == []
            for _ in range(10):
                c = Fraction(rng.randint(0, 60), rng.randint(1, 16))
                assert phi(filt, psi(filt, c)) == c
                assert psi(filt, phi(filt, c)) == c
            lower = upper_to_lower(filt)
            assert lower_to_upper(filt.shape, lower) == filt
            for j, _mult in lower:
                assert isinstance(j, int) and j % filt.shape.p != 0
            tally.cases += 1


def test_criterion_4_wp_invariance_and_group_law():
    rng = random.Random(4)
    with criterion(4, "Artin-Schreier coset invariance and action group law") as tally:
        for _ in range(200):
            spec = FieldSpec(rng.choice([2, 3, 5]))
            f = _random_laurent(rng, spec)
            h = _random_laurent(rng, spec, lo=-6, hi=2)
            assert as_reduce(f + artin_schreier(h)).conductor == as_reduce(f).conductor
            tally.cases += 1
        for _ in range(200):
            spec = FieldSpec(rng.choice([2, 3]))
            f1, f2, f3 = (_random_laurent(rng, spec) for _ in range(3))
            assert (f1 + f2) + f3 == f1 + (f2 + f3)
            assert f1 + f2 == f2 + f1
            assert f1 + LaurentPoly.zero(spec) == f1
            c1, c2 = as_reduce(f1).conductor, as_reduce(f2).conductor
            if c1 is not UNRAMIFIED and c2 is not UNRAMIFIED and c1 != c2:
                assert as_reduce(f1 + f2).conductor == max(c1, c2)
            tally.cases += 1


def test_criterion_5_admissibility_oracle_and_realization():
    with criterion(5, "admissible sequences: oracle equality and realization") as tally:
        grids = [(2, e, 16) for e in (1, 2, 3)] + [(3, e, 27) for e in (1, 2)]
        for p, e, bound in grids:
            fast = admissible_enumerate(p, e, bound)
            assert fast == brute_force_admissible(p, e, bound)
            tally.cases += len(fast)
        # realization: e = 1 by a one-term cover, e = 2 by a tower witness
        for p, bound in ((2, 16), (3, 27)):
            field = FieldSpec(p)
            for (sigma1,) in admissible_enumerate(p, 1, bound):
                f = LaurentPoly.x_pow(field, -sigma1)
                assert as_reduce(f).conductor == sigma1
                tally.cases += 1
            for sigma1, sigma2 in admissible_enumerate(p, 2, bound):
                ext = ExtFieldSpec(field, sigma1)
                F = minimal_tower_element(ext)
                if sigma2 > p * sigma1:
                    F = F + ExtElement.x_pow(ext, -sigma2)
                assert tower_jumps(F) == (sigma1, sigma2)
                tally.cases += 1


def test_criterion_6_spectrum_and_density():
    with criterion(6, "achieved genus set, density exactly 2/p, progressions") as tally:
        for p in (2, 3, 5):
            result = genus_spectrum(p, p, 1, 1, Fraction(1), 0, 1, 100)
            achieved = set(result.genera)
            assert achieved == predicted_line_genera(p, 100)
            # density is exactly 2/p on a range aligned to the progression period
            inc = result.increment
            assert inc == Fraction(p * p, 2) * (1 - Fraction(1, p))
            aligned = (100 // inc) * inc
            count = sum(1 for g in achieved if g < aligned)
            assert Fraction(count, aligned) == Fraction(2, p)
            # p - 1 gapless arithmetic progressions with the stated increment
            assert len(result.residues) == p - 1
            assert contains_progressions(result, p)
            tally.cases += len(achieved)


def test_criterion_7_cross_module_increments():
    rng = random.Random(7)
    with criterion(7, "genus and last-jump increments across modules") as tally:
        while tally.cases < 100:
            filt = random_filtration(rng, e_max=3)
            shape = filt.shape
            p, e, m = shape.p, shape.e, shape.m
            a = rng.randint(1, filt.breaks[-1][1])
            sigma = filt.breaks[-1][0]
            j_e = upper_to_lower(filt)[-1][0]
            s = O.congruence_class(p, j_e, e - a, m)
            while s <= m * sigma or s % p == 0:
                s += m
            s += m * rng.randint(0, 3)
            while s % p == 0:
                s += m
            G = shape.order * rng.choice([2, 4])
            gx = rng.randint(1, 3)

            def cover(f):
                jumps = []
                for c, mult in f.breaks:
                    jumps.extend([c] * mult)
                return CoverData(G, gx, (BranchPoint(shape, tuple(jumps)),))

            transformed = action_transform(filt, a, s)
            delta = rh_genus(cover(transformed)) - rh_genus(cover(filt))
            assert delta == genus_increment(G, p, a, m, sigma, s)
            assert upper_to_lower(transformed)[-1][0] == last_lower_jump_increment(
                p, j_e, e, a, m, sigma, s
            )
            tally.cases += 1
        # overlap with the tower engine: p = 2, e = 2, m = 1
        field = FieldSpec(2)
        for j in (1, 3, 5, 7):
            ext = ExtFieldSpec(field, j)
            f_min = minimal_tower_element(ext)
            for s in range(2 * j + 1, 31, 2):
                F = f_min + ExtElement.x_pow(ext, -s)
                engine_jump = ext_as_reduce(F).jump
                assert engine_jump == last_lower_jump_increment(
                    2, 3 * j, 2, 1, 1, Fraction(2 * j), s
                )
                tally.cases += 1


def test_criterion_8_kato_criterion():
    with criterion(8, "Kato smoothness criterion") as tally:
        rejected = 0
        for n in range(1, 9):
            for d_k in range(0, 41):
                for d_K in range(d_k, 41):
                    for m_w in range(1, n + 1):
                        mu_formula = 1 - m_w + d_K - d_k
                        if mu_formula < 0:
                            try:
                                kato_mu(KatoInput(n, d_K, d_k, m_w))
                            except Exception:
                                rejected += 1
                                continue
                            raise AssertionError("negative mu was not rejected")
                        mu, smooth = kato_mu(KatoInput(n, d_K, d_k, m_w))
                        assert mu == mu_formula
                        assert smooth == (d_K == d_k and m_w == 1)
                        tally.cases += 1
        assert rejected > 0
