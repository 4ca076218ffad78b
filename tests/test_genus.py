"""Ramification divisors, Riemann-Hurwitz, increments, spectra, Kato's mu."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ramforge.errors import (
    InconsistentInput,
    InvalidJump,
    InvariantViolation,
    NotLarger,
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
    ram_divisor_degree,
    rh_genus,
    spectrum_density,
)
from ramforge.ramfilt import (
    Filtration,
    InertiaShape,
    action_transform,
    conductor_congruence,
    random_filtration,
    upper_to_lower,
)
from ramforge.aschreier import as_genus_affine_line


def different_degree_oracle(shape, lower_jumps):
    """Conductor-discriminant style oracle: sum of (|I_i| - 1) over the
    lower-numbering filtration, groups constant between lower jumps."""
    total = shape.order - 1  # i = 0
    dropped = 0
    prev = 0
    for j, mult in lower_jumps:
        # group order p^(e - dropped) holds for prev < i <= j
        total += (j - prev) * (shape.p ** (shape.e - dropped) - 1)
        dropped += mult
        prev = j
    return total


# -------------------------------------------------------------- ram divisors

def test_ram_divisor_degree_z2():
    bp = BranchPoint(InertiaShape(2, 1, 1), (1,))
    assert ram_divisor_degree(bp) == 2


def test_ram_divisor_degree_tame():
    for m in (1, 3, 5):
        bp = BranchPoint(InertiaShape(2, 0, m), ())
        assert ram_divisor_degree(bp) == m - 1


def test_ram_divisor_degree_z4_with_oracle():
    bp = BranchPoint(InertiaShape(2, 2, 1), (1, 2))
    assert ram_divisor_degree(bp) == 8
    # Artin conductors of the characters of Z/4 with jumps (1, 2): 2, 3, 3
    assert different_degree_oracle(InertiaShape(2, 2, 1), [(1, 1), (3, 1)]) == 8


def upper_sum_degree(bp):
    """The jump sum |I| - 1 + (p-1) * m * (sigma_1 + p*sigma_2 + ... +
    p^(e-1)*sigma_e) over the upper jumps listed with multiplicity."""
    p = bp.shape.p
    acc = sum((p**i * sigma for i, sigma in enumerate(bp.upper_jumps)), Fraction(0))
    return bp.shape.order - 1 + (p - 1) * bp.shape.m * acc


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_ram_divisor_degree_matches_the_jump_sum(rng):
    filt = random_filtration(rng, e_max=6, m_max=12)
    jumps = tuple(sigma for sigma, mult in filt.breaks for _ in range(mult))
    bp = BranchPoint(filt.shape, jumps)
    assert ram_divisor_degree(bp) == upper_sum_degree(bp)
    tame = BranchPoint(InertiaShape(filt.shape.p, 0, filt.shape.m), ())
    assert ram_divisor_degree(tame) == upper_sum_degree(tame) == filt.shape.m - 1


def test_ram_divisor_degree_matches_oracle_randomly():
    rng = random.Random(211)
    for _ in range(100):
        filt = random_filtration(rng)
        jumps = []
        for sigma, mult in filt.breaks:
            jumps.extend([sigma] * mult)
        bp = BranchPoint(filt.shape, tuple(jumps))
        assert ram_divisor_degree(bp) == different_degree_oracle(
            filt.shape, upper_to_lower(filt)
        )


def test_ram_divisor_rejects_invalid_jumps():
    bp = BranchPoint(InertiaShape(2, 1, 1), (2,))
    with pytest.raises(InvariantViolation):
        ram_divisor_degree(bp)


def test_ram_divisor_degree_reports_a_wrong_jump_count():
    # a BranchPoint is built like any Filtration; validate reports the count
    bp = BranchPoint(InertiaShape(2, 2, 1), (1,))
    with pytest.raises(InvariantViolation, match="break multiplicities sum to 1, expected e = 2"):
        ram_divisor_degree(bp)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_branch_point_is_the_filtration_of_its_upper_jumps(rng):
    filt = random_filtration(rng, e_max=6, m_max=12)
    jumps = tuple(sigma for sigma, mult in filt.breaks for _ in range(mult))
    bp = BranchPoint(filt.shape, jumps)
    assert isinstance(bp, Filtration)
    assert bp == filt and hash(bp) == hash(filt)
    assert bp.upper_jumps == jumps
    assert BranchPoint(filt.shape, [str(s) for s in jumps]) == filt


def test_genus_builds_no_filtration(monkeypatch):
    # the knot table is built once, by the BranchPoint constructor
    bps = [BranchPoint(InertiaShape(2, 2, 1), (1, 2)), BranchPoint(InertiaShape(2, 0, 1), ())]
    cover = CoverData(4, 0, bps)
    builds = [0]
    init = Filtration.__init__

    def counting_init(self, *args):
        builds[0] += 1
        init(self, *args)

    monkeypatch.setattr(Filtration, "__init__", counting_init)
    assert [ram_divisor_degree(bp) for bp in bps] == [8, 0]
    assert rh_genus(cover) == 1
    assert builds[0] == 0


# ------------------------------------------------------------------ rh genus

def test_rh_genus_closed_form_pipeline():
    for p in (2, 3, 5):
        for j in range(1, 26):
            if j % p == 0:
                continue
            bp = BranchPoint(InertiaShape(p, 1, 1), (j,))
            assert rh_genus(CoverData(p, 0, (bp,))) == as_genus_affine_line(p, j)


def test_rh_genus_identity_cover():
    assert rh_genus(CoverData(1, 0, ())) == 0
    assert rh_genus(CoverData(1, 7, ())) == 7


def test_rh_genus_z4():
    bp = BranchPoint(InertiaShape(2, 2, 1), (1, 2))
    assert rh_genus(CoverData(4, 0, (bp,))) == 1


def test_rh_genus_rejects_impossible_cover():
    # |G| = 4 with a single Z/2 point on the line would have genus -1
    bp = BranchPoint(InertiaShape(2, 1, 1), (1,))
    with pytest.raises(InvariantViolation):
        rh_genus(CoverData(4, 0, (bp,)))


def test_cover_data_requires_inertia_dividing_group():
    bp = BranchPoint(InertiaShape(2, 2, 1), (1, 2))
    with pytest.raises(ValueError):
        CoverData(6, 0, (bp,))


def test_rh_genus_parity_identity():
    rng = random.Random(223)
    for _ in range(50):
        filt = random_filtration(rng, e_max=3)
        jumps = []
        for sigma, mult in filt.breaks:
            jumps.extend([sigma] * mult)
        bp = BranchPoint(filt.shape, tuple(jumps))
        G = filt.shape.order * rng.choice([2, 4])
        gx = rng.randint(1, 3)
        g = rh_genus(CoverData(G, gx, (bp,)))
        deg = ram_divisor_degree(bp)
        assert 2 * g - 2 == G * (2 * gx - 2) + G * deg // filt.shape.order


# ---------------------------------------------------------------- increments

def test_genus_increment_matches_affine_line():
    assert genus_increment(2, 2, 1, 1, 1, 3) == as_genus_affine_line(2, 3) - as_genus_affine_line(2, 1)


def test_genus_increment_direct_substitution():
    assert genus_increment(8, 2, 1, 1, 2, 5) == 6


def test_genus_increment_errors():
    with pytest.raises(NotLarger):
        genus_increment(2, 2, 1, 1, 3, 3)
    with pytest.raises(InvalidJump):
        genus_increment(2, 2, 1, 1, 1, 4)
    with pytest.raises(ValueError):
        genus_increment(2, 2, 0, 1, 1, 3)


@pytest.mark.parametrize("increment", [
    lambda s: genus_increment(2, 2, 1, 1, 3, s),
    lambda s: last_lower_jump_increment(2, 5, 1, 1, 1, 3, s),
], ids=["genus", "last-lower-jump"])
def test_deformation_target_preconditions(increment):
    with pytest.raises(InvalidJump, match="^conductor 4 must be positive and prime to 2$"):
        increment(4)
    with pytest.raises(InvalidJump, match="^conductor -1 must be positive and prime to 2$"):
        increment(-1)
    with pytest.raises(NotLarger, match="^conductor 3 does not exceed m\\*sigma = 3$"):
        increment(3)


def test_last_lower_jump_increment_examples():
    assert last_lower_jump_increment(2, 3, 2, 1, 1, 2, 5) == 9
    # e = a collapses to j_e + (s - m*sigma); a full-multiplicity break has j_e = m*sigma
    assert last_lower_jump_increment(2, 3, 2, 2, 1, 3, 5) == 3 + (5 - 3)
    assert last_lower_jump_increment(3, 7, 2, 1, 1, 3, 5) == 13


def test_last_lower_jump_increment_rejects_inconsistent_data():
    # j_e = 3 with sigma = 2 cannot come from a single-break filtration
    with pytest.raises(InvariantViolation):
        last_lower_jump_increment(2, 3, 2, 2, 1, 2, 5)


def test_last_lower_jump_increment_prime_to_p():
    rng = random.Random(227)
    for _ in range(100):
        filt = random_filtration(rng)
        shape = filt.shape
        p, e, m = shape.p, shape.e, shape.m
        a = rng.randint(1, filt.breaks[-1][1])
        sigma = filt.breaks[-1][0]
        j_e = upper_to_lower(filt)[-1][0]
        s = conductor_congruence(p, j_e, e - a, m)
        while s <= m * sigma or s % p == 0:
            s += m
        j_new = last_lower_jump_increment(p, j_e, e, a, m, sigma, s)
        assert j_new % p != 0
        # the transformed filtration carries exactly this last lower jump
        out = action_transform(filt, a, s)
        assert upper_to_lower(out)[-1][0] == j_new


def test_increment_consistency_with_rh_genus():
    rng = random.Random(229)
    for _ in range(60):
        filt = random_filtration(rng, e_max=3)
        shape = filt.shape
        p, e, m = shape.p, shape.e, shape.m
        a = rng.randint(1, filt.breaks[-1][1])
        sigma = filt.breaks[-1][0]
        j_e = upper_to_lower(filt)[-1][0]
        s = conductor_congruence(p, j_e, e - a, m)
        while s <= m * sigma or s % p == 0:
            s += m
        G = shape.order * rng.choice([2, 4])
        gx = rng.randint(1, 2)

        def cover(f):
            jumps = []
            for c, mult in f.breaks:
                jumps.extend([c] * mult)
            return CoverData(G, gx, (BranchPoint(shape, tuple(jumps)),))

        before = rh_genus(cover(filt))
        after = rh_genus(cover(action_transform(filt, a, s)))
        assert after - before == genus_increment(G, p, a, m, sigma, s)


# ------------------------------------------------------------------- spectra

def test_spectrum_z3():
    result = genus_spectrum(3, 3, 1, 1, Fraction(1), 0, 1, 20)
    assert result.genera == (0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16, 18, 19)
    assert result.increment == 3
    assert result.residues == (0, 1)
    assert contains_progressions(result, 3)


def test_spectrum_matches_conductor_enumeration():
    # oracle: enumerate conductors prime to p directly
    for p in (2, 3, 5):
        predicted = set()
        j = 0
        while True:
            j += 1
            if j % p == 0:
                continue
            g = (p - 1) * (j - 1) // 2
            if g > 60:
                break
            predicted.add(g)
        result = genus_spectrum(p, p, 1, 1, Fraction(1), 0, 1, 60)
        assert set(result.genera) == predicted


def test_spectrum_empty_below_first_genus():
    # base genus 5, first deformed genus above the limit
    result = genus_spectrum(2, 2, 1, 1, Fraction(11), 5, 1, 4)
    assert result.genera == ()


def test_spectrum_base_genus_outside_progressions():
    # cyclic 4 with jumps (1, 2): deformed genera are even, base genus is 1
    result = genus_spectrum(4, 2, 1, 1, Fraction(2), 1, 1, 12)
    assert result.genera == (1, 2, 4, 6, 8, 10, 12)
    assert result.deformed == (2, 4, 6, 8, 10, 12)
    assert result.increment == 2
    assert result.residues == (0,)
    assert contains_progressions(result, 2)


def test_spectrum_progression_structure():
    for p, G, a in [(2, 4, 1), (3, 9, 2), (5, 5, 1)]:
        result = genus_spectrum(G, p, a, 1, Fraction(1), 0, 1, 300)
        assert len(result.residues) == p - 1
        assert contains_progressions(result, p)
        inc = Fraction(p * G, 2) * (1 - Fraction(1, p**a))
        assert result.increment == inc


def test_spectrum_density_values():
    assert spectrum_density(2, 2, 1) == 1
    assert spectrum_density(5, 5, 1) == Fraction(2, 5)
    assert spectrum_density(7, 7, 1) == Fraction(2, 7)
    assert spectrum_density(4, 2, 2) == Fraction(1, 3)


# ------------------------------------------------------------------- kato mu

def test_kato_smooth_case():
    assert kato_mu(KatoInput(4, 8, 8, 1)) == (0, True)


def test_kato_singular_case():
    assert kato_mu(KatoInput(4, 10, 8, 1)) == (2, False)


def test_kato_mu_zero_but_singular():
    # mu = 1 - 3 + 2 = 0 arithmetically, yet d_K != d_k means singular
    mu, smooth = kato_mu(KatoInput(8, 10, 8, 3))
    assert mu == 0
    assert smooth is False


def test_kato_rejects_negative_mu():
    with pytest.raises(InconsistentInput):
        kato_mu(KatoInput(4, 8, 8, 2))
    with pytest.raises(InconsistentInput):
        KatoInput(4, 5, 8, 1)  # d_K < d_k
    with pytest.raises(InconsistentInput):
        KatoInput(0, 8, 8, 1)


def test_kato_deformation_always_singular():
    # a conductor jump from sigma to s adds (s - sigma) * (p^a - 1) to d_K
    for p, a, sigma, s in [(2, 1, 1, 3), (2, 1, 3, 7), (3, 1, 2, 4), (3, 2, 1, 2)]:
        extra = (s - sigma) * (p**a - 1)
        mu, smooth = kato_mu(KatoInput(p**a, 10 + extra, 10, 1))
        assert mu == extra > 0
        assert smooth is False


def test_kato_monotone_in_generic_degree():
    mus = [kato_mu(KatoInput(4, d, 6, 2))[0] for d in range(7, 15)]
    assert mus == sorted(mus)


def test_kato_delta_invariant():
    k = KatoInput(4, 12, 8, 3)
    assert k.delta == Fraction(2)
    assert 2 * k.delta - k.m_w + 1 == kato_mu(k)[0]
