"""Herbrand functions, filtration validation, transforms, admissibility."""

import dataclasses
import random
from fractions import Fraction

import pytest

from ramforge.errors import (
    CongruenceViolation,
    InvalidJump,
    InvalidSubgroup,
    InvariantViolation,
    LengthMismatch,
    NotAdmissible,
    NotComparable,
)
from ramforge.ramfilt import (
    Filtration,
    InertiaShape,
    LevelStep,
    action_transform,
    admissible_check,
    admissible_enumerate,
    conductor_congruence,
    filtration_from_dict,
    filtration_to_dict,
    lower_to_upper,
    phi,
    psi,
    random_filtration,
    seq_less,
    tower_plan,
    upper_to_lower,
    validate,
)

Z4 = Filtration(InertiaShape(2, 2, 1), [(1, 1), (2, 1)])


# ------------------------------------------------------------------- psi/phi

def test_psi_examples():
    assert psi(Z4, 2) == 3
    assert psi(Z4, 0) == 0
    tame3 = Filtration(InertiaShape(2, 1, 3), [(Fraction(1, 3), 1)])
    assert psi(tame3, Fraction(1, 3)) == 1


def test_phi_examples():
    assert phi(Z4, 3) == 2
    assert phi(Z4, 0) == 0
    assert phi(Z4, 1) == 1


def test_psi_beyond_last_break_has_full_slope():
    # above the conductor the slope is |I|
    assert psi(Z4, 3) - psi(Z4, 2) == 4


def test_psi_rejects_negative():
    with pytest.raises(ValueError):
        psi(Z4, -1)


def test_roundtrip_random():
    rng = random.Random(101)
    for _ in range(200):
        filt = random_filtration(rng)
        for _ in range(5):
            c = Fraction(rng.randint(0, 40), rng.randint(1, 12))
            assert phi(filt, psi(filt, c)) == c
            assert psi(filt, phi(filt, c)) == c


def test_psi_convex_phi_concave():
    rng = random.Random(103)
    for _ in range(50):
        filt = random_filtration(rng)
        a = Fraction(rng.randint(0, 30), rng.randint(1, 6))
        b = Fraction(rng.randint(0, 30), rng.randint(1, 6))
        mid = (a + b) / 2
        assert 2 * psi(filt, mid) <= psi(filt, a) + psi(filt, b)
        assert 2 * phi(filt, mid) >= phi(filt, a) + phi(filt, b)


# ----------------------------------------------------------- jump conversion

def test_upper_to_lower_examples():
    assert upper_to_lower(Z4) == [(1, 1), (3, 1)]
    f9 = Filtration(InertiaShape(3, 2, 1), [(1, 1), (3, 1)])
    assert upper_to_lower(f9) == [(1, 1), (7, 1)]
    tame3 = Filtration(InertiaShape(2, 1, 3), [(Fraction(1, 3), 1)])
    assert upper_to_lower(tame3) == [(1, 1)]


def test_lower_to_upper_inverts():
    rng = random.Random(107)
    for _ in range(200):
        filt = random_filtration(rng)
        assert lower_to_upper(filt.shape, upper_to_lower(filt)) == filt


def test_upper_to_lower_rejects_bad_jumps():
    bad = Filtration(InertiaShape(2, 1, 1), [(2, 1)])  # lower jump 2, even
    with pytest.raises(InvariantViolation):
        upper_to_lower(bad)


# ---------------------------------------------------------------- validation

def test_validate_ok():
    assert validate(Z4) == []
    half = Filtration(InertiaShape(3, 1, 2), [(Fraction(1, 2), 1)])
    assert validate(half) == []  # j_1 = 1, sigma*|I|/|I^sigma| = 1


def test_validate_reports_divisible_jump():
    bad = Filtration(InertiaShape(2, 1, 1), [(2, 1)])
    problems = validate(bad)
    assert len(problems) == 1
    assert "divisible" in problems[0]


def test_validate_reports_multiplicity_mismatch():
    bad = Filtration(InertiaShape(2, 2, 1), [(1, 1)])
    assert any("multiplicities" in v for v in validate(bad))


def test_validate_reports_nonintegral_ratio():
    bad = Filtration(InertiaShape(3, 1, 2), [(Fraction(1, 5), 1)])
    assert validate(bad)


def test_filtration_constructor_rejects_garbage():
    with pytest.raises(ValueError):
        Filtration(InertiaShape(2, 2, 1), [(2, 1), (1, 1)])  # not increasing
    with pytest.raises(ValueError):
        Filtration(InertiaShape(2, 2, 1), [(1, 0)])  # zero multiplicity
    with pytest.raises(ValueError):
        InertiaShape(2, 1, 2)  # m not prime to p


@pytest.mark.parametrize("mult", [1.7, True, Fraction(1), "1"])
def test_filtration_rejects_a_multiplicity_that_is_not_an_int(mult):
    # 1.7 used to be truncated to 1 and the result called valid
    with pytest.raises(TypeError, match="^break 1: multiplicity must be an int"):
        Filtration(InertiaShape(2, 1, 1), [(Fraction(3), mult)])
    with pytest.raises(TypeError, match="^break 2: "):
        Filtration(InertiaShape(2, 2, 1), [(Fraction(1), 1), (Fraction(3), mult)])


def test_filtration_constructor_bounds_the_denominator_lcm():
    # D divides m*p^(sum of mults) <= m*2^64 in a valid filtration; the odd
    # primes 3..59 multiply past 2^64 at the 16th, which the error names
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    breaks = [(k + Fraction(1, d), 1) for k, d in enumerate(primes, 1)]
    Filtration(InertiaShape(2, 16, 1), breaks[:15])
    with pytest.raises(ValueError, match="^break 16: the lcm of the break denominators"):
        Filtration(InertiaShape(2, 16, 1), breaks)


# ----------------------------------------------------------------- transform

def test_transform_appends_new_break():
    out = action_transform(Z4, 1, 5)
    assert out.breaks == ((Fraction(1), 1), (Fraction(5), 1))
    assert validate(out) == []


def test_transform_unchanged_when_small():
    assert action_transform(Z4, 1, 1) == Z4
    assert action_transform(Z4, 1, 3).breaks[-1] == (Fraction(3), 1)


def test_transform_tame_part():
    # conductor max(7/2, 3/2) = 7/2; the new lower jump is 7
    filt = Filtration(InertiaShape(5, 1, 2), [(Fraction(3, 2), 1)])
    out = action_transform(filt, 1, 7)
    assert out.breaks == ((Fraction(7, 2), 1),)
    assert upper_to_lower(out) == [(7, 1)]


def test_transform_keeps_partial_multiplicity():
    filt = Filtration(InertiaShape(2, 2, 1), [(1, 2)])
    out = action_transform(filt, 1, 3)
    assert out.breaks == ((Fraction(1), 1), (Fraction(3), 1))
    assert validate(out) == []


def test_transform_errors():
    with pytest.raises(InvalidJump):
        action_transform(Z4, 1, 4)
    with pytest.raises(InvalidSubgroup):
        action_transform(Z4, 2, 5)  # top multiplicity is 1
    filt = Filtration(InertiaShape(3, 2, 2), [(Fraction(1, 2), 1), (Fraction(3, 2), 1)])
    # j_e = 7 forces s odd; 4 is in the wrong class mod m = 2
    with pytest.raises(CongruenceViolation):
        action_transform(filt, 1, 4)


def test_transform_boundary_on_the_integer_knots():
    # m = 2 and a fractional top break 5/2: s = 5 lands on it, s = 7 is one step of m above
    filt = lower_to_upper(InertiaShape(3, 2, 2), [(5, 2)])
    assert filt.breaks == ((Fraction(5, 2), 2),)
    assert action_transform(filt, 1, 5) is filt and action_transform(filt, 1, 1) is filt
    out = action_transform(filt, 1, 7)
    assert out.breaks == ((Fraction(5, 2), 1), (Fraction(7, 2), 1))
    assert type(out.breaks[-1][0]) is Fraction and validate(out) == []
    with pytest.raises(CongruenceViolation, match="^conductor 4 is not congruent to 1 mod 2$"):
        action_transform(filt, 1, 4)
    with pytest.raises(InvalidJump,
                       match="^conductor candidate 9 must be positive and prime to 3$"):
        action_transform(filt, 1, 9)


def test_transform_keeps_the_filtration_exactly_when_s_over_m_is_not_above_the_top():
    rng = random.Random(113)
    for _ in range(200):
        filt = random_filtration(rng, e_max=4, m_max=12)
        (top, mult), m = filt.breaks[-1], filt.shape.m
        a = rng.randint(1, mult)
        s_iota = conductor_congruence(filt.shape.p, upper_to_lower(filt)[-1][0],
                                      filt.shape.e - a, m)
        for s in range(s_iota + m * (int(m * top) // m - 2), int(m * top) + 3 * m, m):
            if s < 1 or s % filt.shape.p == 0:
                continue
            out = action_transform(filt, a, s)
            assert (out is filt) == (Fraction(s, m) <= top)
            if out is not filt:
                assert out.breaks[-1] == (Fraction(s, m), a)


def test_inertia_shape_order_is_no_field():
    shape = InertiaShape(3, 2, 2)
    assert shape.order == 18
    assert [f.name for f in dataclasses.fields(InertiaShape)] == ["p", "e", "m"]
    assert dataclasses.astuple(shape) == (3, 2, 2)
    assert shape == InertiaShape(3, 2, 2) and shape != InertiaShape(3, 1, 2)
    assert hash(shape) == hash((3, 2, 2))
    assert repr(shape) == "InertiaShape(p=3, e=2, m=2)"
    assert dataclasses.replace(shape, e=0).order == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        shape.order = 1


def test_transform_congruence_derived_internally():
    # p=3, m=2, lower jumps (1, 7): s must be odd
    filt = lower_to_upper(InertiaShape(3, 2, 2), [(1, 1), (7, 1)])
    out = action_transform(filt, 1, 5)
    assert upper_to_lower(out) == [(1, 1), (13, 1)]


def test_transform_composition():
    rng = random.Random(109)
    done = 0
    while done < 40:
        filt = random_filtration(rng, m_max=1)
        p = filt.shape.p
        top_mult = filt.breaks[-1][1]
        a = rng.randint(1, top_mult)
        sigma = filt.breaks[-1][0]
        s1 = int(sigma) + rng.randint(1, 8)
        while s1 % p == 0 or Fraction(s1, 1) <= sigma:
            s1 += 1
        s2 = s1 + rng.randint(1, 8)
        while s2 % p == 0:
            s2 += 1
        once = action_transform(filt, a, s2)
        twice = action_transform(action_transform(filt, a, s1), a, s2)
        assert once == twice
        done += 1


def test_transform_composition_with_tame_part():
    filt = lower_to_upper(InertiaShape(3, 2, 2), [(1, 1), (7, 1)])
    direct = action_transform(filt, 1, 11)
    via = action_transform(action_transform(filt, 1, 5), 1, 11)
    assert direct == via


# ---------------------------------------------------------------- congruence

def test_conductor_congruence_examples():
    assert conductor_congruence(2, 9, 0, 1) == 1
    assert conductor_congruence(3, 7, 0, 2) == 1
    assert conductor_congruence(2, 5, 1, 3) == 1


def test_conductor_congruence_normalized_to_m():
    # residue 0 is reported as m
    assert conductor_congruence(3, 4, 0, 2) == 2
    assert conductor_congruence(2, 3, 0, 3) == 3


def test_conductor_congruence_rejects_common_factor():
    with pytest.raises(ValueError):
        conductor_congruence(2, 5, 1, 4)


# -------------------------------------------------------------- admissibility

def test_admissible_check_examples():
    assert admissible_check([1, 2, 4], 2)
    assert admissible_check([1, 3], 2)
    assert not admissible_check([1, 4], 2)
    assert not admissible_check([2, 4], 2)
    assert admissible_check([1, 3, 9, 27], 3)


def test_admissible_check_strictly():
    # 10 > 3*3 and 3 does not divide 10, so (1, 3, 10) is admissible
    assert admissible_check([1, 3, 10], 3)
    # 12 is divisible by 3 and not equal to 3*3
    assert not admissible_check([1, 3, 12], 3)
    # entries must be positive integers
    assert not admissible_check([0, 1], 2)


def test_admissible_enumerate_examples():
    assert admissible_enumerate(2, 2, 4) == [(1, 2), (1, 3)]
    assert admissible_enumerate(2, 1, 5) == [(1,), (3,), (5,)]
    assert admissible_enumerate(3, 2, 3) == [(1, 3)]


def test_admissible_enumerate_matches_brute_force():
    import itertools

    for p, e, bound in [(2, 2, 10), (2, 3, 12), (3, 2, 15), (5, 2, 25)]:
        brute = sorted(
            seq
            for seq in itertools.product(range(1, bound + 1), repeat=e)
            if admissible_check(list(seq), p)
        )
        assert admissible_enumerate(p, e, bound) == brute


def test_admissible_enumerate_ordered_and_bound():
    seqs = admissible_enumerate(2, 3, 16)
    assert seqs == sorted(seqs)
    assert all(s[-1] <= 16 for s in seqs)
    with pytest.raises(ValueError):
        admissible_enumerate(2, 3, 3)  # bound below p^(e-1)


def test_minimal_sequence_is_least():
    for p, e in [(2, 3), (3, 2)]:
        minimal = tuple(p**i for i in range(e))
        seqs = admissible_enumerate(p, e, p ** (e - 1) * 3)
        assert seqs[0] == minimal
        for other in seqs[1:]:
            assert all(x <= y for x, y in zip(minimal, other))


# ------------------------------------------------------------- partial order

def test_seq_less_examples():
    assert seq_less((1, 2), (3, 7))
    assert not seq_less((1, 2), (1, 3))
    assert not seq_less((1, 2), (1, 2))


def test_seq_less_properties():
    rng = random.Random(113)
    seqs = [tuple(rng.randint(1, 30) for _ in range(3)) for _ in range(30)]
    for s in seqs:
        assert not seq_less(s, s)
    for s1 in seqs:
        for s2 in seqs:
            for s3 in seqs:
                if seq_less(s1, s2) and seq_less(s2, s3):
                    assert seq_less(s1, s3)


def test_seq_less_length_mismatch():
    with pytest.raises(LengthMismatch):
        seq_less((1,), (1, 2))


# --------------------------------------------------------------- tower plans

def test_tower_plan_example():
    steps = tower_plan((1, 2), (3, 7), 2)
    assert steps == [LevelStep(1, 1, 3), LevelStep(2, 6, 7)]
    assert steps[0].deforms and steps[1].deforms


def test_tower_plan_no_deformation_at_exact_multiple():
    steps = tower_plan((1, 2), (3, 6), 2)
    assert steps == [LevelStep(1, 1, 3), LevelStep(2, 6, 6)]
    assert not steps[1].deforms


def test_tower_plan_base_case():
    assert tower_plan((1,), (5,), 2) == [LevelStep(1, 1, 5)]


def test_tower_plan_errors():
    with pytest.raises(NotComparable):
        tower_plan((1, 2), (1, 2), 2)
    with pytest.raises(NotComparable):
        tower_plan((1, 3), (1, 7), 2)  # first components equal, not strict
    with pytest.raises(NotAdmissible):
        tower_plan((1, 4), (3, 7), 2)
    with pytest.raises(NotAdmissible):
        tower_plan((1, 2), (3, 8), 2)
    with pytest.raises(LengthMismatch):
        tower_plan((1,), (3, 7), 2)
    with pytest.raises(ValueError):  # every input error is a ValueError
        tower_plan((1, 4), (3, 7), 2)


def test_tower_plan_final_level_reproduces_target():
    for p, start, target in [(2, (1, 2, 4), (3, 7, 15)), (3, (1, 3), (2, 7))]:
        steps = tower_plan(start, target, p)
        assert tuple(st.target for st in steps) == target


# ----------------------------------------------------------------------- json

def test_filtration_json_roundtrip():
    d = filtration_to_dict(Z4)
    assert d == {"p": 2, "e": 2, "m": 1,
                 "breaks": [{"c": "1", "mult": 1}, {"c": "2", "mult": 1}]}
    assert filtration_from_dict(d) == Z4
    half = Filtration(InertiaShape(3, 1, 2), [(Fraction(1, 2), 1)])
    assert filtration_from_dict(filtration_to_dict(half)) == half


def test_filtration_from_dict_validates():
    d = filtration_to_dict(Filtration(InertiaShape(2, 1, 1), [(2, 1)]))
    message = "^invalid filtration: break 2: lower jump 2 divisible by 2$"
    with pytest.raises(ValueError, match=message):
        filtration_from_dict(d)
