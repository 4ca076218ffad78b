"""Herbrand functions, filtration validation, transforms, admissibility."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramforge.errors import (
    CongruenceViolation,
    InputError,
    InvalidJump,
    InvalidSubgroup,
    InvariantViolation,
    LengthMismatch,
    NotAdmissible,
    NotComparable,
)
from ramforge.genus import BranchPoint
from ramforge.grids import brute_force_admissible
from ramforge.ramfilt import (
    MAX_ADMISSIBLE_SEQUENCES,
    Filtration,
    InertiaShape,
    LevelStep,
    _congruence,
    action_transform,
    admissible_check,
    admissible_enumerate,
    filtration_from_dict,
    filtration_to_dict,
    lower_to_upper,
    phi,
    psi,
    random_filtration,
    tower_plan,
    upper_to_lower,
    validate,
)

# the benchmark's reference arithmetic, written without ramforge
from perfbench import oracle as O

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


BOUND = "break multiplicities exceed the bound p^(their sum) <= 2^64"


@pytest.mark.parametrize("lower, error, message", [
    # the bound on p^(l_1+...+l_i) is checked before p^l_i is computed
    ([(1, 2**64)], InputError, BOUND),
    ([(1, 10**8)], InputError, BOUND),
    ([(1, 40), (3, 25)], InputError, BOUND),
    ([(1, 2**65)], InputError, "break 1: multiplicity must lie in 1..2^64"),
    ([(1, 1), (3, 0)], InputError, "break 2: multiplicity must lie in 1..2^64, got 0"),
    ([(1, True)], TypeError, "break 1: multiplicity must be an int, got bool"),
    ([(1.5, 1)], TypeError, "lower jump 1: float is not a Fraction, an int or a num/den string"),
    ([(1, 1), ("x", 1)], InputError, "lower jump 2: 'x' is not an integer or num/den string"),
], ids=["mult-2^64", "mult-10^8", "mult-sum-65", "mult-2^65", "mult-0", "mult-bool",
        "jump-float", "jump-bad-string"])
def test_lower_to_upper_reads_each_pair_before_it_computes(lower, error, message):
    with pytest.raises(error) as info:
        lower_to_upper(InertiaShape(2, 1, 1), lower)
    assert (type(info.value), str(info.value)) == (error, message)


def test_lower_to_upper_reads_a_string_jump_by_the_wire_grammar():
    shape = InertiaShape(3, 2, 2)
    assert lower_to_upper(shape, [("1", 1), ("7", 1)]) == lower_to_upper(shape, [(1, 1), (7, 1)])


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


@pytest.mark.parametrize("probe, error, message", [
    # the first pass reads every break before the knot loop, so its error at
    # break 3 wins over the knot loop's ordering error at break 2
    (lambda: Filtration(InertiaShape(2, 3), [(5, 1), (3, 1), (7, "x")]), TypeError,
     "break 3: multiplicity must be an int, got str"),
    (lambda: Filtration(InertiaShape(2, 3), [(5, 1), (3, 1), ("a/b", 1)]), InputError,
     "break 3: 'a/b' is not an integer or num/den string"),
    (lambda: Filtration(InertiaShape(2, 3), [(5, 1), (3, 1), (Fraction(1, 2**70), 1)]),
     InputError, "break 3: the lcm of the break denominators exceeds the bound m*2^64"),
    # and over the knot loop's bounds on the break index and the multiplicities
    (lambda: Filtration(InertiaShape(2, 3), [(2**65, 1), (1, True)]), TypeError,
     "break 2: multiplicity must be an int, got bool"),
    (lambda: Filtration(InertiaShape(2, 3), [(1, 65), (2, 1.5)]), TypeError,
     "break 2: multiplicity must be an int, got float"),
    # the shape: p, then e, then m, each by its reader
    (lambda: InertiaShape(4, 1, 1), InputError, "characteristic must be prime, got 4"),
    (lambda: InertiaShape(3, 65, 3), InputError,
     "wild order 3^65 exceeds the bound p^e <= 2^64"),
    (lambda: InertiaShape(True, 1, 1), TypeError, "characteristic p must be an int, got bool"),
    (lambda: InertiaShape(3, 1.0, 1), TypeError, "wild exponent e must be an int, got float"),
    (lambda: InertiaShape(3, 1, 0), InputError, "tame order m must lie in 1..2^64, got 0"),
    (lambda: InertiaShape(41, 1, 41), InputError, "tame order 41 must be positive and prime to 41"),
], ids=["b3-mult-str-over-order", "b3-value-over-order", "b3-lcm-over-order",
        "b2-mult-bool-over-index-bound", "b2-mult-float-over-mult-bound", "shape-p-4",
        "shape-e-65", "shape-p-bool", "shape-e-float", "shape-m-0", "shape-m-41-at-p-41"])
def test_construction_checks_keep_their_order_and_messages(probe, error, message):
    with pytest.raises(error) as info:
        probe()
    assert (type(info.value), str(info.value)) == (error, message)


def test_a_branch_point_groups_a_run_given_in_different_forms():
    # "14/6" and Fraction(7, 3) read as 7/3, the run's first value
    bp = BranchPoint(InertiaShape(3, 5), ["7/3", "14/6", Fraction(7, 3), "8/3", Fraction(16, 6)])
    assert bp.breaks == ((Fraction(7, 3), 3), (Fraction(8, 3), 2))
    assert [type(c) for c, _ in bp.breaks] == [Fraction, Fraction]
    assert bp == Filtration(InertiaShape(3, 5), [(Fraction(7, 3), 3), (Fraction(8, 3), 2)])


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
        s_iota = O.congruence_class(filt.shape.p, upper_to_lower(filt)[-1][0],
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
    assert InertiaShape._fields == ("p", "e", "m")
    assert shape._values == (3, 2, 2)
    assert shape == InertiaShape(3, 2, 2) and shape != InertiaShape(3, 1, 2)
    assert hash(shape) == hash((3, 2, 2))
    assert repr(shape) == "InertiaShape(p=3, e=2, m=2)"
    assert InertiaShape(shape.p, 0, shape.m).order == 2  # a changed copy derives its order
    with pytest.raises(AttributeError):
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
    for args in [(2, 9, 0, 1), (3, 7, 0, 2), (2, 5, 1, 3)]:
        assert _congruence(*args) == O.congruence_class(*args) == 1


def test_conductor_congruence_normalized_to_m():
    # residue 0 is reported as m
    assert _congruence(3, 4, 0, 2) == O.congruence_class(3, 4, 0, 2) == 2
    assert _congruence(2, 3, 0, 3) == O.congruence_class(2, 3, 0, 3) == 3


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


@pytest.mark.parametrize("p, e", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                                  (5, 1), (5, 2), (7, 2)])
def test_admissible_enumerate_matches_brute_force_at_the_minimal_bound(p, e):
    # p^(e-1) admits only the minimal sequence
    for bound in (p ** (e - 1), p ** (e - 1) + 1):
        assert admissible_enumerate(p, e, bound) == brute_force_admissible(p, e, bound)
    assert admissible_enumerate(p, e, p ** (e - 1)) == [tuple(p**i for i in range(e))]


@pytest.mark.parametrize("p, e", [(3, 41), (2, 1)])
def test_admissible_enumerate_raises_the_cap_promptly(p, e):
    # every prefix extends, so the cap is tested at each level, not on the final list
    started = time.perf_counter()
    with pytest.raises(InputError, match=f"^e {e} and bound {2**64} give more than "
                                         f"{MAX_ADMISSIBLE_SEQUENCES} admissible sequences$"):
        admissible_enumerate(p, e, 2**64)
    assert time.perf_counter() - started < 2


def test_admissible_check_and_the_brute_force_check_p():
    for p in (4, 1, 0):
        with pytest.raises(InputError, match=f"^characteristic must be prime, got {p}$"):
            admissible_check([1], p)
        with pytest.raises(InputError, match=f"^characteristic must be prime, got {p}$"):
            admissible_check([], p)
    # p is checked even with no tuple to filter
    with pytest.raises(InputError, match="^characteristic must be prime, got 4$"):
        brute_force_admissible(4, 1, 0)


def test_minimal_sequence_is_least():
    for p, e in [(2, 3), (3, 2)]:
        minimal = tuple(p**i for i in range(e))
        seqs = admissible_enumerate(p, e, p ** (e - 1) * 3)
        assert seqs[0] == minimal
        for other in seqs[1:]:
            assert all(x <= y for x, y in zip(minimal, other))


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


@pytest.mark.parametrize("start, target, p, error, message", [
    ((1, 4), (3, 7), 2, NotAdmissible, "(1, 4) is not admissible for p = 2"),
    ((1, 2), (1, 2), 2, NotComparable, "(1, 2) is not strictly larger than (1, 2) componentwise"),
    # entries past str()'s digit limit, or too many of them, print as a length
    ((10**5000 + 1,), (4,), 3, NotComparable,
     "(4,) is not strictly larger than the sequence of length 1 componentwise"),
    ((10**5000,), (4,), 2, NotAdmissible, "the sequence of length 1 is not admissible for p = 2"),
    ((2**64 + 1,), (1,), 2, NotComparable,
     "(1,) is not strictly larger than the sequence of length 1 componentwise"),
    ((1,) * 65, (3,) * 65, 2, NotAdmissible,
     "the sequence of length 65 is not admissible for p = 2"),
])
def test_tower_plan_messages_stay_short(start, target, p, error, message):
    with pytest.raises(error) as exc:
        tower_plan(start, target, p)
    assert str(exc.value) == message


def test_tower_plan_final_level_reproduces_target():
    for p, start, target in [(2, (1, 2, 4), (3, 7, 15)), (3, (1, 3), (2, 7))]:
        steps = tower_plan(start, target, p)
        assert tuple(st.target for st in steps) == target


def test_tower_plan_of_empty_sequences_is_empty():
    # empty sequences are admissible and vacuously comparable
    assert tower_plan([], [], 2) == []
    assert tower_plan((), (), 3) == []


@st.composite
def admissible_pairs(draw):
    """(p, start, target): admissible sequences of one length, start < target."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    e = draw(st.integers(1, 5))

    def next_entry(least, prev):
        # p*prev itself when allowed, else an entry above both bounds, prime to p
        if prev and p * prev >= least and draw(st.booleans()):
            return p * prev
        x = max(least, p * prev + 1) + draw(st.integers(0, 40))
        return x if x % p else x + 1

    start, target = [], []
    for _ in range(e):
        start.append(next_entry(1, start[-1] if start else 0))
        target.append(next_entry(start[-1] + 1, target[-1] if target else 0))
    return p, tuple(start), tuple(target)


@settings(max_examples=200, deadline=None)
@given(admissible_pairs())
def test_tower_plan_follows_the_minimal_dominating_layers(case):
    p, start, target = case
    assert admissible_check(start, p) and admissible_check(target, p)
    assert all(a < b for a, b in zip(start, target))
    expected = [LevelStep(1, start[0], target[0])]
    for i in range(1, len(target)):
        expected.append(LevelStep(i + 1, p * target[i - 1], target[i]))
    steps = tower_plan(start, target, p)  # never an InvariantViolation
    assert steps == expected
    assert all(step.start <= step.target for step in steps)


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
