"""The Herbrand knot table of a Filtration against the slope walks.

The reference oracle below is the straightforward walk over the breaks:
psi and phi accumulate the segments one by one, jump conversion calls psi
once per break, and validation keeps its own p-power counter.  The
library reads a table built once per Filtration; it must give the same
values, jumps, exceptions and violation messages on every filtration,
valid or not.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ramforge.errors import InputError, InvariantViolation
from ramforge.ramfilt import (
    Filtration,
    InertiaShape,
    lower_to_upper,
    phi,
    psi,
    upper_to_lower,
    validate,
)


def ref_psi(filt, c):
    c = Fraction(c)
    p = filt.shape.p
    total = Fraction(0)
    prev = Fraction(0)
    slope = filt.shape.m
    for sigma, mult in filt.breaks:
        if c <= sigma:
            return total + slope * (c - prev)
        total += slope * (sigma - prev)
        prev = sigma
        slope *= p**mult
    return total + slope * (c - prev)


def ref_phi(filt, cprime):
    cprime = Fraction(cprime)
    p = filt.shape.p
    total = Fraction(0)
    prev = Fraction(0)
    slope = filt.shape.m
    for sigma, mult in filt.breaks:
        knot = total + slope * (sigma - prev)
        if cprime <= knot:
            return prev + (cprime - total) / slope
        total = knot
        prev = sigma
        slope *= p**mult
    return prev + (cprime - total) / slope


def ref_upper_to_lower(filt):
    p = filt.shape.p
    out = []
    for sigma, mult in filt.breaks:
        j = ref_psi(filt, sigma)
        if j.denominator != 1:
            raise InvariantViolation(f"lower jump {j} at break {sigma} is not integral")
        j = int(j)
        if j % p == 0:
            raise InvariantViolation(f"lower jump {j} at break {sigma} is divisible by {p}")
        out.append((j, mult))
    return out


def ref_validate(filt):
    violations = []
    shape = filt.shape
    p = shape.p
    mults = sum(l for _, l in filt.breaks)
    if mults != shape.e:
        violations.append(f"break multiplicities sum to {mults}, expected e = {shape.e}")
    dropped = 0
    for sigma, mult in filt.breaks:
        ratio = sigma * shape.m * p**dropped
        if ratio.denominator != 1:
            violations.append(f"break {sigma}: sigma*|I|/|I^sigma| = {ratio} not an integer")
        j = ref_psi(filt, sigma)
        if j.denominator != 1:
            violations.append(f"break {sigma}: lower jump {j} not an integer")
        elif int(j) % p == 0:
            violations.append(f"break {sigma}: lower jump {j} divisible by {p}")
        dropped += mult
    return violations


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InvariantViolation as exc:
        return ("InvariantViolation", str(exc))


@st.composite
def shapes(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    e = draw(st.integers(0, 8))
    m = draw(st.sampled_from([m for m in range(1, 13) if math.gcd(m, p) == 1]))
    return InertiaShape(p, e, m)


@st.composite
def valid_filtrations(draw):
    """Prime-to-p ascending lower jumps whose multiplicities sum to e."""
    shape = draw(shapes())
    mults = []
    left = shape.e
    while left:
        mults.append(draw(st.integers(1, left)))
        left -= mults[-1]
    jumps, j = [], 0
    for _ in mults:
        j += draw(st.integers(1, 12))
        while j % shape.p == 0:
            j += 1
        jumps.append(j)
    return lower_to_upper(shape, list(zip(jumps, mults)))


@st.composite
def raw_filtrations(draw):
    """Any increasing positive rational breaks with any multiplicities."""
    shape = draw(shapes())
    r = draw(st.integers(0, 5))
    breaks, c = [], Fraction(0)
    for _ in range(r):
        c += Fraction(draw(st.integers(1, 30)), draw(st.integers(1, 12)))
        breaks.append((c, draw(st.integers(1, 3))))
    return Filtration(shape, breaks)


filtrations = st.one_of(valid_filtrations(), raw_filtrations())
rationals = st.builds(Fraction, st.integers(0, 400), st.integers(1, 24))


def _upper_points(filt, extra):
    sigmas = [sigma for sigma, _ in filt.breaks]
    last = sigmas[-1] if sigmas else Fraction(0)
    return [Fraction(0), *sigmas, last + Fraction(1, 7), last + 5, *extra]


@settings(max_examples=300, deadline=None)
@given(filtrations, st.lists(rationals, max_size=6))
def test_psi_phi_match_the_slope_walk(filt, extra):
    ups = _upper_points(filt, extra)
    lows = [ref_psi(filt, c) for c in ups] + list(extra)
    for c in ups:
        v = psi(filt, c)
        assert type(v) is Fraction and v == ref_psi(filt, c)
        assert phi(filt, v) == c
    for c in lows:
        v = phi(filt, c)
        assert type(v) is Fraction and v == ref_phi(filt, c)
        assert psi(filt, v) == c


@settings(max_examples=300, deadline=None)
@given(filtrations)
def test_jumps_and_violations_match_the_slope_walk(filt):
    assert _outcome(upper_to_lower, filt) == _outcome(ref_upper_to_lower, filt)
    assert validate(filt) == ref_validate(filt)


@settings(max_examples=100, deadline=None)
@given(valid_filtrations())
def test_valid_filtrations_pass_and_round_trip(filt):
    assert validate(filt) == []
    assert lower_to_upper(filt.shape, upper_to_lower(filt)) == filt


def test_raw_breaks_can_be_rejected():
    # the strategy above reaches invalid data; pin one case of each message
    filt = Filtration(InertiaShape(3, 2, 2), [(Fraction(1, 5), 1), (Fraction(3, 2), 2)])
    assert validate(filt) == ref_validate(filt) == [
        "break multiplicities sum to 3, expected e = 2",
        "break 1/5: sigma*|I|/|I^sigma| = 2/5 not an integer",
        "break 1/5: lower jump 2/5 not an integer",
        "break 3/2: lower jump 41/5 not an integer",
    ]
    filt = Filtration(InertiaShape(2, 1, 1), [(Fraction(2), 1)])
    assert validate(filt) == ["break 2: lower jump 2 divisible by 2"]
    with pytest.raises(InvariantViolation, match="divisible by 2"):
        upper_to_lower(filt)


def ref_lower_to_upper(shape, lower_breaks):
    """Upper breaks from lower jumps by summing Fraction segments."""
    p, m = shape.p, shape.m
    sigma = Fraction(0)
    j_prev = 0
    slope = m
    breaks = []
    for j, mult in lower_breaks:
        sigma = sigma + Fraction(j - j_prev, slope)
        breaks.append((sigma, mult))
        j_prev = j
        slope *= p**mult
    return Filtration(shape, breaks)


def _built(fn, *args):
    """fn(*args) with its breaks and recorded findings, or the type and
    message of the error it raised."""
    try:
        filt = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return filt, filt.breaks, validate(filt)


@st.composite
def lower_jump_lists(draw):
    """Valid lists, or raw ones: jumps in any order (zero and negative too,
    or Fractions) with multiplicities from -2 to 3."""
    if draw(st.booleans()):
        filt = draw(valid_filtrations())
        return filt.shape, upper_to_lower(filt)
    shape = draw(shapes())
    jumps = st.one_of(st.integers(-5, 40), st.fractions(-5, 40, max_denominator=7))
    pairs = st.tuples(jumps, st.integers(-2, 3))
    return shape, draw(st.lists(pairs, max_size=5))


@settings(max_examples=400, deadline=None)
@given(lower_jump_lists())
@example((InertiaShape(2, 2, 1), [(1, -1), (3, 1)]))
@example((InertiaShape(3, 2, 2), [(1, 0), (2, 1)]))
@example((InertiaShape(5, 2, 3), [(Fraction(7, 2), 1), (9, 1)]))
@example((InertiaShape(2, 2, 1), [(3, 1), (3, 1)]))
def test_lower_to_upper_matches_the_fraction_walk(case):
    shape, lower = case
    assert _built(lower_to_upper, shape, lower) == _built(ref_lower_to_upper, shape, lower)


def test_validate_returns_a_fresh_list():
    filt = Filtration(InertiaShape(3, 2, 2), [(Fraction(1, 5), 1), (Fraction(3, 2), 2)])
    first = validate(filt)
    first.append("mutated")
    first[0] = "changed"
    second = validate(filt)
    assert second == ref_validate(filt) and second is not validate(filt)
    valid = EDGE_FAMILY[0]
    validate(valid).append("mutated")
    assert validate(valid) == []


# Fixed knot-edge family: valid filtrations from lower jumps, and raw ones whose
# pairwise-coprime break denominators make the common denominator D large.
EDGE_FAMILY = [
    lower_to_upper(InertiaShape(2, 3, 1), [(1, 1), (3, 1), (7, 1)]),
    lower_to_upper(InertiaShape(3, 2, 2), [(1, 1), (5, 1)]),
    lower_to_upper(InertiaShape(5, 2, 4), [(3, 2)]),
    lower_to_upper(InertiaShape(7, 3, 6), [(1, 1), (2, 1), (3, 1)]),
    lower_to_upper(InertiaShape(2, 4, 3), [(1, 2), (5, 2)]),
    Filtration(InertiaShape(3, 0, 2), []),
    Filtration(InertiaShape(7, 2, 1), [(5, 1), (6, 1)]),
    Filtration(InertiaShape(2, 4, 1),
               [(Fraction(1, 3), 1), (Fraction(2, 5), 1), (Fraction(4, 7), 1),
                (Fraction(9, 11), 1)]),
    Filtration(InertiaShape(3, 3, 5),
               [(Fraction(1, 2), 1), (Fraction(7, 13), 1), (Fraction(12, 17), 1)]),
    Filtration(InertiaShape(5, 6, 3),
               [(Fraction(1, 2), 1), (Fraction(2, 3), 1), (Fraction(4, 5), 2),
                (Fraction(6, 7), 1), (Fraction(10, 11), 1), (Fraction(12, 13), 3)]),
]


def _edge_points(knots, den):
    """Each knot, and each knot +- 1/q and +- 1/(q*den) for q <= 13, when >= 0."""
    points = set()
    for k in knots:
        points.add(k)
        for q in range(1, 14):
            for step in (Fraction(1, q), Fraction(1, q * den)):
                points.update(x for x in (k - step, k + step) if x >= 0)
    return sorted(points)


def _argument_forms(c):
    """c as a Fraction, as a "num/den" string and, when integral, as an int."""
    forms = [c, str(c)]
    if c.denominator == 1:
        forms.append(int(c))
    return forms


@pytest.mark.parametrize("filt", EDGE_FAMILY, ids=repr)
def test_psi_phi_at_knot_edges(filt):
    sigmas = [Fraction(0)] + [sigma for sigma, _ in filt.breaks]
    den = math.lcm(*(sigma.denominator for sigma in sigmas))
    for fn, ref, knots in ((psi, ref_psi, sigmas),
                           (phi, ref_phi, [ref_psi(filt, s) for s in sigmas])):
        for c in _edge_points(knots, den):
            want = ref(filt, c)
            for arg in _argument_forms(c):
                got = fn(filt, arg)
                assert type(got) is Fraction and got == want, (fn.__name__, arg)


@pytest.mark.parametrize("fn", [psi, phi])
@pytest.mark.parametrize("arg,shown", [(Fraction(-1, 3), "-1/3"), ("-7/3", "-7/3"), (-2, "-2")])
def test_negative_arguments_keep_their_message(fn, arg, shown):
    with pytest.raises(ValueError) as info:
        fn(EDGE_FAMILY[0], arg)
    assert str(info.value) == f"{fn.__name__} argument must be >= 0, got {shown}"


# the longest numeral int() reads: 2*N has 4,301 digits, past str()'s limit
N = int("9" * 4299 + "7")


@pytest.mark.parametrize("fn", [psi, phi])
@pytest.mark.parametrize("arg,shown", [
    (-(2**64), ", got -18446744073709551616"),
    (Fraction(-1, 2**64), ", got -1/18446744073709551616"),
    (-(2**64) - 1, ""),
    (Fraction(-1, 2**64 + 1), ""),
    (-2 * N, ""),
    (Fraction(-1, 2 * N), ""),
], ids=["-2^64", "-1/2^64", "-2^64-1", "-1/(2^64+1)", "-2N", "-1/2N"])
def test_negative_arguments_print_only_a_short_value(fn, arg, shown):
    with pytest.raises(InputError) as info:
        fn(EDGE_FAMILY[0], arg)
    assert str(info.value) == f"{fn.__name__} argument must be >= 0{shown}"
