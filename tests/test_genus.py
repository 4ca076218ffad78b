"""Ramification divisors, Riemann-Hurwitz, increments, spectra, Kato's mu.

The library computes the divisor degree and the spectrum in integers.  The
references below compute them in Fractions: Hilbert's formula through psi
at the conductor, and a spectrum loop that checks every candidate's
increment and collects the genera in sets.  The library must return the
same values and raise the same errors.
"""

import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ramforge.errors import (
    InconsistentInput,
    InputError,
    InvalidJump,
    InvariantViolation,
    NotLarger,
    RamforgeError,
)
from ramforge.genus import (
    MAX_SPECTRUM_GENERA,
    BranchPoint,
    CoverData,
    KatoInput,
    SpectrumResult,
    contains_progressions,
    genus_increment,
    genus_spectrum,
    kato_mu,
    last_lower_jump_increment,
    ram_divisor_degree,
    rh_genus,
    spectrum_density,
)
from ramforge.grids import econd_grid
from ramforge.ramfilt import (
    Filtration,
    InertiaShape,
    action_transform,
    parse_rational,
    phi,
    psi,
    random_filtration,
    upper_to_lower,
    validate,
)

# the benchmark's reference arithmetic, written without ramforge
from perfbench import oracle as O


def outcome(f, *args):
    """f(*args), or the type and message of the error it raised."""
    try:
        return f(*args)
    except (ValueError, RamforgeError) as exc:
        return type(exc), str(exc)


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


def ref_ram_divisor_degree(filt):
    """Hilbert's formula in Fractions, psi evaluated at the conductor."""
    problems = validate(filt)
    if problems:
        raise InvariantViolation(f"invalid branch point {filt}: " + "; ".join(problems))
    order = filt.shape.order
    sigma = filt.conductor or 0
    deg = order - 1 + order * sigma - psi(filt, sigma)
    if deg.denominator != 1 or deg < 0:
        raise InvariantViolation(f"ramification degree {deg} at {filt} is not a natural number")
    return int(deg)


@st.composite
def filtrations(draw):
    """Valid filtrations from random lower jumps, or arbitrary break lists,
    most of which fail `validate`."""
    if draw(st.booleans()):
        return random_filtration(draw(st.randoms(use_true_random=False)), e_max=6, m_max=12)
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.sampled_from([m for m in range(1, 13) if m % p]))
    cs = draw(st.lists(st.fractions(Fraction(1, 12), 40, max_denominator=12),
                       unique=True, max_size=5))
    breaks = [(c, draw(st.integers(1, 3))) for c in sorted(cs)]
    return Filtration(InertiaShape(p, draw(st.integers(0, 8)), m), breaks)


@settings(max_examples=400, deadline=None)
@given(filtrations())
def test_ram_divisor_degree_matches_the_fraction_formula(filt):
    assert outcome(ram_divisor_degree, filt) == outcome(ref_ram_divisor_degree, filt)


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


# wire-grammar rationals: optional sign, leading zeros, numerals up to 30 digits
wire_numerals = st.one_of(st.integers(-40, 40).map(str),
                          st.from_regex(r"-?0{0,3}[0-9]{1,27}", fullmatch=True))
wire_rationals = st.one_of(
    wire_numerals,
    st.builds("{}/{}".format, wire_numerals,
              st.one_of(st.integers(1, 12).map(str),
                        st.from_regex(r"0{0,3}[1-9][0-9]{0,26}", fullmatch=True))),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.lists(wire_rationals, max_size=5), st.booleans())
def test_branch_point_reads_wire_strings_like_fraction(p, texts, ascending):
    if ascending:  # mostly constructible; the raw order mostly is not
        texts = sorted(texts, key=Fraction)
    shape = InertiaShape(p, len(texts), 1)
    got = outcome(BranchPoint, shape, texts)
    want = outcome(BranchPoint, shape, [Fraction(t) for t in texts])
    assert got == want
    if isinstance(got, Filtration):
        assert got.breaks == want.breaks and validate(got) == validate(want)
        assert all(type(c) is Fraction for c, _ in got.breaks)


@st.composite
def jump_runs(draw):
    """Upper jumps as runs of equal values, each copy in a form a caller may
    pass: the run's one shared Fraction, an equal but distinct Fraction, an
    int, the canonical string, or the canonical string followed by a
    non-canonical twin ("2/4" after "1/2", "007" after "7", "4/2" after
    "2"); with the (value, run length) breaks they stand for."""
    values = draw(st.lists(st.fractions(Fraction(1, 6), 30, max_denominator=6),
                           min_size=1, max_size=4, unique=True))
    jumps, runs = [], []
    for v in sorted(values):
        start = len(jumps)
        for form in draw(st.lists(st.sampled_from(["shared", "fresh", "int", "str", "twin"]),
                                  min_size=1, max_size=3)):
            if form == "shared":
                jumps.append(v)
            elif form == "fresh":
                jumps.append(Fraction(v.numerator, v.denominator))
            elif form == "int" and v.denominator == 1:
                jumps.append(int(v))
            else:
                jumps.append(str(v))
            if form == "twin":
                k = draw(st.integers(2, 4))
                jumps.append(f"{v.numerator * k}/{v.denominator * k}" if v.denominator > 1
                             or draw(st.booleans()) else "00" + str(v))
        runs.append((v, len(jumps) - start))
    return jumps, runs


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), jump_runs())
@example(2, (["1/2", "2/4", "7", "007"], [(Fraction(1, 2), 2), (Fraction(7), 2)]))
@example(3, (["2", "4/2", "4/2", 2], [(Fraction(2), 4)]))
def test_branch_point_merges_runs_as_the_filtration_of_their_values(p, given_runs):
    jumps, runs = given_runs
    shape = InertiaShape(p, sum(n for _, n in runs), 1)
    bp, filt = BranchPoint(shape, jumps), Filtration(shape, runs)
    assert bp == filt and bp.breaks == filt.breaks and validate(bp) == validate(filt)
    assert bp._knots == filt._knots
    assert bp.upper_jumps == tuple(Fraction(j) for j in jumps)


def test_branch_point_reads_a_repeated_jump_once(monkeypatch):
    # a jump equal to the previous one as given is counted, not read again;
    # a new spelling of the same value is read, then merged by value; a string
    # jump is read by ramfilt's parse_rational, through its _read_rational
    import ramforge.ramfilt as ramfilt

    read = []

    def reading(value, field, index=0):
        read.append(index)
        return parse_rational(value, field, index)

    monkeypatch.setattr(ramfilt, "parse_rational", reading)
    bp = BranchPoint(InertiaShape(2, 5, 1), ["1", "1", "3", "3/1", "3/1"])
    assert bp.breaks == ((1, 2), (3, 3)) and read == [1, 3, 4]
    with pytest.raises(ValueError, match="^upper jump 3: '1.5' is not an integer"):
        BranchPoint(InertiaShape(2, 3, 1), ["1", "1", "1.5"])


OUTSIDE_THE_GRAMMAR = pytest.mark.parametrize("text,message", [
    ("1.5", "'1.5' is not an integer or num/den string"),
    (" 1/2", "' 1/2' is not an integer or num/den string"),
    ("+3", "'+3' is not an integer or num/den string"),
    ("1e2", "'1e2' is not an integer or num/den string"),
    ("\u0661", "'\u0661' is not an integer or num/den string"),
    ("1/0", "'1/0' has a zero denominator"),
    ("1" * 5000, "a numeral has more than 4300 digits"),
], ids=["decimal", "space", "plus", "exponent", "arabic-indic-digit", "zero-denominator",
        "digit-limit"])


@OUTSIDE_THE_GRAMMAR
def test_branch_point_rejects_strings_outside_the_grammar(text, message):
    # the same grammar as the JSON edge, the jump named by its 1-based index
    with pytest.raises(ValueError) as info:
        BranchPoint(InertiaShape(2, 3, 1), ["1", "3", text])
    assert str(info.value) == f"upper jump 3: {message}"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.lists(wire_rationals, max_size=5),
       st.lists(st.integers(1, 3), min_size=5, max_size=5), st.booleans())
def test_filtration_reads_wire_strings_like_fraction(p, texts, mults, ascending):
    if ascending:  # mostly constructible; the raw order mostly is not
        texts = sorted(texts, key=Fraction)
    shape = InertiaShape(p, sum(mults[:len(texts)]), 1)
    got = outcome(Filtration, shape, list(zip(texts, mults)))
    want = outcome(Filtration, shape, [(Fraction(t), l) for t, l in zip(texts, mults)])
    assert got == want
    if isinstance(got, Filtration):
        assert got.breaks == want.breaks and validate(got) == validate(want)
        assert all(type(c) is Fraction for c, _ in got.breaks)


@settings(max_examples=300, deadline=None)
@given(filtrations(), wire_rationals)
def test_psi_phi_read_wire_strings_like_fraction(filt, text):
    for fn in (psi, phi):
        assert outcome(fn, filt, text) == outcome(fn, filt, Fraction(text))


# the library functions that take a conductor sigma, with the field they name
SIGMA_READERS = [
    ("sigma", lambda sigma: genus_increment(8, 2, 1, 1, sigma, 5)),
    ("sigma", lambda sigma: last_lower_jump_increment(2, 3, 2, 1, 1, sigma, 5)),
    ("base conductor", lambda sigma: genus_spectrum(8, 2, 1, 1, sigma, 0, 1, 20)),
]


@OUTSIDE_THE_GRAMMAR
def test_filtration_psi_phi_reject_strings_outside_the_grammar(text, message):
    # the grammar of BranchPoint and the JSON edge, naming the break, argument or sigma
    shape = InertiaShape(2, 2, 1)
    filt = Filtration(shape, [(1, 1), (2, 1)])
    for field, call in [("break 2", lambda: Filtration(shape, [("1", 1), (text, 1)])),
                        ("psi argument", lambda: psi(filt, text)),
                        ("phi argument", lambda: phi(filt, text)),
                        *[(name, lambda read=read: read(text)) for name, read in SIGMA_READERS]]:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"{field}: {message}"


def test_library_strings_that_fraction_would_read():
    filt = Filtration(InertiaShape(2, 1, 1), [(1, 1)])
    with pytest.raises(ValueError, match="^break 1: '1e0' is not an integer"):
        Filtration(InertiaShape(2, 1, 1), [("1e0", 1)])
    with pytest.raises(ValueError, match="^psi argument: ' 3/2' is not an integer"):
        psi(filt, " 3/2")
    with pytest.raises(ValueError, match="^phi argument: '1.5' is not an integer"):
        phi(filt, "1.5")
    assert (psi(filt, "3/2"), phi(filt, "2")) == (2, Fraction(3, 2))
    with pytest.raises(ValueError, match="^sigma: '1.5' is not an integer"):
        genus_increment(8, 2, 1, 1, "1.5", 5)
    with pytest.raises(ValueError, match="^base conductor: ' 3/2 ' is not an integer"):
        genus_spectrum(8, 2, 1, 1, " 3/2 ", 0, 1, 60)
    with pytest.raises(ValueError, match="^sigma: '3e0' is not an integer"):
        last_lower_jump_increment(2, 3, 2, 1, 1, "3e0", 5)
    assert genus_increment(8, 2, 1, 1, "3/2", 5) == 7


@settings(max_examples=300, deadline=None)
@given(wire_rationals)
def test_sigma_readers_read_wire_strings_like_fraction(text):
    for _, read in SIGMA_READERS:
        assert outcome(read, text) == outcome(read, Fraction(text))


class FractionSubclass(Fraction):
    """Not exactly a Fraction, so a reader takes its Fraction() branch."""


# every reader of a rational argument: a break, an upper jump, the Herbrand
# argument and the conductor sigma of the genus functions
HERBRAND = Filtration(InertiaShape(2, 2, 3), [(Fraction(1, 3), 1), (Fraction(5, 3), 1)])
RATIONAL_READERS = {
    "Filtration": lambda c: Filtration(InertiaShape(2, 1, 3), [(c, 1)]),
    "BranchPoint": lambda c: BranchPoint(InertiaShape(2, 1, 3), [c]),
    "psi": lambda c: psi(HERBRAND, c),
    "phi": lambda c: phi(HERBRAND, c),
    "genus_increment": SIGMA_READERS[0][1],
    "last_lower_jump_increment": SIGMA_READERS[1][1],
    "genus_spectrum": SIGMA_READERS[2][1],
}


@pytest.mark.parametrize("read", RATIONAL_READERS.values(), ids=RATIONAL_READERS.keys())
@settings(max_examples=200, deadline=None)
@given(st.one_of(st.fractions(-3, 40, max_denominator=12),
                 st.integers(-3, 10**30).map(Fraction)))
def test_rational_readers_read_every_form_as_the_equal_fraction(read, x):
    # a Fraction, its string, a Fraction subclass and, when integral, an int;
    # a float, a Decimal or a bool is refused, even when its value is exact
    def seen(c):
        got = outcome(read, c)
        if isinstance(got, Filtration):
            return got, validate(got), [type(s) for s, _ in got.breaks]
        return got, type(got)

    forms = [str(x), FractionSubclass(x)] + ([int(x)] if x.denominator == 1 else [])
    want = seen(x)
    assert all(seen(c) == want for c in forms), want
    for c in [float(x), Decimal(x.numerator) / x.denominator, x > 1]:
        with pytest.raises(TypeError, match="is not a Fraction, an int or a num/den string$"):
            read(c)


@pytest.mark.parametrize("probe", [
    lambda: psi(HERBRAND, 0.1),
    lambda: psi(HERBRAND, True),
    lambda: phi(HERBRAND, 0.5),
    lambda: BranchPoint(InertiaShape(2, 1, 1), [0.1]),
    lambda: Filtration(InertiaShape(2, 1, 1), [(Decimal(1), 1)]),
    lambda: genus_increment(8, 2, 1, 1, 1.5, 5),
], ids=["psi-0.1", "psi-True", "phi-float", "branch-point-0.1", "filtration-decimal",
        "genus-increment-1.5"])
def test_no_binary_value_is_read_as_a_rational(probe):
    # psi(filt, 0.1) used to read 3602879701896397/36028797018963968 and psi(filt, True) 1
    with pytest.raises(TypeError):
        probe()


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
            assert rh_genus(CoverData(p, 0, (bp,))) == (p - 1) * (j - 1) // 2


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


@pytest.mark.parametrize("G,gx,message", [
    (2**64 + 1, 0, "group order |G| must lie in 1..2^64"),
    (10**3000 - 1, 10**3000 - 1, "group order |G| must lie in 1..2^64"),
    (2, 2**64 + 1, "base genus g_X must lie in 0..2^64"),
    (2, 10**3000 - 1, "base genus g_X must lie in 0..2^64"),
])
def test_cover_data_bounds_group_order_and_base_genus(G, gx, message):
    with pytest.raises(InputError, match="^" + re.escape(message) + "$"):
        CoverData(G, gx)


def test_cover_data_at_the_bounds():
    assert rh_genus(CoverData(2**64, 2**64)) == 2**64 * (2**64 - 1) + 1


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
    # the genus of y^2 - y = f with deg f = j is (j - 1)/2 on the line: 1 at j = 3, 0 at j = 1
    assert genus_increment(2, 2, 1, 1, 1, 3) == 1 - 0


def test_genus_increment_direct_substitution():
    assert genus_increment(8, 2, 1, 1, 2, 5) == 6


def test_genus_increment_errors():
    with pytest.raises(NotLarger):
        genus_increment(2, 2, 1, 1, 3, 3)
    with pytest.raises(InvalidJump):
        genus_increment(2, 2, 1, 1, 1, 4)
    with pytest.raises(ValueError):
        genus_increment(2, 2, 0, 1, 1, 3)


@pytest.mark.parametrize("probe, message", [
    # an inertia group of order 9 inside a group of order 3, as genus_spectrum refuses it
    (lambda: genus_increment(3, 3, 2, 1, 1, 4), "p^a*m = 9 does not divide the group order 3"),
    (lambda: spectrum_density(3, 3, 2), "p^a*m = 9 does not divide the group order 3"),
    # a conductor sigma <= 0, as genus_spectrum refuses a base conductor sigma0 <= 0
    (lambda: genus_increment(2, 2, 1, 1, -1, 3), "sigma must be positive"),
    (lambda: last_lower_jump_increment(2, 3, 2, 1, 1, 0, 5), "sigma must be positive"),
], ids=["increment-order", "density-order", "increment-sigma", "last-lower-jump-sigma"])
def test_deformation_reader_refuses_what_the_spectrum_refuses(probe, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        probe()


def test_deformation_reader_keeps_the_valid_values():
    assert genus_increment(8, 2, 1, 1, 2, 5) == 6
    assert genus_increment(9, 3, 2, 1, 1, 4) == 12  # 9 * (4 - 1) * (1 - 1/9) / 2
    assert last_lower_jump_increment(2, 3, 2, 1, 1, 2, 5) == 9
    # 2*(p^a - p^(a-1)) / (|G| * (p^a - 1)) = (p - 1)/inc: p - 1 progressions of step inc
    assert spectrum_density(9, 3, 2) == Fraction(2 * 6, 9 * 8) == Fraction(2, genus_spectrum(
        9, 3, 2, 1, 1, 0, 1, 10).increment)
    assert spectrum_density(2**64, 2, 1) == Fraction(1, 2**63)


@pytest.mark.parametrize("increment", [
    lambda s: genus_increment(2, 2, 1, 1, 3, s),
    lambda s: last_lower_jump_increment(2, 5, 1, 1, 1, 3, s),
], ids=["genus", "last-lower-jump"])
def test_deformation_target_preconditions(increment):
    with pytest.raises(InvalidJump, match="^conductor 4 must be positive and prime to 2$"):
        increment(4)
    with pytest.raises(InvalidJump, match="^conductor s must lie in 1\\.\\.2\\^65, got -1$"):
        increment(-1)
    with pytest.raises(NotLarger, match="^conductor 3 does not exceed m\\*sigma = 3$"):
        increment(3)


N4300 = int("9" * 4299 + "7")


@pytest.mark.parametrize("probe, message", [
    (lambda: genus_increment(2, 2, 1, 3, Fraction(N4300, 2), 5), "sigma exceeds the bound"),
    (lambda: genus_increment(2, 2, 1, 1, Fraction(1, N4300), 5), "sigma exceeds the bound"),
    (lambda: genus_increment(2, 2, 1, 1, 1, 2 * N4300), "conductor s must lie in 1\\.\\.2\\^65"),
    (lambda: genus_increment(2, 2, 1, 1, 1, -N4300), "conductor s must lie in 1\\.\\.2\\^65"),
    (lambda: genus_increment(2, 2, 1, N4300, 1, 3), "tame order m must lie in"),
    (lambda: genus_increment(2, 2 * N4300, 1, 1, 1, -1), "characteristic p must lie in"),
    (lambda: genus_increment(2, 2, 1, 1, 1, 3 << 65), "conductor s must lie in 1\\.\\.2\\^65"),
    (lambda: genus_increment(N4300, 2, 1, 1, 1, 7), "group order \\|G\\| must lie in"),
    (lambda: genus_increment(2, 2, N4300, 1, 1, 3), "subgroup exponent a must lie in"),
    (lambda: last_lower_jump_increment(2, 1, 1, 1, 1, 1, 2 * N4300),
     "conductor s must lie in 1\\.\\.2\\^65"),
    (lambda: last_lower_jump_increment(2, 1, N4300, 1, 1, 1, 3), "wild exponent e must lie in"),
    (lambda: last_lower_jump_increment(2, 1, 1, N4300, 1, 1, 3), "subgroup exponent a must lie in"),
    (lambda: last_lower_jump_increment(2, N4300, 2, 1, 1, 1, 3), "last lower jump j_e must lie in"),
], ids=["sigma", "sigma-denominator", "s", "negative-s", "m", "p", "s-above-m-2^65",
        "group-order", "a", "last-lower-jump-s", "last-lower-jump-e", "last-lower-jump-a",
        "last-lower-jump-j_e"])
def test_deformation_helpers_bound_what_their_messages_print(probe, message):
    # str() of a 4,300-digit int raises a plain ValueError past Python's digit limit
    with pytest.raises(InputError, match=f"^{message}"):
        probe()


def test_deformation_targets_reach_past_2_to_the_64():
    # s/m may exceed 2^64 by a few steps of m, as genus_spectrum's first candidate does
    assert genus_increment(4, 2, 1, 1, 2**64, 2**64 + 1) == 1
    assert genus_increment(12, 2, 1, 3, 2**64, (3 << 64) + 1) == 1
    assert last_lower_jump_increment(2, 2**64, 1, 1, 1, 2**64, 2**64 + 1) == 2**64 + 1


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
        s = O.congruence_class(p, j_e, e - a, m)
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
        s = O.congruence_class(p, j_e, e - a, m)
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


def test_contains_progressions_rejects_a_gap_or_a_wrong_residue_count():
    result = genus_spectrum(3, 3, 1, 1, Fraction(1), 0, 1, 20)
    genera, deformed, inc, residues = (result.genera, result.deformed, result.increment,
                                       result.residues)
    assert 9 in deformed and contains_progressions(result, 3)
    gapped = tuple(g for g in deformed if g != 9)  # 6 -> 12 in the class 0 mod 3
    assert not contains_progressions(SpectrumResult(genera, gapped, inc, residues), 3)
    assert not contains_progressions(SpectrumResult(genera, deformed, inc, residues[:1]), 3)


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


def test_spectrum_at_p_2_with_half_genus_steps():
    # |G|/2^a = 1 is odd, so a step of m = 1 in s is worth half a genus
    result = genus_spectrum(2, 2, 1, 1, 1, 0, 1, 20)
    assert result.genera == tuple(range(21))
    assert result.deformed == tuple(range(1, 21))
    assert (result.increment, result.residues) == (1, (0,))


def test_spectrum_bounds_the_group_order():
    # |G| <= 2^64 as in CoverData, checked before any value is formatted
    assert genus_spectrum(2**64, 2, 1, 1, 1, 0, 1, 10).increment == 2**63
    mersenne = 2**61 - 1
    for G, p in [(2**64 + 1, 2), ((10**4299 - 1) // mersenne * mersenne, mersenne)]:
        with pytest.raises(InputError, match=r"^group order \|G\| must lie in 1\.\.2\^64$"):
            genus_spectrum(G, p, 1, 1, 1, 0, 1, 10)


def ref_genus_spectrum(group_order, p, a, m, sigma0, g0, s_iota, limit):
    """The spectrum as a Fraction loop over the candidates s, each increment
    checked integral, the genera collected in sets and sorted.  p is prime,
    a <= 3 and the window is small here, so the library's primality, huge-a
    and window-cap checks are not repeated."""
    if a < 1:
        raise InputError(f"subgroup exponent a must lie in 1..64, got {a}")
    if group_order < 1:
        raise InputError(f"group order |G| must lie in 1..2^64, got {group_order}")
    sigma0 = Fraction(sigma0)
    if sigma0 <= 0:
        raise InputError("base conductor sigma0 must be positive")
    if g0 < 0:
        raise InputError(f"base genus g0 must lie in 0..2^64, got {g0}")
    if limit < 0:
        raise InputError(f"genus limit must lie in 0..2^64, got {limit}")
    if not 1 <= s_iota <= m:
        raise InputError(f"s_iota must lie in 1..{m}, got {s_iota}")
    if math.gcd(m, p) != 1:
        raise InputError(f"tame order {m} must be positive and prime to {p}")
    if group_order % (p**a * m):
        raise InputError(f"p^a*m = {p**a * m} does not divide the group order {group_order}")
    inc = p * group_order * (p**a - 1) // (2 * p**a)
    assert (limit - g0) * (p - 1) <= MAX_SPECTRUM_GENERA * inc

    def genus(s):
        delta = group_order * (Fraction(s, m) - sigma0) * (1 - Fraction(1, p**a)) / 2
        if delta.denominator != 1:
            raise InputError(f"base conductor {sigma0} does not fit the inertia data: "
                             f"genus increment {delta} is not a natural number")
        return g0 + int(delta)

    genera = {g0} if g0 <= limit else set()
    deformed = set()
    s = s_iota
    while s <= m * sigma0 or s % p == 0:
        s += m
    while (g := genus(s)) <= limit:
        deformed.add(g)
        s += m
        while s % p == 0:
            s += m
    residues = tuple(sorted({g % inc for g in deformed}))
    return SpectrumResult(tuple(sorted(genera | deformed)), tuple(sorted(deformed)), inc,
                          residues)


@st.composite
def spectrum_inputs(draw):
    """genus_spectrum arguments, each valid nine times in ten; base
    conductors over small denominators, so many first increments are not
    integral."""
    def mostly(valid, invalid):
        return draw(invalid if draw(st.integers(0, 9)) == 5 else valid)

    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    a = mostly(st.integers(1, 3), st.just(0))
    m = mostly(st.sampled_from([m for m in range(1, 8) if m % p]), st.sampled_from([p, 2 * p]))
    group_order = p ** max(a, 1) * m * draw(st.integers(1, 5)) + mostly(st.just(0), st.just(1))
    sigma0 = Fraction(mostly(st.integers(1, 40), st.integers(-1, 0)),
                      draw(st.sampled_from([1, 2, 3, 4, 6, p, p * m, p * p])))
    return (group_order, p, a, m, sigma0, mostly(st.integers(0, 30), st.just(-1)),
            mostly(st.integers(1, m), st.sampled_from([0, m + 1])),
            mostly(st.integers(0, 300), st.just(-1)))


@settings(max_examples=500, deadline=None)
@given(spectrum_inputs())
@example((2, 2, 1, 1, Fraction(1), 0, 1, 20))  # |G|/2^a odd: half-genus steps
@example((8, 2, 1, 1, Fraction(3, 2), 0, 1, 60))  # first increment 9/2
def test_spectrum_matches_the_fraction_loop(args):
    assert outcome(genus_spectrum, *args) == outcome(ref_genus_spectrum, *args)


@pytest.mark.parametrize("args, first_s", [
    ((4, 2, 1, 1, 2**64, 0, 1, 10), 2**64 + 1),
    ((12, 2, 1, 3, 2**63, 0, 1, 10), 3 * 2**63 + 1),
], ids=["sigma0-2^64", "m-3-sigma0-2^63"])
def test_spectrum_at_the_base_conductor_bound(args, first_s):
    # the first candidate conductor passes 2^64; the fraction loop would walk
    # 2^64 candidates from s_iota, so the genera are checked one s at a time
    G, p, a, m, sigma0, g0, _, limit = args
    genera, s = [], first_s
    while (g := g0 + G * (Fraction(s, m) - sigma0) * (1 - Fraction(1, p**a)) / 2) <= limit:
        assert g.denominator == 1
        genera.append(int(g))
        s += 2 * m  # p = 2: the next s prime to p
    assert genus_spectrum(*args).genera == (g0, *genera)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tower_genera_are_the_spectrum(p):
    # the paper's corollary for Z/p^2 over the line: deforming the base tower's
    # conductor pj out to every s > pj prime to p gives exactly the deformed
    # genera of the base tower's spectrum, in order of s
    result = econd_grid(p, 4, 40)
    assert result.passed
    for j in range(1, 5):
        if j % p == 0:
            continue
        base = BranchPoint(InertiaShape(p, 2, 1), (j, p * j))
        g0 = rh_genus(CoverData(p * p, 0, (base,)))
        deformed = [r["genus"] for r in result.rows if r["j"] == j and r["s"] > p * j]
        spectrum = genus_spectrum(p * p, p, 1, 1, p * j, g0, 1, deformed[-1])
        assert list(spectrum.deformed) == deformed


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
