"""The degree-p extension arithmetic and the tower jump engine."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ramforge import algebra, aschreier
from ramforge.algebra import INFINITY, FieldElement, FieldSpec, LaurentPoly, parse_laurent
from ramforge.aschreier import UNRAMIFIED
from ramforge.asext import (
    ExtElement,
    ExtFieldSpec,
    ext_as_reduce,
    format_ext,
    minimal_tower_element,
    parse_ext,
    tower_jumps,
)
from ramforge.errors import (
    DegenerateTower,
    FieldMismatch,
    InputError,
    InvariantViolation,
    NotATower,
    ParseError,
)
from ramforge.ramfilt import admissible_check

F2 = FieldSpec(2)
F3 = FieldSpec(3)

E21 = ExtFieldSpec(F2, 1)
E23 = ExtFieldSpec(F2, 3)
E31 = ExtFieldSpec(F3, 1)

# the benchmark's reference arithmetic, written without ramforge
from perfbench import oracle as O


def _random_ext(rng, ext, lo=-6, hi=2, maxterms=2):
    coeffs = []
    for _ in range(ext.p):
        terms = {}
        for _ in range(rng.randint(0, maxterms)):
            terms[rng.randint(lo, hi)] = ext.field.scalar(rng.randrange(1, ext.field.p))
        coeffs.append(LaurentPoly(ext.field, terms))
    return ExtElement(ext, coeffs)


# ----------------------------------------------------------------- valuation

def test_val_of_generators():
    for ext in (E21, E23, E31):
        assert ExtElement.y(ext).valuation == -ext.j
        assert ExtElement.x_pow(ext, 1).valuation == ext.p


def test_val_direct_formula():
    # x^-1 * y^2 at p=3, j=1: 3*(-1) - 1*2 = -5
    F = ExtElement(E31, [LaurentPoly.zero(F3), LaurentPoly.zero(F3),
                         LaurentPoly.x_pow(F3, -1)])
    assert F.valuation == -5
    assert ExtElement.zero(E31).valuation is INFINITY


def test_val_is_a_valuation():
    rng = random.Random(23)
    for ext in (E21, E31):
        for _ in range(40):
            F, G = _random_ext(rng, ext), _random_ext(rng, ext)
            if not F or not G:
                continue
            assert (F * G).valuation == F.valuation + G.valuation
            s = F + G
            if s:
                assert s.valuation >= min(F.valuation, G.valuation)
                if F.valuation != G.valuation:
                    assert s.valuation == min(F.valuation, G.valuation)


# -------------------------------------------------------------------- product

def test_defining_equation():
    # y * y^(p-1) = y^p = y + x^-j
    for ext in (E21, E23, E31):
        p = ext.p
        lhs = ExtElement.y(ext) * ExtElement.y(ext) ** (p - 1)
        rhs = ExtElement.y(ext) + ExtElement.x_pow(ext, -ext.j)
        assert lhs == rhs


def test_multiplicative_identity():
    rng = random.Random(29)
    one = ExtElement.x_pow(E31, 0)
    for _ in range(10):
        F = _random_ext(rng, E31)
        assert F * one == F


def test_product_single_rewrite_by_hand():
    # (y + x^-1) * y = y^2 + x^-1 y = (y + x^-1) + x^-1 y  at p=2, j=1
    F = ExtElement.y(E21) + ExtElement.x_pow(E21, -1)
    G = ExtElement.y(E21)
    expected = ExtElement(
        E21, [LaurentPoly.x_pow(F2, -1), parse_laurent(F2, "1 + x^-1")]
    )
    assert F * G == expected


def test_product_associative():
    rng = random.Random(31)
    for _ in range(15):
        F, G, H = (_random_ext(rng, E31, maxterms=1) for _ in range(3))
        assert (F * G) * H == F * (G * H)


ORACLE_EXTS = [ExtFieldSpec(FieldSpec(p, n), j)
               for p, n, js in [(2, 1, (1, 3)), (2, 2, (1, 5)), (3, 1, (1, 2)), (3, 2, (1, 4)),
                                (5, 1, (2, 3))] for j in js]


@st.composite
def oracle_operands(draw):
    """(ext, F, G) with a term of F at y-degree p - 1 and one of G at y-degree
    >= 1, so that F * G meets y^p = y + x^-j."""
    ext = draw(st.sampled_from(ORACLE_EXTS))
    field, p = ext.field, ext.p
    forms = st.integers(1, field.q - 1)

    def element(forced):
        rows = []
        for i in range(p):
            exps = draw(st.lists(st.integers(-6, 3), min_size=int(i == forced), max_size=3,
                                 unique=True))
            rows.append(LaurentPoly(field, {e: FieldElement(field, draw(forms)) for e in exps}))
        return ExtElement(ext, rows)

    return ext, element(p - 1), element(draw(st.integers(1, p - 1)))


def _oracle_product(Fo, j, A, B):
    """A * B in the oracle: the sum over b of (A y^b) times B's y^b coefficient,
    one Laurent term at a time."""
    out = [{} for _ in range(Fo.p)]
    for b_coeff in B:
        for e, c in b_coeff.items():
            out = O.x_add(Fo, out, [{e1 + e: Fo.mul(c1, c) for e1, c1 in a.items()} for a in A])
        A = O.x_times_y(Fo, j, A)
    return out


@settings(max_examples=150, deadline=None)
@given(oracle_operands(), st.integers(0, 12))
def test_tower_arithmetic_matches_the_oracle(case, k):
    ext, F, G = case
    Fo, j = O.field(ext.p, ext.field.n), ext.j
    A, B = (O.x_parse(Fo, format_ext(X)) for X in (F, G))
    assert format_ext(F * G) == O.x_text(Fo, _oracle_product(Fo, j, A, B))
    assert format_ext(F.pow_p()) == O.x_text(Fo, O.x_add(Fo, O.x_frob_minus_id(Fo, j, A), A))
    assert format_ext(ExtElement.y(ext) ** k) == O.x_text(Fo, O.y_power(Fo, j, k))


# ------------------------------------------------------------------ p-th power

def test_pow_p_of_y():
    for ext in (E21, E31):
        assert ExtElement.y(ext).pow_p() == ExtElement.y(ext) + ExtElement.x_pow(ext, -ext.j)


def test_pow_p_of_constant():
    c = F3.scalar(2)
    F = ExtElement(E31, [LaurentPoly.x_pow(F3, 0, c)])
    assert F.pow_p() == ExtElement(E31, [LaurentPoly.x_pow(F3, 0, c**3)])


def test_pow_p_monomial_by_hand():
    # (x^-1 y)^2 = x^-2 (y + x^-1) = x^-2 y + x^-3  at p=2, j=1
    F = ExtElement(E21, [LaurentPoly.zero(F2), LaurentPoly.x_pow(F2, -1)])
    expected = ExtElement(
        E21, [LaurentPoly.x_pow(F2, -3), LaurentPoly.x_pow(F2, -2)]
    )
    assert F.pow_p() == expected
    assert F.pow_p() == F * F


def test_pow_p_equals_iterated_product():
    rng = random.Random(37)
    for ext in (E21, E31):
        for _ in range(15):
            F = _random_ext(rng, ext, maxterms=2)
            acc = ExtElement.x_pow(ext, 0)
            for _ in range(ext.p):
                acc = acc * F
            assert F.pow_p() == acc


# ------------------------------------------------------------------ reduction

def test_reduce_prime_valuation_is_noop():
    F = ExtElement.y(E21) ** 3  # valuation -3, prime to 2
    red = ext_as_reduce(F)
    assert red.jump == 3
    assert red.reduced == F
    assert not red.substitution


def test_reduce_pure_pole_p2():
    red = ext_as_reduce(ExtElement.x_pow(E21, -5))
    assert red.jump == 9  # p*s - j*(p-1) = 10 - 1


def test_reduce_pure_pole_p3():
    red = ext_as_reduce(ExtElement.x_pow(E31, -2))
    assert red.jump == 4  # p*s - j*(p-1) = 6 - 2


def test_reduce_loop_trace_p3():
    # single step: h = y^2 kills the leading x^-2, leaving x^-1 y
    F = ExtElement.x_pow(E31, -2)
    red = ext_as_reduce(F)
    expected = ExtElement(E31, [LaurentPoly.zero(F3), LaurentPoly.x_pow(F3, -1)])
    assert red.reduced == expected
    assert red.substitution == ExtElement.y(E31) ** 2


def test_reduce_soundness_random():
    rng = random.Random(41)
    for ext in (E21, E31):
        for _ in range(30):
            F = _random_ext(rng, ext)
            red = ext_as_reduce(F)
            assert F - red.reduced == red.substitution.pow_p() - red.substitution
            if red.jump is not UNRAMIFIED:
                assert red.jump % ext.p != 0
                assert red.reduced.valuation == -red.jump


def test_reduce_split_layer():
    G = ExtElement.y(E21) + ExtElement.x_pow(E21, -1)
    F = G.pow_p() - G
    assert ext_as_reduce(F).jump is UNRAMIFIED


def _planted_tower():
    """(F, H) as text over E31: F = y^7 + H^p - H for H = x^-1 (1 + y + y^2),
    built by the oracle.  Its kills have y-degrees 2, 1 and 0, so two of
    them make binomial updates, and the reduction leaves y^7 with h = H."""
    Fo = O.field(3, 1)
    H = O.x_parse(Fo, "x^-1 ; x^-1 ; x^-1")
    return O.x_text(Fo, O.x_add(Fo, O.y_power(Fo, 1, 7), O.x_frob_minus_id(Fo, 1, H))), H


def test_a_cold_binomial_table_still_reduces_the_tower():
    # the rows are a dict that fills on first use, so a loop that tested the
    # table instead of the ring would skip every binomial update on a cold one
    F, H = _planted_tower()
    Fo = O.field(3, 1)
    algebra._binomial_rows.cache_clear()
    assert algebra._binomial_rows.cache_info().currsize == 0
    red = ext_as_reduce(parse_ext(E31, F))
    assert red.jump == 7
    assert format_ext(red.substitution) == O.x_text(Fo, H)
    assert format_ext(red.reduced) == O.x_text(Fo, O.y_power(Fo, 1, 7))


def test_certificate_catches_one_dropped_binomial_update(monkeypatch):
    rows = algebra._binomial_rows(3)

    class DropOne(dict):
        """The true rows, but the first nonempty row read loses its last pair."""

        dropped = False

        def __getitem__(self, beta):
            row = rows[beta]
            if row and not self.dropped:
                self.dropped = True
                return row[:-1]
            return row

    drop = DropOne()
    monkeypatch.setattr(aschreier, "_binomial_rows", lambda p: drop)
    with pytest.raises(InvariantViolation,
                       match="reduction substitution does not account for the change"):
        ext_as_reduce(parse_ext(E31, _planted_tower()[0]))
    assert drop.dropped


# ---------------------------------------------------------------- tower jumps

def test_tower_jumps_minimal():
    assert tower_jumps(ExtElement.y(E21) ** 3) == (1, 2)
    assert tower_jumps(minimal_tower_element(E31)) == (1, 3)


def test_tower_jumps_deformed():
    F = ExtElement.y(E21) ** 3 + ExtElement.x_pow(E21, -5)
    assert ext_as_reduce(F).jump == 9  # max(ps - j(p-1), j2) = max(9, 3)
    assert tower_jumps(F) == (1, 5)


def test_tower_jumps_pure_pole():
    assert tower_jumps(ExtElement.x_pow(E21, -5)) == (1, 5)


def test_tower_jumps_cross_checks_lower_increment():
    # j_e + p^(e-a) m (s/m - sigma) with j_e=3, sigma=2, s=5 gives 9
    from ramforge.genus import last_lower_jump_increment

    F = ExtElement.y(E21) ** 3 + ExtElement.x_pow(E21, -5)
    assert ext_as_reduce(F).jump == last_lower_jump_increment(2, 3, 2, 1, 1, 2, 5)


def test_tower_rejects_unramified():
    G = ExtElement.y(E21)
    F = G.pow_p() - G
    with pytest.raises(DegenerateTower):
        tower_jumps(F)


def test_tower_rejects_jump_below_first():
    # reduces to jump 1 below j = 3
    F = ExtElement.x_pow(E23, -1)
    assert ext_as_reduce(F).jump == 1
    with pytest.raises(DegenerateTower):
        tower_jumps(F)


def test_tower_rejects_equal_jumps():
    with pytest.raises(NotATower):
        tower_jumps(ExtElement.y(E21))


def test_tower_rejects_incongruent_jump():
    # y^2 at p=3 has jump 2; 2 - 1 is not divisible by 3
    with pytest.raises(NotATower):
        tower_jumps(ExtElement.y(E31) ** 2)


def test_tower_rejects_inadmissible_pair():
    # x^-3 y at p=2, j=1 has jump 7, giving the even upper jump 4
    F = ExtElement(E21, [LaurentPoly.zero(F2), LaurentPoly.x_pow(F2, -3)])
    assert ext_as_reduce(F).jump == 7
    with pytest.raises(NotATower):
        tower_jumps(F)


def test_tower_outputs_always_admissible():
    rng = random.Random(43)
    produced = 0
    for ext in (E21, E23, E31):
        for _ in range(60):
            F = _random_ext(rng, ext, lo=-8)
            try:
                jumps = tower_jumps(F)
            except (DegenerateTower, NotATower):
                continue
            assert admissible_check(list(jumps), ext.p)
            produced += 1
    assert produced > 10


def test_econd_law_slice():
    # J = max(ps - j(p-1), (p^2-p+1) j) on a small parameter slice
    for p, spec in ((2, F2), (3, F3)):
        for j in (1, 2, 3):
            if j % p == 0:
                continue
            ext = ExtFieldSpec(spec, j)
            f_min = minimal_tower_element(ext)
            assert f_min.valuation == -(p * p - p + 1) * j
            for s in range(j + 1, 16):
                if s % p == 0:
                    continue
                F = f_min + ExtElement.x_pow(ext, -s)
                assert ext_as_reduce(F).jump == max(p * s - j * (p - 1), (p * p - p + 1) * j)
                assert tower_jumps(F) == (j, max(s, p * j))


def test_minimal_tower_element_by_frobenius_equals_the_power():
    for p in (2, 3, 5, 7, 11, 13):
        for j in (1, 2, 3):
            if j % p:
                ext = ExtFieldSpec(FieldSpec(p), j)
                assert minimal_tower_element(ext) == ExtElement.y(ext) ** (p * p - p + 1)


# ------------------------------------------------------------ canonical form

CANONICAL_EXTS = [E21, E23, E31, ExtFieldSpec(FieldSpec(2, 3), 3),
                  ExtFieldSpec(FieldSpec(5), 2), ExtFieldSpec(FieldSpec(3, 2), 1)]


@st.composite
def ext_operands(draw):
    ext = draw(st.sampled_from(CANONICAL_EXTS))
    field = ext.field

    def element():
        rows = []
        for _ in range(ext.p):
            exps = draw(st.lists(st.integers(-6, 2), max_size=3, unique=True))
            coords = st.lists(st.integers(0, field.p - 1), min_size=field.n, max_size=field.n)
            rows.append(LaurentPoly(field, {e: field.element(draw(coords)) for e in exps}))
        return ExtElement(ext, rows)

    F, G = element(), element()
    # a shared part makes + and - cancel whole terms
    return ext, F, draw(st.sampled_from([G, G + F, G - F, -F]))


def _assert_canonical(r, ext):
    """r stores int weights and nonzero int forms of ext.field only, every
    public key is (int e, i) with 0 <= i < p and every coefficient a nonzero
    element of ext.field, so the checked constructor rebuilds r."""
    assert r.ext == ext
    for w, v in r._ints.items():
        assert type(w) is int and type(v) is int and 0 < v < ext.field.q
    for (e, i), c in r.terms.items():
        assert type(e) is int and type(i) is int and 0 <= i < ext.p
        assert isinstance(c, FieldElement) and c.spec == ext.field and c
    assert r == ExtElement(ext, r.coeffs)


@settings(max_examples=150, deadline=None)
@given(ext_operands())
def test_internal_ext_results_are_canonical(case):
    ext, F, G = case
    results = [F + G, F - G, G - G, -F, F * G, G * F, F * F, F.pow_p(), G.pow_p() - G,
               minimal_tower_element(ext), parse_ext(ext, format_ext(F))]
    for H in (F, F + (G.pow_p() - G)):
        red = ext_as_reduce(H)
        results += [red.reduced, red.substitution]
    for r in results:
        _assert_canonical(r, ext)


# ----------------------------------------------------------------- text form

def test_parse_and_format_ext():
    F = parse_ext(E31, "x^-5 ; 0 ; x^-1")
    assert F.coeffs[0] == LaurentPoly.x_pow(F3, -5)
    assert F.coeffs[2] == LaurentPoly.x_pow(F3, -1)
    assert format_ext(F) == "x^-5 ; 0 ; x^-1"
    assert parse_ext(E31, format_ext(F)) == F


def test_terms_and_coeffs_are_fresh():
    F = parse_ext(E31, "x^-5 ; 2*x^-2 ; x^-1")
    terms, coeffs = F.terms, F.coeffs
    assert terms == {(-5, 0): F3.one, (-2, 1): F3.scalar(2), (-1, 2): F3.one}
    assert terms is not F.terms
    terms.clear()
    coeffs[1]._ints.clear()
    assert F == parse_ext(E31, "x^-5 ; 2*x^-2 ; x^-1") and len(F.terms) == 3


def test_parse_ext_pads_missing_coefficients():
    assert parse_ext(E21, "x^-5") == ExtElement.x_pow(E21, -5)


def test_ext_element_pads_missing_coefficients():
    a = parse_laurent(F3, "x^-2")
    zero = LaurentPoly.zero(F3)
    assert ExtElement(E31, [a]) == ExtElement(E31, [a, zero, zero])
    assert ExtElement(E31, []) == ExtElement.zero(E31)
    with pytest.raises(InputError, match="^more than 3 coefficients$"):
        ExtElement(E31, [a, zero, zero, zero])


def test_parse_ext_too_many_segments():
    with pytest.raises(ParseError):
        parse_ext(E21, "1 ; 1 ; 1")


def test_ext_field_mismatch():
    with pytest.raises(FieldMismatch):
        ExtElement.y(E21) + ExtElement.y(ExtFieldSpec(F2, 3))
    with pytest.raises(FieldMismatch, match="^F_2 vs F_3$"):
        ExtElement(E21, [LaurentPoly.zero(F2), LaurentPoly.x_pow(F3, -1)])


@pytest.mark.parametrize("coeffs, i", [([1, 0], 0), (["x^-1", 0], 0),
                                       ([LaurentPoly.zero(F2), 1], 1)])
def test_ext_element_rejects_a_coefficient_that_is_not_a_laurent_poly(coeffs, i):
    # these used to raise AttributeError on the missing .spec
    with pytest.raises(TypeError, match=rf"^coefficient of y\^{i}: expected LaurentPoly"):
        ExtElement(E21, coeffs)


def test_negative_powers_name_the_ring():
    with pytest.raises(InputError, match="^negative powers of tower elements are not defined$"):
        ExtElement.y(E21) ** -1
    with pytest.raises(InputError, match="^negative powers of Laurent polynomials are not"):
        LaurentPoly.x_pow(F2, 1) ** -1


def test_ext_spec_rejects_bad_jump():
    with pytest.raises(ValueError):
        ExtFieldSpec(F2, 4)
    with pytest.raises(ValueError):
        ExtFieldSpec(F3, 0)
