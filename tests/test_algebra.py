"""Field and Laurent polynomial arithmetic."""

import random
import re

import pytest
from hypothesis import given, strategies as st

from ramforge.algebra import (
    INFINITY,
    FieldElement,
    FieldSpec,
    LaurentPoly,
    _frobenius_matrices,
    artin_schreier,
    canonical_modulus,
    format_laurent,
    parse_laurent,
)
from ramforge.aschreier import as_reduce
from ramforge.errors import FieldMismatch, ParseError

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F4 = FieldSpec(2, 2)
F5 = FieldSpec(5)


def L(spec, text):
    return parse_laurent(spec, text)


def exactly(message):
    """A `pytest.raises` pattern that matches exactly this message."""
    return "^" + re.escape(message) + "$"


# ---------------------------------------------------------------- field spec

def test_canonical_modulus_f4():
    # t^2 + t + 1 is the only irreducible monic quadratic over F_2
    assert F4.modulus == (1, 1, 1)


def test_canonical_modulus_f8_f9():
    # brute re-derivation: first tuple (constant term first) with no root
    # and no monic divisor of degree <= deg/2
    assert canonical_modulus(2, 3) == (1, 0, 1, 1)  # 1 + t^2 + t^3
    assert canonical_modulus(3, 2) == (1, 0, 1)  # 1 + t^2


def test_canonical_modulus_is_least_irreducible():
    import itertools

    def divides(d, f, p):
        # naive polynomial division check over F_p, low-degree-first tuples
        f = list(f)
        dn = len(d) - 1
        for k in range(len(f) - 1, dn - 1, -1):
            c = f[k]
            if c:
                for i, dc in enumerate(d):
                    f[k - dn + i] = (f[k - dn + i] - c * dc) % p
        return not any(f[: dn])

    p, n = 3, 2
    got = canonical_modulus(p, n)
    for tail in itertools.product(range(p), repeat=n):
        cand = tail + (1,)
        reducible = any(
            divides(t2 + (1,), cand, p)
            for d in range(1, n // 2 + 1)
            for t2 in itertools.product(range(p), repeat=d)
        )
        if not reducible:
            assert cand == got
            break
        assert cand != got


def test_field_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(2, 0)


# ----------------------------------------------------------------- pth roots

def test_pth_root_identity_on_prime_field():
    assert F3.scalar(2).pth_root() == F3.scalar(2)
    assert F2.scalar(1).pth_root() == F2.scalar(1)


def test_pth_root_of_generator_f4():
    # oracle: exhaustive search for the square root of omega in F_4
    omega = F4.element([0, 1])
    roots = [a for a in F4.elements() if a * a == omega]
    assert roots == [omega.pth_root()]
    # frozen: omega^2 = omega + 1 has coordinates (1, 1)
    assert omega.pth_root().coords == (1, 1)


@pytest.mark.parametrize("spec", [F2, F3, F4, FieldSpec(2, 3), FieldSpec(3, 2), FieldSpec(5, 2)])
def test_pth_root_bijective_exhaustive(spec):
    p = spec.p
    for a in spec.elements():
        assert a.pth_root() ** p == a
        assert (a**p).pth_root() == a


def _oracle_root(a):
    # p-th root by the power chain: a^(p^(n-1)) is the inverse of a -> a^p
    return a ** (a.spec.p ** (a.spec.n - 1))


@pytest.mark.parametrize("pn", [(5, 2), (2, 8), (3, 5)])
def test_pth_root_matches_power_chain_exhaustive(pn):
    spec = FieldSpec(*pn)
    for a in spec.elements():
        assert a.pth_root() == _oracle_root(a)
        assert a.pth_root() ** spec.p == a
        assert a.frobenius() == a**spec.p


def test_pth_root_matches_power_chain_f2_16():
    spec = FieldSpec(2, 16)
    rng = random.Random(16)
    for _ in range(500):
        a = spec.element([rng.randrange(2) for _ in range(16)])
        assert a.pth_root() == _oracle_root(a)
        assert a.pth_root() ** 2 == a
        assert a.frobenius() == a * a


@pytest.mark.parametrize(
    "pn", [(2, 1), (3, 1), (5, 1), (7, 1), (5, 2), (2, 8), (3, 5), (2, 16)]
)
def test_inverse_frobenius_matrix_inverts_frobenius(pn):
    spec = FieldSpec(*pn)
    p, n = pn
    basis = [spec.element([int(i == k) for i in range(n)]) for k in range(n)]
    # column k of the Frobenius matrix: coordinates of (x^k)^p, by repeated products
    cols = [(b**p).coords for b in basis]
    frob = [[col[r] for col in cols] for r in range(n)]
    matrix, inv = _frobenius_matrices(p, n)
    product = [
        [sum(inv[r][i] * frob[i][c] for i in range(n)) % p for c in range(n)]
        for r in range(n)
    ]
    assert product == [[int(r == c) for c in range(n)] for r in range(n)]
    assert [list(row) for row in matrix] == frob


def test_field_inverse_and_axioms_f9():
    F9 = FieldSpec(3, 2)
    elems = list(F9.elements())
    for a in elems:
        if a:
            assert a * a.inverse() == F9.one
    a, b, c = elems[4], elems[7], elems[5]
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)


def test_elements_compare_only_with_elements():
    # an int is not read as its residue, so == agrees with the hash
    one = F5.one
    assert one != 1 and one != 6 and not one == 6
    assert 1 not in {one} and one not in {1, 6}
    table = {one: "one"}
    assert table.get(1) is None and table[F5.scalar(6)] == "one"
    assert {F5.scalar(6), F5.element([11]), one} == {one}


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        F2.one + F3.one


# ---------------------------------------------------------------- valuations

def test_valuation_examples():
    assert L(F2, "x^-3 + x").valuation == -3
    assert LaurentPoly.zero(F2).valuation is INFINITY
    assert L(FieldSpec(7), "5*x^2").valuation == 2


def test_infinity_ordering():
    assert INFINITY > 10**9
    assert not INFINITY < -5
    assert INFINITY == INFINITY
    assert INFINITY >= INFINITY


def test_characteristic_two_cancellation():
    assert not L(F2, "x^-3") + L(F2, "x^-3")
    assert L(F2, "x^-1") * L(F2, "x^-1") == L(F2, "x^-2")


def test_a_field_element_scales_a_polynomial_from_either_side():
    # c * f once raised: FieldElement.__mul__ read f as an integer
    spec = FieldSpec(2, 2)
    c, f = spec.element([0, 1]), L(spec, "x^-3 + [1,1]*x^-1 + 1")
    assert c * f == f * c == f.scale(c)
    with pytest.raises(TypeError):
        c + f


def test_frobenius_freshmans_dream():
    f = L(F2, "x^-1 + x^-2")
    assert f.frobenius() == L(F2, "x^-2 + x^-4")


@st.composite
def laurents(draw, spec, min_exp=-10, max_exp=6):
    exps = draw(st.lists(st.integers(min_exp, max_exp), max_size=5, unique=True))
    coeffs = [draw(st.integers(0, spec.q - 1)) for _ in exps]
    terms = {}
    for e, c in zip(exps, coeffs):
        coords = []
        for _ in range(spec.n):
            coords.append(c % spec.p)
            c //= spec.p
        terms[e] = spec.element(coords)
    return LaurentPoly(spec, terms)


@given(laurents(F3), laurents(F3))
def test_valuation_multiplicative(f, g):
    if not f or not g:
        assert not f * g
    else:
        assert (f * g).valuation == f.valuation + g.valuation


@given(laurents(F4), laurents(F4))
def test_valuation_ultrametric(f, g):
    s = f + g
    if not s:
        return
    assert s.valuation >= min(f.valuation, g.valuation)
    if f.valuation != g.valuation:
        assert s.valuation == min(f.valuation, g.valuation)


@given(laurents(F2), laurents(F2))
def test_frobenius_is_additive(f, g):
    assert (f + g).frobenius() == f.frobenius() + g.frobenius()


@given(laurents(F3))
def test_artin_schreier_operator(h):
    assert artin_schreier(h) == h.frobenius() - h


# ---------------------------------------------- public edge, trusted results

def test_public_constructor_checks_caller_input():
    F8 = FieldSpec(2, 3)
    f = LaurentPoly(F8, {-3: 1, -2: 2, -1: F8.zero, 4: F8.element([0, 1])})
    assert f.terms == {-3: F8.one, 4: F8.element([0, 1])}  # 2 = 0 in F_8
    assert LaurentPoly(F3, {-1: 4, 0: 3}).terms == {-1: F3.one}
    with pytest.raises(FieldMismatch):
        LaurentPoly(F3, {-1: F2.one})
    with pytest.raises(FieldMismatch):
        LaurentPoly(F8, {-1: FieldSpec(2, 2).one})


def test_ring_operand_check_names_the_type_not_the_value():
    # the repr of an int past str()'s digit limit would raise a plain ValueError
    huge = 2 * int("9" * 4299 + "7")
    for other in (huge, 2.5, F3.one):
        with pytest.raises(TypeError, match=f"^expected LaurentPoly, got {type(other).__name__}$"):
            LaurentPoly(F2, {-1: 1}) + other


def test_scalar_rejects_a_float():
    with pytest.raises(TypeError):
        F3.scalar(2.0)


def test_element_rejects_float_coordinates():
    with pytest.raises(TypeError):
        FieldSpec(3, 2).element([1.7, 2])


def test_constructor_rejects_float_exponents():
    with pytest.raises(TypeError):
        LaurentPoly(F3, {1.5: 1, -2.9: 2})


def test_constructor_rejects_string_exponents():
    with pytest.raises(TypeError):
        LaurentPoly(F3, {"-4": 1})


def test_constructor_rejects_float_coefficients():
    with pytest.raises(TypeError):
        LaurentPoly(F3, {1: 2.0})


@pytest.mark.parametrize("terms", [{}, {-1: 1}], ids=["empty", "one-term"])
def test_constructor_rejects_a_spec_that_is_no_field(terms):
    # LaurentPoly(3, {}) used to be accepted and print as <0 over 3>
    with pytest.raises(TypeError, match=exactly("spec must be a FieldSpec, got int")):
        LaurentPoly(3, terms)


@pytest.mark.parametrize("spec,v", [(F3, 7), (FieldSpec(2, 8), 300), (F3, -1)],
                         ids=["7-in-F_3", "300-in-F_2^8", "negative"])
def test_element_constructor_rejects_int_forms_out_of_range(spec, v):
    # 7 used to print as "7 in F_3" and 300 as a 9-digit vector over F_2^8
    message = f"int form of an element of {spec} must lie in 0..{spec.q - 1}, got {v}"
    with pytest.raises(ValueError, match=exactly(message)):
        FieldElement(spec, v)
    assert FieldElement(spec, spec.q - 1) == spec.element([spec.p - 1] * spec.n)


def test_element_constructor_rejects_a_float():
    with pytest.raises(TypeError):
        FieldElement(F3, 2.0)


def test_an_unchecked_element_cannot_reach_a_polynomial():
    # LaurentPoly(F3, {-3: FieldElement(F3, 7)}) used to format as 7*x^-3
    with pytest.raises(ValueError):
        LaurentPoly(F3, {-3: FieldElement(F3, 7)})


def test_terms_is_a_fresh_dict():
    f = L(F3, "x^-7 + 2*x^-3")
    terms = f.terms
    assert terms == {-7: F3.one, -3: F3.scalar(2)} and terms is not f.terms
    terms[5] = F3.one
    del terms[-7]
    assert f == L(F3, "x^-7 + 2*x^-3") and f.terms == {-7: F3.one, -3: F3.scalar(2)}


def _assert_canonical(r, spec):
    """r stores int exponents and nonzero int forms of spec only, its terms
    are nonzero elements of spec, and the public constructor rebuilds it
    unchanged."""
    assert r.spec == spec
    for e, v in r._ints.items():
        assert type(e) is int and type(v) is int and 0 < v < spec.q
    for e, c in r.terms.items():
        assert type(e) is int
        assert isinstance(c, FieldElement) and c.spec == spec and c
    assert r == LaurentPoly(spec, dict(r.terms))


@st.composite
def operand_pairs(draw):
    spec = draw(st.sampled_from([F2, F3, FieldSpec(2, 3), FieldSpec(5, 2)]))
    f = draw(laurents(spec, -6, 2))
    g = draw(laurents(spec, -6, 2))
    # a shared part makes + and - cancel whole coefficients
    g = draw(st.sampled_from([g, g + f, g - f, -f]))
    c = draw(st.sampled_from([0, spec.p, 1, -1, 2]))
    return spec, f, g, c


@given(operand_pairs())
def test_internal_results_are_canonical(case):
    spec, f, g, c = case
    red = as_reduce(f)
    results = [f + g, f - g, g - g, f + f, -f, f * g,
               f.scale(c), f.scale(spec.scalar(c)), f.frobenius(),
               artin_schreier(f), red.f_reduced, red.substitution,
               parse_laurent(spec, format_laurent(f))]
    for r in results:
        _assert_canonical(r, spec)


# ------------------------------------------------------------- text grammar

def test_parse_and_format_roundtrip():
    f = L(F3, "x^-7 + 2*x^-3 + x^2")
    assert format_laurent(f) == "x^-7 + 2*x^-3 + x^2"
    assert L(F3, format_laurent(f)) == f


def test_parse_whitespace_insensitive():
    assert L(F3, " x ^-7+ 2 * x^ -3 +x^2 ") == L(F3, "x^-7+2*x^-3+x^2")


@pytest.mark.parametrize("space", ["\u3000", "\x1c", "\u2028"])
def test_parse_ignores_unicode_whitespace(space):
    # str.split() and the regex \s agree on every code point; these three
    # are whitespace to both, so they vanish like ASCII spaces
    text = space.join(["x^-7", "+", "2*x^-3", "+x^2"])
    assert L(F3, text) == L(F3, "x^-7+2*x^-3+x^2")


def test_parse_rejects_zero_width_space():
    # U+200B is a format character, not whitespace: it stays and is no term
    with pytest.raises(ParseError, match="bad term"):
        L(F3, "x^-7 +\u200b2*x^-3")


def test_parse_extension_coefficients():
    f = L(F4, "[0,1]*x^-3 + [1,1]")
    assert f[-3] == F4.element([0, 1])
    assert f[0] == F4.element([1, 1])
    assert L(F4, format_laurent(f)) == f


def test_parse_bare_and_signed_terms():
    assert L(F3, "x") == LaurentPoly.x_pow(F3, 1)
    assert L(F3, "5") == LaurentPoly.x_pow(F3, 0, 2)
    assert L(F3, "-x^-1") == LaurentPoly.x_pow(F3, -1, 2)
    assert not L(F3, "x^-1 - x^-1")
    assert not L(F3, "0")


def test_parse_duplicate_exponents_accumulate():
    assert not L(F3, "x^-1 + 2*x^-1")


def test_parse_errors():
    for bad in ["", "x^", "y^2", "2*", "[1,2", "x^1.5", "[0,1,1]*x"]:
        with pytest.raises(ParseError):
            L(F4, bad)


def test_parse_rejects_empty_vector_component():
    with pytest.raises(ParseError, match=exactly("bad term '[1,,1]*x^-3' in '[1,,1]*x^-3'")):
        L(FieldSpec(2, 3), "[1,,1]*x^-3")


def test_parse_rejects_doubled_plus():
    with pytest.raises(ParseError, match=exactly("bad term '++x' in 'x^-3 ++ x'")):
        L(F3, "x^-3 ++ x")


def test_parse_rejects_sign_after_sign():
    with pytest.raises(ParseError, match=exactly("bad term '+-x' in 'x^-3 + - x'")):
        L(F3, "x^-3 + - x")


@pytest.mark.parametrize(
    "spec,text,message",
    [
        (FieldSpec(2, 3), "[1_1,0]*x^-3", "bad term '[1_1,0]*x^-3' in '[1_1,0]*x^-3'"),
        (FieldSpec(2, 3), "[+1,0,0]*x^-3", "bad term '[+1,0,0]*x^-3' in '[+1,0,0]*x^-3'"),
        (FieldSpec(2, 3), "[\u0661,0]*x^-3", "bad term '[\u0661,0]*x^-3' in '[\u0661,0]*x^-3'"),
        (F5, "\u0663*x^-3", "bad term '\u0663*x^-3' in '\u0663*x^-3'"),
        (F5, "x^-\u0663", "bad term '^-\u0663' in 'x^-\u0663'"),
    ],
    ids=["underscore-component", "plus-component", "unicode-component",
         "unicode-scalar", "unicode-exponent"],
)
def test_parse_accepts_only_ascii_decimal_digits(spec, text, message):
    with pytest.raises(ParseError, match=exactly(message)):
        L(spec, text)


def test_format_zero():
    assert format_laurent(LaurentPoly.zero(F2)) == "0"
