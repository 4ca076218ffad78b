"""Field construction against reference oracles.

The reference below is the earlier construction: the canonical modulus is
the lexicographically least monic irreducible found by trial division
against every monic polynomial of degree up to n/2, and column k of the
Frobenius matrix is x^(pk) reduced by long division.  The library uses
Ben-Or's test and power-mod; it must return the same moduli and the same
matrices.  sympy's `galoistools` is the independent oracle for the
irreducibility predicate and for every element operation, in fields drawn
from each of the four arithmetic kernels.
"""

import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st
from sympy import isprime, primerange
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (
    gf_add,
    gf_gcdex,
    gf_irreducible_p,
    gf_mul,
    gf_pow_mod,
    gf_rem,
    gf_sub,
)

from ramforge.algebra import (
    ZECH_MAX_Q,
    FieldSpec,
    _frobenius_matrices,
    _gcdex,
    _is_irreducible,
    _is_prime,
    _kernels,
    canonical_modulus,
    require_prime,
)


def ref_poly_mod(num, den, p):
    num = [c % p for c in num]
    dn = len(den) - 1
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k]
        if c:
            for i, d in enumerate(den):
                num[k - dn + i] = (num[k - dn + i] - c * d) % p
    rem = num[:dn]
    rem += [0] * (dn - len(rem))
    return rem


def ref_is_irreducible(poly, p):
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not any(ref_poly_mod(list(poly), tail + (1,), p)):
                return False
    return True


def ref_canonical_modulus(p, n):
    for tail in itertools.product(range(p), repeat=n):
        cand = tail + (1,)
        if ref_is_irreducible(cand, p):
            return cand
    raise ValueError(f"no irreducible polynomial of degree {n} over F_{p}")


def ref_frobenius(p, n):
    modulus = canonical_modulus(p, n)
    cols = [ref_poly_mod([0] * (p * k) + [1], modulus, p) for k in range(n)]
    return tuple(tuple(col[r] for col in cols) for r in range(n))


def to_sympy(coeffs):
    """Lowest-degree-first coefficients to a sympy dense list (highest first)."""
    out = [int(c) for c in reversed(coeffs)]
    while out and not out[0]:
        out.pop(0)
    return ZZ.map(out)


def from_sympy(poly, n):
    out = [int(c) for c in reversed(poly)]
    return tuple(out) + (0,) * (n - len(out))


# Every field of size at most 2^16 except the prime fields with p > 2^12:
# a prime field's modulus is x at any p, and the reference would spend
# seconds building range(p) for each of those 5,978 primes.
SMALL_FIELDS = [
    (p, n) for p in primerange(2, 2**12) for n in range(1, 17) if p**n <= 2**16
]
# the eight fields of the `reduce` benchmark deck
REDUCE_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (5, 2), (2, 8), (3, 5), (2, 16)]


# ------------------------------------------------------------------ moduli

def test_moduli_match_trial_division():
    assert len(SMALL_FIELDS) == 564 + 93  # the prime fields, then n >= 2
    for p, n in SMALL_FIELDS:
        assert canonical_modulus(p, n) == ref_canonical_modulus(p, n), (p, n)


@pytest.mark.parametrize("p,n", [(7, 9), (2, 64), (3, 40), (61, 2), (2, 16)])
def test_large_fields_build_quickly(p, n):
    canonical_modulus.cache_clear()
    _frobenius_matrices.cache_clear()
    _kernels.cache_clear()
    start = time.perf_counter()
    spec = FieldSpec(p, n)
    assert time.perf_counter() - start < 2.0
    assert gf_irreducible_p(to_sympy(spec.modulus), p, ZZ)


@pytest.mark.parametrize(
    "p,n", [(2, 65), (3, 41), (2**32 + 15, 2), (2, 10**18), (2**61 - 1, 2)]
)
def test_field_size_is_bounded(p, n):
    with pytest.raises(ValueError, match=r"p\^n <= 2\^64"):
        FieldSpec(p, n)


def test_largest_fields_are_accepted():
    assert FieldSpec(2**64 - 59).modulus == (0, 1)
    assert FieldSpec(2**32 - 5, 2).modulus == (1, 0, 1)


@pytest.mark.parametrize("p,n", REDUCE_FIELDS + [(251, 8)])
def test_frobenius_matrix_matches_long_division(p, n):
    assert _frobenius_matrices(p, n)[0] == ref_frobenius(p, n)


# ------------------------------------------------------- against galoistools

monic = st.sampled_from([2, 3, 5, 7]).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.integers(1, 12).flatmap(
            lambda d: st.lists(st.integers(0, p - 1), min_size=d, max_size=d)
        ),
    )
)


@settings(max_examples=400, deadline=None)
@given(monic)
def test_ben_or_matches_galoistools(case):
    p, tail = case
    poly = tuple(tail) + (1,)
    assert _is_irreducible(poly, p) == gf_irreducible_p(to_sympy(poly), p, ZZ)


@settings(max_examples=300, deadline=None)
@given(monic, st.lists(st.integers(0, 6), max_size=14))
def test_gcdex_matches_galoistools(case, a):
    p, tail = case
    f = tuple(tail) + (1,)
    a = [c % p for c in a]
    g, s = _gcdex(a, f, p)
    F = to_sympy(f)
    _, _, h = gf_gcdex(to_sympy(a), F, p, ZZ)
    assert to_sympy(g) == h
    assert gf_rem(gf_mul(to_sympy(s), to_sympy(a), p, ZZ), F, p, ZZ) == gf_rem(h, F, p, ZZ)


fields = st.sampled_from([2, 3, 5, 7]).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(1, 12))
)


@settings(max_examples=300, deadline=None)
@given(fields, st.data())
def test_inverse_matches_galoistools(pn, data):
    p, n = pn
    spec = FieldSpec(p, n)
    coords = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    if not any(coords):
        return
    s, _, h = gf_gcdex(to_sympy(coords), to_sympy(spec.modulus), p, ZZ)
    assert h == [1]
    want = from_sympy(gf_rem(s, to_sympy(spec.modulus), p, ZZ), n)
    assert spec.element(coords).inverse().coords == want


@pytest.mark.parametrize("p,n", [(2, 8), (3, 5), (5, 3)])
def test_inverse_exhaustive(p, n):
    spec = FieldSpec(p, n)
    one = spec.one
    for a in spec.elements():
        if a:
            assert a * a.inverse() == one
            assert a**-2 * a * a == one


def test_inverse_seeded_f2_16():
    spec = FieldSpec(2, 16)
    rng = random.Random(16)
    for _ in range(500):
        a = spec.element([rng.randrange(2) for _ in range(16)])
        if a:
            assert a * a.inverse() == spec.one


# One or more fields from each kernel: mod p (n = 1), carry-less (p = 2),
# Zech tables (odd p, q <= ZECH_MAX_Q) and F_p[x] on the digits (above it).
TABLED, UNTABLED = (61, 2), (67, 2)  # the largest tabled odd-p field, the next one up
ORACLE_FIELDS = [
    (7, 1), (2**61 - 1, 1), (2**64 - 59, 1),
    (2, 2), (2, 8), (2, 16), (2, 64),
    (5, 2), (3, 5), TABLED,
    UNTABLED, (3, 40),
]


def test_oracle_fields_straddle_the_table_threshold():
    odd_extensions = [p**n for p in primerange(3, 70) for n in range(2, 9)]
    assert max(q for q in odd_extensions if q <= ZECH_MAX_Q) == TABLED[0] ** TABLED[1]
    assert min(q for q in odd_extensions if q > ZECH_MAX_Q) == UNTABLED[0] ** UNTABLED[1]


def _element_case(pn):
    p, n = pn
    coords = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    return st.tuples(
        st.just(pn), coords, coords, st.integers(-(2**70), 2**70), st.integers(-9, 9)
    )


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ORACLE_FIELDS).flatmap(_element_case))
def test_element_ops_match_galoistools(case):
    (p, n), a, b, c, k = case
    spec = FieldSpec(p, n)
    f = to_sympy(spec.modulus)
    A, B, C = to_sympy(a), to_sympy(b), to_sympy([c % p])

    def want(poly):
        return from_sympy(gf_rem(poly, f, p, ZZ), n)

    x, y = spec.element(a), spec.element(b)
    assert x.coords == tuple(a)
    assert str(x) == (str(a[0]) if n == 1 else "[" + ",".join(map(str, a)) + "]")
    assert (x + y).coords == want(gf_add(A, B, p, ZZ))
    assert (x - y).coords == want(gf_sub(A, B, p, ZZ))
    assert (-x).coords == want(gf_sub([], A, p, ZZ))
    assert (c - x).coords == want(gf_sub(C, A, p, ZZ))
    assert (x * y).coords == want(gf_mul(A, B, p, ZZ))
    assert (x * c).coords == (c * x).coords == want(gf_mul(A, C, p, ZZ))
    assert x.frobenius().coords == want(gf_pow_mod(A, p, f, p, ZZ))
    # Frobenius is a bijection, so the p-th root is the one r with r^p = x
    assert want(gf_pow_mod(to_sympy(x.pth_root().coords), p, f, p, ZZ)) == tuple(a)
    if not any(a):
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    s, _, _ = gf_gcdex(A, f, p, ZZ)
    assert x.inverse().coords == want(s)
    base = s if k < 0 else A
    assert (x**k).coords == want(gf_pow_mod(base, abs(k), f, p, ZZ))


@pytest.mark.parametrize("pn", ORACLE_FIELDS)
def test_equal_elements_hash_equal(pn):
    spec = FieldSpec(*pn)
    p = spec.p
    for c in (0, 1, p - 1, p + 2, -3):
        same = [
            spec.scalar(c),
            spec.element([c]),
            spec.one * c,
            spec.zero + c,
            spec.one - (1 - c),
            FieldSpec(*pn).scalar(c),
        ]
        assert len({hash(e) for e in same}) == 1
        assert all(e == same[0] for e in same)
    x = spec.element([1] * spec.n)
    y = x * x + x
    assert y - x * x == x and hash(y - x * x) == hash(x)


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        FieldSpec(3, 2).zero.inverse()


# ------------------------------------------------------------------ primes

STRONG_PSEUDOPRIMES = [
    2047,  # to base 2
    1373653,  # to bases 2, 3
    3215031751,  # to bases 2, 3, 5, 7
    3825123056546413051,  # to bases 2 .. 23
]


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES + [0, 1, 4, 561, 2**32 + 1, 2**61 + 1])
def test_composites_are_rejected(n):
    assert not _is_prime(n)
    with pytest.raises(ValueError, match="must be prime"):
        require_prime(n)


@pytest.mark.parametrize("p", [2, 3, 37, 41, 65521, 2**31 - 1, 2**61 - 1, 2**64 - 59])
def test_primes_are_accepted(p):
    start = time.perf_counter()
    require_prime(p)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("p", [2**64, 2**64 + 13, 10**40])
def test_characteristic_is_bounded(p):
    with pytest.raises(ValueError, match=r"must lie in 0\.\.2\^64 - 1"):
        require_prime(p)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.integers(0, 10**5), st.integers(0, 2**64 - 1)))
def test_prime_check_matches_sympy(n):
    assert _is_prime(n) == isprime(n)


def test_prime_check_matches_sympy_below_10000():
    # covers the small-p shortcut (p < 38 reads the bases) and its edge
    assert [n for n in range(10_000) if _is_prime(n) != isprime(n)] == []
