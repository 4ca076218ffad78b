"""Exact arithmetic in F_{p^n} and in sparse Laurent polynomials over it.

Field elements are coefficient vectors over F_p in the polynomial basis of a
canonical irreducible modulus, so p-th roots (inverse Frobenius) are exact.
Laurent polynomials are finite maps from integer exponents to nonzero field
elements.  Nothing here touches floating point.

All values are immutable after construction and every operation is a pure
function, so they are safe to share across threads.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from operator import mul

from .errors import FieldMismatch, ParseError


class _Infinity:
    """Valuation of the zero polynomial.  Compares above every integer."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Infinity)

    def __gt__(self, other):
        return not isinstance(other, _Infinity)

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash("ramforge.INFINITY")

    def __repr__(self):
        return "+inf"


INFINITY = _Infinity()


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin: the twelve prime bases up to 37 decide
    primality exactly for every p < 3.3e24 (Sorenson and Webster 2015)."""
    if p < 2 or any(p % a == 0 for a in _PRIME_BASES):
        return p in _PRIME_BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        y = pow(a, d, p)
        if y in (1, p - 1):
            continue
        for _ in range(s - 1):
            y = y * y % p
            if y == p - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    """ValueError unless the characteristic p is a prime below 2^64."""
    if p >= 2**64:
        raise ValueError(f"characteristic must be below 2^64, got {p}")
    if not _is_prime(p):
        raise ValueError(f"characteristic must be prime, got {p}")


# F_p[x]: coefficient lists, lowest degree first; every modulus is monic.

def _poly_divmod(num, den, p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num by the monic polynomial den over F_p.

    Synthetic division in place: clearing degree k leaves the quotient
    coefficient of x^(k - deg den) in slot k, so num[deg den:] ends as the
    quotient.  The remainder is padded to deg den coefficients.
    """
    num = [c % p for c in num]
    dn = len(den) - 1
    low = den[:-1]
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k]
        if c:
            for i, d in enumerate(low, k - dn):
                num[i] = (num[i] - c * d) % p
    rem = num[:dn]
    rem += [0] * (dn - len(rem))
    return num[dn:], rem


def _poly_mul(a, b) -> list[int]:
    """Product over Z; callers reduce the coefficients mod p."""
    conv = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for k, d in enumerate(b, i):
                conv[k] += c * d
    return conv


def _mulmod(a, b, f, p: int) -> list[int]:
    """a * b mod f over F_p, padded to deg f coefficients."""
    return _poly_divmod(_poly_mul(a, b), f, p)[1]


def _powmod(a, k: int, f, p: int) -> list[int]:
    """a^k mod f over F_p for k >= 0, by left-to-right square and multiply."""
    acc = [1] + [0] * (len(f) - 2)
    for bit in bin(k)[2:]:
        acc = _mulmod(acc, acc, f, p)
        if bit == "1":
            acc = _mulmod(acc, a, f, p)
    return acc


def _gcdex(a, f, p: int) -> tuple[list[int], list[int]]:
    """Monic gcd g of a and the monic f over F_p, and s with s * a = g mod f.

    Extended Euclid.  Each remainder is made monic before it divides, so
    `_poly_divmod` serves every step; O(deg f ^ 2) coefficient operations.
    """
    r0, s0, r1, s1 = list(f), [], [c % p for c in a], [1]
    while True:
        while r1 and not r1[-1]:
            r1.pop()
        if not r1:
            return r0, s0
        u = pow(r1[-1], -1, p)
        r1 = [c * u % p for c in r1]
        s1 = [c * u % p for c in s1]
        q, r = _poly_divmod(r0, r1, p)
        qs = _poly_mul(q, s1)
        s = [(c - d) % p for c, d in itertools.zip_longest(s0, qs, fillvalue=0)]
        r0, s0, r1, s1 = r1, s1, r, s


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Ben-Or's test (Ben-Or 1981): the monic poly of degree n is
    irreducible over F_p iff gcd(poly, x^(p^i) - x) = 1 for i = 1..n//2."""
    xq = [0, 1]
    for _ in range((len(poly) - 1) // 2):
        xq = _powmod(xq, p, poly, p)
        d = list(xq)
        d[1] = (d[1] - 1) % p
        if len(_gcdex(d, poly, p)[0]) > 1:
            return False
    return True


@lru_cache(maxsize=None)
def canonical_modulus(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree n over F_p.

    Coefficient tuples are compared constant term first, which makes the
    field construction deterministic without external tables.  For n > 1 a
    constant term 0 makes x a factor, so the candidates are the base-p
    numerals c0 c1 ... c_{n-1} with c0 != 0, taken in increasing order and
    read off one at a time (p may be near 2^32, so no range(p) is stored).
    """
    if n == 1:
        return (0, 1)
    for code in range(p ** (n - 1), p**n):
        digits = []
        for _ in range(n):
            code, c = divmod(code, p)
            digits.append(c)
        cand = (*reversed(digits), 1)
        if _is_irreducible(cand, p):
            return cand
    raise ValueError(f"no irreducible polynomial of degree {n} over F_{p}")


@lru_cache(maxsize=None)
def _frobenius_matrices(p: int, n: int):
    """F_p-matrices of a -> a^p and of its inverse a -> a^(1/p) on F_{p^n}.

    Column k of the first holds the coordinates of x^(pk), the previous
    column times x^p mod the modulus.  Frobenius is an F_p-linear
    bijection, so Gauss-Jordan inverts the matrix, and a p-th power or
    p-th root then costs one matrix-vector product.
    """
    modulus = canonical_modulus(p, n)
    xp = _powmod([0, 1], p, modulus, p)
    cols = [[1] + [0] * (n - 1)]
    for _ in range(1, n):
        cols.append(_mulmod(cols[-1], xp, modulus, p))
    frob = tuple(tuple(col[r] for col in cols) for r in range(n))
    rows = [list(row) + [int(r == c) for c in range(n)] for r, row in enumerate(frob)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], -1, p)
        top = rows[c] = [v * inv % p for v in rows[c]]
        for r in range(n):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], top)]
    return frob, tuple(tuple(row[n:]) for row in rows)


class FieldSpec:
    """The coefficient field F_q with q = p^n, p prime and q <= 2^64."""

    __slots__ = ("p", "n", "modulus", "frobenius_matrix", "inv_frobenius_matrix")

    def __init__(self, p: int, n: int = 1):
        require_prime(p)
        if n < 1:
            raise ValueError(f"extension degree must be >= 1, got {n}")
        if n > 64 or p**n > 2**64:  # n first: p**n for a huge n is itself costly
            raise ValueError(f"field size {p}^{n} exceeds the bound p^n <= 2^64")
        self.p = p
        self.n = n
        self.modulus = canonical_modulus(p, n)
        self.frobenius_matrix, self.inv_frobenius_matrix = _frobenius_matrices(p, n)

    @property
    def q(self) -> int:
        return self.p**self.n

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.n)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.n - 1))

    def scalar(self, c: int) -> "FieldElement":
        """Image of the integer c under Z -> F_p inside F_q."""
        return FieldElement(self, (c % self.p,) + (0,) * (self.n - 1))

    def element(self, coords) -> "FieldElement":
        coords = tuple(int(c) % self.p for c in coords)
        if len(coords) > self.n:
            raise ParseError(
                f"coefficient vector of length {len(coords)} in a degree-{self.n} field"
            )
        return FieldElement(self, coords + (0,) * (self.n - len(coords)))

    def elements(self):
        """Iterate over all q elements (intended for small fields)."""
        for coords in itertools.product(range(self.p), repeat=self.n):
            yield FieldElement(self, coords)

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec) and self.p == other.p and self.n == other.n
        )

    def __hash__(self):
        return hash((self.p, self.n))

    def __repr__(self):
        return f"F_{self.p}" if self.n == 1 else f"F_{self.p}^{self.n}"


class FieldElement:
    """Element of F_{p^n} in the polynomial basis of the canonical modulus."""

    __slots__ = ("spec", "coords")

    def __init__(self, spec: FieldSpec, coords: tuple[int, ...]):
        self.spec = spec
        self.coords = coords

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __bool__(self) -> bool:
        return not self.is_zero

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, int):
            return self.spec.scalar(other)
        if isinstance(other, FieldElement):
            if other.spec is not self.spec and other.spec != self.spec:
                raise FieldMismatch(f"{self.spec} vs {other.spec}")
            return other
        raise TypeError(f"cannot interpret {other!r} as a field element")

    def __add__(self, other):
        other = self._coerce(other)
        p = self.spec.p
        return FieldElement(
            self.spec, tuple((a + b) % p for a, b in zip(self.coords, other.coords))
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        p = self.spec.p
        return FieldElement(
            self.spec, tuple((a - b) % p for a, b in zip(self.coords, other.coords))
        )

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        p = self.spec.p
        return FieldElement(self.spec, tuple(-a % p for a in self.coords))

    def __mul__(self, other):
        p = self.spec.p
        if isinstance(other, int):
            return FieldElement(self.spec, tuple(other * a % p for a in self.coords))
        other = self._coerce(other)
        return FieldElement(
            self.spec, tuple(_mulmod(self.coords, other.coords, self.spec.modulus, p))
        )

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        spec = self.spec
        return FieldElement(spec, tuple(_powmod(self.coords, k, spec.modulus, spec.p)))

    def inverse(self) -> "FieldElement":
        """Extended Euclid against the modulus: O(n^2) F_p operations."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero field element")
        spec = self.spec
        s = _gcdex(self.coords, spec.modulus, spec.p)[1]
        return FieldElement(spec, tuple(s) + (0,) * (spec.n - len(s)))

    def _linear(self, matrix) -> "FieldElement":
        p = self.spec.p
        return FieldElement(
            self.spec,
            tuple(sum(map(mul, row, self.coords)) % p for row in matrix),
        )

    def frobenius(self) -> "FieldElement":
        return self._linear(self.spec.frobenius_matrix)

    def pth_root(self) -> "FieldElement":
        """Inverse Frobenius; exact since x -> x^p is bijective on F_q."""
        return self._linear(self.spec.inv_frobenius_matrix)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.spec.scalar(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        same = self.spec is other.spec or self.spec == other.spec
        return same and self.coords == other.coords

    def __hash__(self):
        return hash((self.spec.p, self.spec.n, self.coords))

    def __str__(self):
        if self.spec.n == 1:
            return str(self.coords[0])
        return "[" + ",".join(str(c) for c in self.coords) + "]"

    def __repr__(self):
        return f"{self} in {self.spec}"


def _plus(terms: dict, pairs) -> dict:
    """The sparse term map {key: nonzero coefficient} of `terms` plus the
    (key, nonzero coefficient) pairs; a key whose sum cancels drops out.
    Keys are x-exponents here and (x-exponent, y-degree) pairs in `asext`."""
    out = dict(terms)
    for k, c in pairs:
        s = out.get(k)
        if s is None:
            out[k] = c
        elif s := s + c:
            out[k] = s
        else:
            del out[k]
    return out


class LaurentPoly:
    """Finite Laurent polynomial over F_{p^n}, stored sparsely.

    Only the pole part ever matters for ramification, so finite supports
    lose nothing and keep every operation exact.  The constructor checks
    caller input once; arithmetic results are built by `_trusted`.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec: FieldSpec, terms=None):
        clean: dict[int, FieldElement] = {}
        for e, c in (terms or {}).items():
            if isinstance(c, int):
                c = spec.scalar(c)
            elif c.spec is not spec and c.spec != spec:
                raise FieldMismatch(f"{spec} vs {c.spec}")
            if not c.is_zero:
                clean[int(e)] = c
        self.spec = spec
        self.terms = clean

    @classmethod
    def _trusted(cls, spec: FieldSpec, terms: dict) -> "LaurentPoly":
        """Internal results: `terms` already maps int exponents to nonzero
        elements of `spec`, so it is adopted as is, without a check."""
        out = object.__new__(cls)
        out.spec = spec
        out.terms = terms
        return out

    @classmethod
    def zero(cls, spec: FieldSpec) -> "LaurentPoly":
        return cls(spec, {})

    @classmethod
    def x_pow(cls, spec: FieldSpec, e: int, coeff=1) -> "LaurentPoly":
        return cls(spec, {e: coeff})

    @property
    def valuation(self):
        """Minimum exponent with nonzero coefficient; INFINITY for zero."""
        if not self.terms:
            return INFINITY
        return min(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return not self.is_zero

    def __getitem__(self, e: int) -> FieldElement:
        return self.terms.get(e, self.spec.zero)

    def _check(self, other: "LaurentPoly"):
        if not isinstance(other, LaurentPoly):
            raise TypeError(f"expected LaurentPoly, got {other!r}")
        if other.spec is not self.spec and other.spec != self.spec:
            raise FieldMismatch(f"{self.spec} vs {other.spec}")

    def __add__(self, other):
        self._check(other)
        return LaurentPoly._trusted(self.spec, _plus(self.terms, other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LaurentPoly._trusted(self.spec, {e: -c for e, c in self.terms.items()})

    def scale(self, c) -> "LaurentPoly":
        terms = {e: cv for e, v in self.terms.items() if (cv := c * v)}
        return LaurentPoly._trusted(self.spec, terms)

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(other)
        self._check(other)
        return LaurentPoly._trusted(self.spec, _plus({}, (
            (e1 + e2, c1 * c2)
            for e1, c1 in self.terms.items() for e2, c2 in other.terms.items()
        )))

    def __rmul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers of Laurent polynomials are not defined")
        acc = LaurentPoly.x_pow(self.spec, 0)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def frobenius(self) -> "LaurentPoly":
        """p-th power: coefficients to the p, exponents times p."""
        p = self.spec.p
        return LaurentPoly._trusted(
            self.spec, {p * e: c.frobenius() for e, c in self.terms.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        same = self.spec is other.spec or self.spec == other.spec
        return same and self.terms == other.terms

    def __str__(self):
        return format_laurent(self)

    def __repr__(self):
        return f"<{self} over {self.spec}>"


def artin_schreier(h: LaurentPoly) -> LaurentPoly:
    """The additive operator h -> h^p - h."""
    return h.frobenius() - h


_TERM_RE = re.compile(
    r"(?P<sign>[+-])?(?P<coeff>\[(?P<vec>[^\[\]]*)\]|[0-9]+)?"
    r"(?:\*?(?P<x>x)(?:\^(?P<exp>[+-]?[0-9]+))?)?"
)
_VECTOR_RE = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")


def parse_laurent(spec: FieldSpec, text: str) -> LaurentPoly:
    """Parse the `c*x^e` sum grammar, e.g. ``x^-7 + 2*x^-3 + x^2``.

    Whitespace is ignored.  One left-to-right scan matches `_TERM_RE` term
    by term: an optional sign, then a coefficient, an ``x`` power or both;
    every term after the first starts with its sign.  Coefficients over
    extensions are polynomial-basis vectors ``[c0,c1,...]`` of ``-?[0-9]+``
    components.  Scalars are ``[0-9]+`` and exponents signed ``[0-9]+``;
    only ASCII digits are accepted.
    """
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ParseError("empty Laurent polynomial")
    terms: dict[int, FieldElement] = {}
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        sign, coeff, vec, x, exp = m.group("sign", "coeff", "vec", "x", "exp")
        if coeff is None and x is None and s.startswith(("+", "-"), m.end()):
            raise ParseError(f"sign follows a sign in {s!r}")
        if (pos and sign is None) or (coeff is None and x is None):
            raise ParseError(f"bad term {s[pos:]!r} in {text!r}")
        if vec is not None:
            parts = vec.split(",")
            if "" in parts:
                raise ParseError(f"empty component in coefficient vector {coeff!r}")
            if not _VECTOR_RE.fullmatch(vec):
                raise ParseError(f"bad coefficient vector {coeff!r}")
            c = spec.element([int(v) for v in parts])
        else:
            c = spec.one if coeff is None else spec.scalar(int(coeff))
        if sign == "-":
            c = -c
        e = 0 if x is None else 1 if exp is None else int(exp)
        terms[e] = terms[e] + c if e in terms else c
        pos = m.end()
    return LaurentPoly(spec, terms)


def format_laurent(f: LaurentPoly) -> str:
    """Canonical text form, terms in increasing exponent order."""
    if f.is_zero:
        return "0"
    parts = []
    one = f.spec.one
    for e in sorted(f.terms):
        c = f.terms[e]
        if e == 0:
            parts.append(str(c))
            continue
        xs = "x" if e == 1 else f"x^{e}"
        parts.append(xs if c == one else f"{c}*{xs}")
    return " + ".join(parts)
