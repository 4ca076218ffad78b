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
import math
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


def require_prime(p: int) -> None:
    """ValueError unless the characteristic p is prime."""
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"characteristic must be prime, got {p}")


def _poly_mod(num: list[int], den: tuple[int, ...], p: int) -> list[int]:
    """Remainder of num by the monic polynomial den over F_p.

    Coefficients are listed lowest degree first.
    """
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


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree up to deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not any(_poly_mod(list(poly), tail + (1,), p)):
                return False
    return True


@lru_cache(maxsize=None)
def canonical_modulus(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree n over F_p.

    Coefficient tuples are compared constant term first, which makes the
    field construction deterministic without external tables.
    """
    for tail in itertools.product(range(p), repeat=n):
        cand = tail + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise ValueError(f"no irreducible polynomial of degree {n} over F_{p}")


@lru_cache(maxsize=None)
def _frobenius_matrices(p: int, n: int):
    """F_p-matrices of a -> a^p and of its inverse a -> a^(1/p) on F_{p^n}.

    Column k of the first holds the coordinates of x^(pk).  Frobenius is an
    F_p-linear bijection, so Gauss-Jordan inverts the matrix, and a p-th
    power or p-th root then costs one matrix-vector product.
    """
    modulus = canonical_modulus(p, n)
    cols = [_poly_mod([0] * (p * k) + [1], modulus, p) for k in range(n)]
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
    """The coefficient field F_q with q = p^n, p prime."""

    __slots__ = ("p", "n", "modulus", "frobenius_matrix", "inv_frobenius_matrix")

    def __init__(self, p: int, n: int = 1):
        require_prime(p)
        if n < 1:
            raise ValueError(f"extension degree must be >= 1, got {n}")
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
            if other.spec != self.spec:
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
        n = self.spec.n
        conv = [0] * (2 * n - 1)
        for i, a in enumerate(self.coords):
            if a:
                for k, b in enumerate(other.coords):
                    conv[i + k] += a * b
        return FieldElement(self.spec, tuple(_poly_mod(conv, self.spec.modulus, p)))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        acc = self.spec.one
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def inverse(self) -> "FieldElement":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero field element")
        return self ** (self.spec.q - 2)

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
        return self.spec == other.spec and self.coords == other.coords

    def __hash__(self):
        return hash((self.spec.p, self.spec.n, self.coords))

    def __str__(self):
        if self.spec.n == 1:
            return str(self.coords[0])
        return "[" + ",".join(str(c) for c in self.coords) + "]"

    def __repr__(self):
        return f"{self} in {self.spec}"


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
            elif c.spec != spec:
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
        if other.spec != self.spec:
            raise FieldMismatch(f"{self.spec} vs {other.spec}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            elif s := s + c:
                out[e] = s
            else:
                del out[e]
        return LaurentPoly._trusted(self.spec, out)

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
        out: dict[int, FieldElement] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                prod = c1 * c2
                s = out.get(e)
                out[e] = prod if s is None else s + prod
        return LaurentPoly._trusted(self.spec, {e: c for e, c in out.items() if c})

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
        return self.spec == other.spec and self.terms == other.terms

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
