"""Arithmetic in the degree-p extension k((x))[y]/(y^p - y - x^(-j)).

Elements are written sum_i a_i(x) * y^i with Laurent coefficients a_i and
0 <= i < p.  The valuation is normalised so that val(x) = p and val(y) = -j,
hence val(sum a_i y^i) = min_i (p*val(a_i) - j*i); the minimum is attained
at a unique i because the residues -j*i mod p are pairwise distinct.

This module is the jump engine for towers whose base layer is
y^p - y = x^(-j): reducing w^p - w = F over the extension yields the second
lower jump, and the Herbrand conversion turns it into the pair of upper
jumps.  The reduction runs the shared engine `aschreier._reduce_terms` on
the terms x^e y^i of F, weighted p*e - j*i: O(k log k) heap work plus k
p-th roots for k steps.  Every step is an exact polynomial identity; in
particular the fractional-exponent binomial expansion that would appear in
a power-series treatment is replaced by explicit monomial substitutions h
with F -> F - (h^p - h), so no truncation ever occurs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import INFINITY, FieldSpec, LaurentPoly, format_laurent, parse_laurent
from .aschreier import UNRAMIFIED, _reduce_terms, _Unramified
from .errors import (
    DegenerateTower,
    FieldMismatch,
    InvariantViolation,
    NotATower,
    ParseError,
)
from .ramfilt import admissible_check

# An ExtElement holds p Laurent coefficients and the tower cost grows about
# as p^3: `tower --p 251` takes ~0.06 s and p = 509 ~0.65 s on a 2-vCPU VM.
MAX_EXT_P = 251


@dataclass(frozen=True)
class ExtFieldSpec:
    """Degree-p extension of k((x)) with defining equation y^p - y = x^(-j);
    p <= MAX_EXT_P."""

    field: FieldSpec
    j: int

    def __post_init__(self):
        if self.field.p > MAX_EXT_P:
            raise ValueError(
                f"extension characteristic {self.field.p} exceeds the cap p <= {MAX_EXT_P}"
            )
        if self.j < 1 or self.j % self.field.p == 0:
            raise ValueError(f"first jump {self.j} must be positive and prime to p")

    @property
    def p(self) -> int:
        return self.field.p


class ExtElement:
    """Element sum_i a_i(x) * y^i of the extension, 0 <= i < p."""

    __slots__ = ("ext", "coeffs")

    def __init__(self, ext: ExtFieldSpec, coeffs):
        coeffs = tuple(coeffs)
        p = ext.p
        if len(coeffs) != p:
            raise ValueError(f"expected {p} coefficients, got {len(coeffs)}")
        for a in coeffs:
            if a.spec is not ext.field and a.spec != ext.field:
                raise FieldMismatch(f"{ext.field} vs {a.spec}")
        self.ext = ext
        self.coeffs = coeffs

    @classmethod
    def zero(cls, ext: ExtFieldSpec) -> "ExtElement":
        z = LaurentPoly.zero(ext.field)
        return cls(ext, (z,) * ext.p)

    @classmethod
    def from_coeffs(cls, ext: ExtFieldSpec, coeffs) -> "ExtElement":
        """Build from up to p Laurent coefficients, padding with zeros."""
        coeffs = list(coeffs)
        if len(coeffs) > ext.p:
            raise ValueError(f"more than {ext.p} coefficients")
        z = LaurentPoly.zero(ext.field)
        coeffs += [z] * (ext.p - len(coeffs))
        return cls(ext, coeffs)

    @classmethod
    def from_terms(cls, ext: ExtFieldSpec, terms) -> "ExtElement":
        """Build from a {(e, i): coefficient} map of monomials x^e * y^i with
        int e and nonzero coefficients in ext.field, as the engine leaves it."""
        rows = [{} for _ in range(ext.p)]
        for (e, i), c in terms.items():
            rows[i][e] = c
        return cls(ext, [LaurentPoly._trusted(ext.field, r) for r in rows])

    @classmethod
    def x_pow(cls, ext: ExtFieldSpec, e: int, coeff=1) -> "ExtElement":
        return cls.from_coeffs(ext, [LaurentPoly.x_pow(ext.field, e, coeff)])

    @classmethod
    def y(cls, ext: ExtFieldSpec) -> "ExtElement":
        z = LaurentPoly.zero(ext.field)
        one = LaurentPoly.x_pow(ext.field, 0)
        return cls.from_coeffs(ext, [z, one])

    @classmethod
    def y_pow(cls, ext: ExtFieldSpec, k: int) -> "ExtElement":
        acc = cls.x_pow(ext, 0)
        base = cls.y(ext)
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for a in self.coeffs)

    def __bool__(self):
        return not self.is_zero

    @property
    def valuation(self):
        """min_i (p*val(a_i) - j*i); INFINITY iff zero.  Minimizer unique."""
        p, j = self.ext.p, self.ext.j
        best = None
        ties = 0
        for i, a in enumerate(self.coeffs):
            v = a.valuation
            if v is INFINITY:
                continue
            w = p * v - j * i
            if best is None or w < best:
                best, ties = w, 1
            elif w == best:
                ties += 1
        if best is None:
            return INFINITY
        if ties != 1:
            raise InvariantViolation("valuation minimum attained more than once")
        return best

    def _check(self, other: "ExtElement"):
        if not isinstance(other, ExtElement):
            raise TypeError(f"expected ExtElement, got {other!r}")
        if other.ext != self.ext:
            raise FieldMismatch(f"{self.ext} vs {other.ext}")

    def __add__(self, other):
        self._check(other)
        return ExtElement(
            self.ext, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExtElement(self.ext, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        """Ring product, rewriting y^k for k >= p via y^p = y + x^(-j)."""
        self._check(other)
        ext = self.ext
        p = ext.p
        z = LaurentPoly.zero(ext.field)
        conv = [z] * (2 * p - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for k, b in enumerate(other.coeffs):
                if b.is_zero:
                    continue
                conv[i + k] = conv[i + k] + a * b
        return ExtElement(ext, _fold_ydeg(ext, conv))

    def pow_p(self) -> "ExtElement":
        """p-th power: sum a_i^p * (y + x^(-j))^i, exact and finite."""
        ext = self.ext
        p, j = ext.p, ext.j
        z = LaurentPoly.zero(ext.field)
        out = [z] * p
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            ap = a.frobenius()
            for b in range(i + 1):
                c = math.comb(i, b) % p
                shift = -j * (i - b)
                term = {e + shift: v * c for e, v in ap.terms.items()}
                out[b] = out[b] + LaurentPoly._trusted(ext.field, term)
        return ExtElement(ext, out)

    def __eq__(self, other):
        if not isinstance(other, ExtElement):
            return NotImplemented
        return self.ext == other.ext and self.coeffs == other.coeffs

    def __str__(self):
        return format_ext(self)

    def __repr__(self):
        return f"<{self} in y^{self.ext.p} - y = x^-{self.ext.j}>"


def _fold_ydeg(ext: ExtFieldSpec, conv: list[LaurentPoly]) -> tuple[LaurentPoly, ...]:
    # y^k = y^(k-p) * (y + x^(-j)) for k >= p
    p = ext.p
    xj = LaurentPoly.x_pow(ext.field, -ext.j)
    while len(conv) > p:
        top = conv.pop()
        if top.is_zero:
            continue
        k = len(conv)
        conv[k - p + 1] = conv[k - p + 1] + top
        conv[k - p] = conv[k - p] + top * xj
    return tuple(conv)


@dataclass(frozen=True)
class ExtReduced:
    """Reduction result; the original element minus `reduced` equals
    substitution^p - substitution exactly."""

    reduced: ExtElement
    jump: "int | _Unramified"
    substitution: ExtElement


def ext_as_reduce(F: ExtElement) -> ExtReduced:
    """Reduce F until its valuation is >= 0 or negative and prime to p.

    While val(F) is negative and divisible by p, the leading term is a pure
    x-power c*x^(v/p): any monomial of p-divisible valuation has y-degree 0,
    since p does not divide j.  It is killed by subtracting h^p - h for the
    monomial h = pth_root(c) * x^alpha * y^beta whose valuation is v/p, with
    beta the unique residue in [0, p) solving p*alpha - j*beta = v/p.  Each
    step strictly raises the valuation, so the loop terminates; the final
    negative valuation is automatically prime to p.
    """
    ext = F.ext
    p, j = ext.p, ext.j
    jinv = pow(j, -1, p)
    binom = [[math.comb(beta, b) % p for b in range(beta + 1)] for beta in range(p)]

    def weight(key):
        e, i = key
        return p * e - j * i

    def kill(key, c):
        e, i = key
        if i:
            raise InvariantViolation("p-divisible leading term not of y-degree 0")
        beta = -e * jinv % p
        alpha = (e + j * beta) // p
        r = c.pth_root()
        # h^p = c x^(p*alpha) (y + x^-j)^beta; its b = 0 term is the killed c x^e
        updates = [((e + j * b, b), c * -binom[beta][b]) for b in range(beta + 1)]
        updates.append(((alpha, beta), r))
        return (alpha, beta), r, updates

    terms = {(e, i): c for i, a in enumerate(F.coeffs) for e, c in a.terms.items()}
    jump, h_terms = _reduce_terms(terms, p, weight, kill)
    reduced = ExtElement.from_terms(ext, terms)
    subst = ExtElement.from_terms(ext, h_terms)
    if F - reduced != subst.pow_p() - subst:
        raise InvariantViolation("reduction substitution does not account for the change")
    return ExtReduced(reduced, jump, subst)


def minimal_tower_element(ext: ExtFieldSpec) -> ExtElement:
    """y^(p^2 - p + 1), the least valuation a second tower layer can have."""
    p = ext.p
    return ExtElement.y_pow(ext, p * p - p + 1)


def upper_jumps(ext: ExtFieldSpec, J) -> tuple[int, int]:
    """Upper jumps (sigma_1, sigma_2) of the tower whose reduced second
    lower jump is J: sigma_1 = j and sigma_2 = j + (J - j)/p.

    Jump data that cannot come from a cyclic p^2 tower is rejected: J must
    exceed j, be congruent to j mod p, and yield an admissible pair.
    """
    p, j = ext.p, ext.j
    if J is UNRAMIFIED:
        raise DegenerateTower("second layer is unramified")
    if J < j:
        raise DegenerateTower(f"second lower jump {J} falls below the first jump {j}")
    if J == j:
        raise NotATower("second lower jump must strictly exceed the first")
    if (J - j) % p:
        raise NotATower(f"lower jump {J} is not congruent to {j} mod {p}")
    sigma2 = j + (J - j) // p
    if not admissible_check((j, sigma2), p):
        raise NotATower(f"upper jumps ({j}, {sigma2}) are not p^2-admissible")
    return (j, sigma2)


def tower_jumps(F: ExtElement) -> tuple[int, int]:
    """Upper jumps (sigma_1, sigma_2) of the tower continued by w^p - w = F."""
    return upper_jumps(F.ext, ext_as_reduce(F).jump)


def parse_ext(ext: ExtFieldSpec, text: str) -> ExtElement:
    """Parse `;`-separated Laurent coefficients in increasing y-degree."""
    segments = text.split(";")
    if len(segments) > ext.p:
        raise ParseError(f"more than {ext.p} coefficients in {text!r}")
    coeffs = [parse_laurent(ext.field, seg) for seg in segments]
    return ExtElement.from_coeffs(ext, coeffs)


def format_ext(F: ExtElement) -> str:
    return " ; ".join(format_laurent(a) for a in F.coeffs)
