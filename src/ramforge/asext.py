"""Arithmetic in the degree-p extension k((x))[y]/(y^p - y - x^(-j)).

An element is a sum of monomials c * x^e * y^i with 0 <= i < p.  The
valuation is normalised so that val(x) = p and val(y) = -j, hence
val(c x^e y^i) = p*e - j*i, its weight, and an element is stored as the
sparse map {weight: int form of c}, the form the reduction engine edits
and `algebra._IntMap`'s arithmetic acts on, as for a Laurent polynomial.
The pair (e, i) appears only at the public edges: the constructor and
`parse_ext` map to weights, `terms` and `coeffs` (hence `format_ext`) map
back, all through `ExtFieldSpec`.

This module is the jump engine for towers whose base layer is
y^p - y = x^(-j): reducing w^p - w = F over the extension yields the second
lower jump, and the Herbrand conversion turns it into the pair of upper
jumps.  `ext_as_reduce` runs the shared engine `aschreier._reduce_terms`
on F's own map through the field's kernels: O(k log k) heap work plus k
p-th roots for k steps.  Every step is an exact polynomial identity; in
particular the fractional-exponent binomial expansion that would appear
in a power-series treatment is replaced by explicit monomial
substitutions h with F -> F - (h^p - h), so no truncation ever occurs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

from .algebra import (FieldSpec, LaurentPoly, _IntMap, _parse_ints, _ydeg, format_laurent,
                      require_int)
from .aschreier import UNRAMIFIED, _reduce, _Unramified
from .errors import (
    DegenerateTower,
    FieldMismatch,
    InputError,
    NotATower,
    ParseError,
)
from .ramfilt import admissible_check

# A reduction step adds up to p terms, and each binomial row it reads has up
# to p - 1 entries, built on first use, so the tower cost grows with p: in
# process on a shared 2-vCPU VM, `tower --p 251 --j 1 --F x^-300` takes
# ~6 ms cold and ~3 ms warm.
MAX_EXT_P = 251


@dataclass(frozen=True)
class ExtFieldSpec:
    """Degree-p extension of k((x)) with defining equation y^p - y = x^(-j);
    p <= MAX_EXT_P and j <= 2^64, as for exponents, so the upper jumps print."""

    field: FieldSpec
    j: int

    def __post_init__(self):
        require_int(self.field.p, "extension characteristic p", 2, MAX_EXT_P)
        if require_int(self.j, "first jump j", 1) % self.field.p == 0:
            raise InputError(f"first jump {self.j} must be positive and prime to p")

    @property
    def p(self) -> int:
        return self.field.p

    @cached_property
    def _ring(self) -> tuple[int, int]:
        """(1/j mod p, j*(p - 1)): the tower's parameters in weight space."""
        return pow(self.j, -1, self.p), self.j * (self.p - 1)

    def _weights(self, ints: dict) -> dict:
        """{(e, i): c} -> {p*e - j*i: c}.  The weight is a bijection from the
        monomials x^e y^i, 0 <= i < p, onto the integers: p*e - j*i =
        p*e' - j*i' forces p | j*(i - i'), so i = i' as p does not divide j
        and |i - i'| < p, and then e = e'.  `_keys` is its inverse."""
        p, j = self.p, self.j
        return {p * e - j * i: c for (e, i), c in ints.items()}

    def _keys(self, weights: dict) -> dict:
        """{w: c} -> {(e, i): c} with i = -w/j mod p and e = (w + j*i)/p."""
        p, j, jinv = self.p, self.j, self._ring[0]
        out = {}
        for w, c in weights.items():
            i = _ydeg(w, jinv, p)
            out[(w + j * i) // p, i] = c
        return out


class ExtElement(_IntMap):
    """The map `_ints` {p*e - j*i: v} of sum c x^e y^i: int e, 0 <= i < p,
    and v the nonzero int form of c in ext.field.  The constructor checks
    caller input, up to p Laurent coefficients a_i of sum a_i(x) y^i (the
    missing ones are zero); `_trusted` builds internal results."""

    __slots__ = ()
    ext = property(attrgetter("_over"))
    _field = property(attrgetter("_over.field"))
    _ring = property(attrgetter("_over._ring"))
    _keys = property(attrgetter("_over._keys"))
    _noun = "tower elements"
    pow_p = _IntMap._pow_p

    def __init__(self, ext: ExtFieldSpec, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) > ext.p:
            raise InputError(f"more than {ext.p} coefficients")
        ints = {}
        for i, a in enumerate(coeffs):
            if not isinstance(a, LaurentPoly):
                raise TypeError(f"coefficient of y^{i}: expected LaurentPoly, "
                                f"got {type(a).__name__}")
            if a.spec is not ext.field and a.spec != ext.field:
                raise FieldMismatch(f"{ext.field} vs {a.spec}")
            for e, v in a._ints.items():
                ints[e, i] = v
        self._over = ext
        self._ints = ext._weights(ints)

    @classmethod
    def x_pow(cls, ext: ExtFieldSpec, e: int, coeff=1) -> "ExtElement":
        return cls(ext, [LaurentPoly.x_pow(ext.field, e, coeff)])

    @classmethod
    def y(cls, ext: ExtFieldSpec) -> "ExtElement":
        return cls._trusted(ext, {-ext.j: 1})

    @property
    def coeffs(self) -> tuple[LaurentPoly, ...]:
        """The p Laurent coefficients a_i of sum a_i(x) y^i."""
        rows = [{} for _ in range(self.ext.p)]
        for (e, i), v in self._keys(self._ints).items():
            rows[i][e] = v
        return tuple(LaurentPoly._trusted(self.ext.field, r) for r in rows)

    def __str__(self):
        return format_ext(self)

    def __repr__(self):
        return f"<{self} in y^{self.ext.p} - y = x^-{self.ext.j}>"


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
    return ExtReduced(*_reduce(F))


def minimal_tower_element(ext: ExtFieldSpec) -> ExtElement:
    """y^(p^2 - p + 1), the least valuation a second tower layer can have;
    (y^(p-1))^p * y by the exact Frobenius, since p^2 - p + 1 = (p - 1)p + 1."""
    y = ExtElement.y(ext)
    return (y ** (ext.p - 1)).pow_p() * y


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
    """Parse `;`-separated Laurent coefficients in increasing y-degree.

    Each coefficient is read without its surrounding whitespace, and its
    error names its y-degree: ``coefficient of y^i: MESSAGE``.
    """
    segments = text.split(";")
    if len(segments) > ext.p:
        raise ParseError(f"more than {ext.p} coefficients in {text!r}")
    ints = {}
    for i, seg in enumerate(segments):
        try:
            ints.update(((e, i), v) for e, v in _parse_ints(ext.field, seg.strip()).items())
        except ParseError as exc:
            raise ParseError(f"coefficient of y^{i}: {exc}") from None
    return ExtElement._trusted(ext, ext._weights(ints))


def format_ext(F: ExtElement) -> str:
    return " ; ".join(format_laurent(a) for a in F.coeffs)
