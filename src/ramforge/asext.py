"""Arithmetic in the degree-p extension k((x))[y]/(y^p - y - x^(-j)).

An element is a sum of monomials c * x^e * y^i with 0 <= i < p.  The
valuation is normalised so that val(x) = p and val(y) = -j, hence
val(c x^e y^i) = p*e - j*i, its weight, and an element is stored as the
sparse map {weight: int form of c}, the form the reduction engine edits
and `algebra._IntMap`'s arithmetic acts on, as for a Laurent polynomial.
The pair (e, i) appears only at the public edges: the constructor and
`parse_ext` map each exponent e of the coefficient of y^i to p*e - j*i as
they read it, and `ExtElement._split` splits weights back into those p rows
of (e, int form) pairs, the one place that does: `coeffs` (hence `terms`)
reads it, and `format_ext` writes its rows of the once-sorted weights.

This module is the jump engine for towers whose base layer is
y^p - y = x^(-j): reducing w^p - w = F over the extension yields the second
lower jump, and the Herbrand conversion turns it into the pair of upper
jumps.  `ext_as_reduce` runs the shared engine `aschreier._reduce_terms`
on F's own map through the field's kernels: O(k log k) heap work plus k
p-th roots for k steps, and its certificate is the same one sum of term
maps as on the line.  Every step is an exact polynomial identity; in
particular the fractional-exponent binomial expansion that would appear
in a power-series treatment is replaced by explicit monomial
substitutions h with F -> F - (h^p - h), so no truncation ever occurs.
"""

from __future__ import annotations

from operator import attrgetter

from .algebra import (FieldSpec, LaurentPoly, _format_terms, _IntMap, _parse_ints, _Record,
                      _store, require_int, require_type)
from .aschreier import UNRAMIFIED, _reduce, _Unramified
from .errors import (
    DegenerateTower,
    FieldMismatch,
    InputError,
    NotATower,
    ParseError,
)
from .ramfilt import _admissible

# A reduction step adds up to p terms, and each binomial row it reads has up
# to p - 1 entries, built on first use, so the tower cost grows with p: in
# process on a shared 2-vCPU VM, `tower --p 251 --j 1 --F x^-300` takes
# ~6 ms cold and ~3 ms warm.
MAX_EXT_P = 251


class ExtFieldSpec(_Record):
    """Degree-p extension of k((x)) with defining equation y^p - y = x^(-j);
    p <= MAX_EXT_P and j <= 2^64, as for exponents, so the upper jumps print.
    `_ring` is (1/j mod p, j*(p - 1)), the tower's parameters in weight
    space, computed when the extension is built."""

    __slots__ = ("_ring",)
    _fields = ("field", "j")

    def __init__(self, field: FieldSpec, j: int):
        require_type(field, FieldSpec, "field")
        p = require_int(field.p, "extension characteristic p", 2, MAX_EXT_P)
        if require_int(j, "first jump j", 1) % p == 0:
            raise InputError(f"first jump {j} must be positive and prime to p")
        _store(self, (field, j))
        _set_ring(self, (pow(j, -1, p), j * (p - 1)))

    @property
    def p(self) -> int:
        return self.field.p


_set_ring = ExtFieldSpec._ring.__set__


class ExtElement(_IntMap):
    """The map `_ints` {p*e - j*i: v} of sum c x^e y^i: int e, 0 <= i < p,
    and v the nonzero int form of c in ext.field.  The constructor checks
    caller input, up to p Laurent coefficients a_i of sum a_i(x) y^i (the
    missing ones are zero); `_trusted` builds internal results."""

    __slots__ = ()
    ext = property(attrgetter("_over"))
    _field = property(attrgetter("_over.field"))
    _ring = property(attrgetter("_over._ring"))
    _noun = "tower elements"
    pow_p = _IntMap._pow_p

    def __init__(self, ext: ExtFieldSpec, coeffs):
        require_type(ext, ExtFieldSpec, "ext")
        coeffs, p, j = tuple(coeffs), ext.p, ext.j
        if len(coeffs) > p:
            raise InputError(f"more than {p} coefficients")
        ints = {}
        for i, a in enumerate(coeffs):
            if not isinstance(a, LaurentPoly):
                raise TypeError(f"coefficient of y^{i}: expected LaurentPoly, "
                                f"got {type(a).__name__}")
            if a.spec is not ext.field and a.spec != ext.field:
                raise FieldMismatch(f"{ext.field} vs {a.spec}")
            ints.update((p * e - j * i, v) for e, v in a._ints.items())
        self._over = ext
        self._ints = ints

    @classmethod
    def x_pow(cls, ext: ExtFieldSpec, e: int, coeff=1) -> "ExtElement":
        return cls(ext, [LaurentPoly.x_pow(ext.field, e, coeff)])

    @classmethod
    def y(cls, ext: ExtFieldSpec) -> "ExtElement":
        return cls._trusted(ext, {-ext.j: 1})

    def _split(self, weights) -> list:
        """The p rows [(e, int form), ...] of the a_i of sum a_i(x) y^i, in
        the order of `weights`: w is x^e y^i for i = -w/j mod p and
        e = (w + j*i)/p, the one monomial of weight w, as p does not divide j."""
        ext, ints = self.ext, self._ints
        p, j, jinv = ext.p, ext.j, ext._ring[0]
        rows = [[] for _ in range(p)]
        for w in weights:
            i = -w * jinv % p  # the y-degree of w
            rows[i].append(((w + j * i) // p, ints[w]))
        return rows

    @property
    def coeffs(self) -> tuple[LaurentPoly, ...]:
        """The p Laurent coefficients a_i of sum a_i(x) y^i (`_split`)."""
        field = self.ext.field
        return tuple(LaurentPoly._trusted(field, dict(r)) for r in self._split(self._ints))

    @property
    def terms(self) -> dict:
        """{(e, i): nonzero FieldElement} of sum c x^e y^i, read off `coeffs`."""
        return {(e, i): c for i, a in enumerate(self.coeffs) for e, c in a.terms.items()}

    def __str__(self):
        return format_ext(self)

    def __repr__(self):
        return f"<{self} in y^{self.ext.p} - y = x^-{self.ext.j}>"


class ExtReduced(_Record):
    """Reduction result; the original element minus `reduced` equals
    substitution^p - substitution exactly."""

    __slots__ = ()
    _fields = ("reduced", "jump", "substitution")

    def __init__(self, reduced: ExtElement, jump: "int | _Unramified",
                 substitution: ExtElement):
        _store(self, (reduced, jump, substitution))


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
    return ExtReduced(*_reduce(F, ExtElement, "F"))


def minimal_tower_element(ext: ExtFieldSpec) -> ExtElement:
    """y^(p^2 - p + 1), the least valuation a second tower layer can have;
    (y^(p-1))^p * y by the exact Frobenius, since p^2 - p + 1 = (p - 1)p + 1."""
    y = ExtElement.y(require_type(ext, ExtFieldSpec, "ext"))
    return (y ** (ext.p - 1)).pow_p() * y


def upper_jumps(ext: ExtFieldSpec, J) -> tuple[int, int]:
    """Upper jumps (sigma_1, sigma_2) of the tower whose reduced second
    lower jump is J: sigma_1 = j and sigma_2 = j + (J - j)/p.

    Jump data that cannot come from a cyclic p^2 tower is rejected: J must
    be an int with |J| <= 2^4096 (so the messages below print it), exceed j,
    be congruent to j mod p, and yield an admissible pair.
    """
    p, j = require_type(ext, ExtFieldSpec, "ext").p, ext.j
    if J is UNRAMIFIED:
        raise DegenerateTower("second layer is unramified")
    if require_int(J, "second lower jump J", -2**4096, 2**4096, NotATower) < j:
        raise DegenerateTower(f"second lower jump {J} falls below the first jump {j}")
    if J == j:
        raise NotATower("second lower jump must strictly exceed the first")
    if (J - j) % p:
        raise NotATower(f"lower jump {J} is not congruent to {j} mod {p}")
    sigma2 = j + (J - j) // p
    if not _admissible((j, sigma2), p):  # p is checked by the field
        raise NotATower(f"upper jumps ({j}, {sigma2}) are not p^2-admissible")
    return (j, sigma2)


def tower_jumps(F: ExtElement) -> tuple[int, int]:
    """Upper jumps (sigma_1, sigma_2) of the tower continued by w^p - w = F."""
    ext = require_type(F, ExtElement, "F").ext
    return upper_jumps(ext, ext_as_reduce(F).jump)


def parse_ext(ext: ExtFieldSpec, text: str) -> ExtElement:
    """Parse `;`-separated Laurent coefficients in increasing y-degree.

    Each coefficient is read without its surrounding whitespace, and its
    error names its y-degree: ``coefficient of y^i: MESSAGE``.  Every
    segment adds its terms to one weight map, exponent e of y^i at weight
    p*e - j*i; weights of different y-degrees never meet, as p does not
    divide j.  A text that is not a str is a TypeError.
    """
    require_type(ext, ExtFieldSpec, "ext")
    segments = require_type(text, str, "text").split(";")
    if len(segments) > ext.p:
        raise ParseError(f"more than {ext.p} coefficients in {text!r}")
    p, j = ext.p, ext.j
    ints = {}
    for i, seg in enumerate(segments):
        try:
            _parse_ints(ext.field, seg.strip(), ints, p, -j * i)
        except ParseError as exc:
            raise ParseError(f"coefficient of y^{i}: {exc}") from None
    return ExtElement._trusted(ext, ints)


def format_ext(F: ExtElement) -> str:
    """`format_laurent` of each coefficient, `;`-separated: one sort, no `LaurentPoly`."""
    fmt = require_type(F, ExtElement, "F")._field.fmt
    return " ; ".join(_format_terms(row, fmt) for row in F._split(sorted(F._ints)))
