"""Artin-Schreier covers y^p - y = f of the punctured formal disk.

Reduction repeatedly kills leading pole terms c*x^(-pk) by the substitution
y -> y + pth_root(c)*x^(-k), which changes f by an element of the image of
h -> h^p - h and therefore not the isomorphism class.  The conductor is the
prime-to-p pole order of the reduced right-hand side.

One engine, `_reduce_terms`, runs this loop for both rings, here and for
the tower extension in `asext`, on the element's own {weight: int form}
map (`algebra._IntMap`): the weight of x^e is e here and p*e - j*i for
x^e y^i in the tower, a bijection onto the integers.  A kill at weight v
is the same rule in both rings, its updates all weigh more than v, and a
heap of plain ints finds the leading term, so k steps cost O(k log k)
heap work plus k p-th roots.  `_reduce` runs it on a copy and checks the
certificate f - f_reduced = h^p - h with the ring's own arithmetic, whose
p-th power shares the kill's binomial rows.  No `FieldElement` is built.

Terms of exponent >= 0 never affect ramification at x = 0 here: over the
algebraically closed field these covers stand in for, every regular part is
in the image of h -> h^p - h.  Conductor extraction therefore reads only the
pole part; the split cover is reported by the distinct UNRAMIFIED marker,
never by 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .algebra import MAX_EXPONENT, LaurentPoly, _binomial_rows, _form, require_int
from .errors import (
    InvalidJump,
    InvariantViolation,
    NotLarger,
    SplitInput,
    ZeroParameter,
)


class _Unramified:
    """Marker for the split (unramified) cover.  Distinct from every integer."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, _Unramified)

    def __hash__(self):
        return hash("ramforge.UNRAMIFIED")

    def __repr__(self):
        return "unramified"


UNRAMIFIED = _Unramified()


class Connectedness(enum.Enum):
    CONNECTED = "connected"
    DISCONNECTED = "disconnected"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class ASReduced:
    """Reduction result: f_reduced is in reduced form and differs from the
    input by artin_schreier(substitution) exactly."""

    f_reduced: LaurentPoly
    conductor: "int | _Unramified"
    substitution: LaurentPoly


def _reduce_terms(terms: dict, spec, jinv: int, step: int):
    """The Artin-Schreier reduction loop, in place on a {weight: int form}
    map over spec: the line (jinv = step = 0, weight e for x^e) or the tower
    (jinv = 1/j mod p, step = j*(p - 1)).

    While the least weight v is negative and divisible by p, its term c is
    killed by h = r m with r = root(c) and m the monomial of weight v/p and
    y-degree beta = -(v/p)/j mod p: f - (h^p - h) drops c at v, gains r at
    v/p and, in the tower, -C(beta, b) c at v + step*b for b = 1..beta.
    Each of these weighs more than v, so the valuation rises with every
    step and the loop ends.  The heap holds plain weights; a weight whose
    term cancelled is skipped when it surfaces.

    Returns (conductor, h): -v for the final valuation v when it is
    negative, hence prime to p, else UNRAMIFIED (also when no term is left);
    and the substitution h as {v/p: r}.
    """
    p, add, neg, mul, root = spec.p, spec.add, spec.neg, spec.mul, spec.root
    rows = _binomial_rows(p) if step else ((),)  # the line's kills have beta = 0
    heap = list(terms)
    heapify(heap)
    get = terms.get
    h = {}
    while heap:
        v = heappop(heap)
        c = get(v)
        if c is None:  # stale: the term was cancelled
            continue
        if v >= 0:
            break
        if v % p:
            return -v, h
        del terms[v]
        w = v // p
        h[w] = r = root(c)
        row = rows[-w * jinv % p]  # algebra._ydeg, inlined
        if row:
            c = neg(c)
        for k, d in [(w, r), *[(v + step * b, mul(c, m)) for b, m in row]]:
            old = get(k)
            if old is None:
                terms[k] = d
                heappush(heap, k)
            elif s := add(old, d):
                terms[k] = s
            else:
                del terms[k]
    return UNRAMIFIED, h


def _reduce(f):
    """(reduced, conductor, substitution) of f, an element of either ring:
    `_reduce_terms` on a copy of its weight map, then the certificate
    f - reduced = substitution^p - substitution, checked on the results."""
    terms = dict(f._ints)
    conductor, h = _reduce_terms(terms, f._field, *f._ring)
    g, h = f._trusted(f._over, terms), f._trusted(f._over, h)
    if f - g != h._pow_p() - h:
        raise InvariantViolation("reduction substitution does not account for the change")
    return g, conductor, h


def as_reduce(f: LaurentPoly) -> ASReduced:
    """Reduce f until its valuation is >= 0 or negative and prime to p.

    Total function: each step replaces the leading term c*x^(-pk) by
    pth_root(c)*x^(-k), strictly raising the valuation, so the loop
    terminates.  The accumulated substitution h satisfies
    f - f_reduced = h^p - h, which is checked before returning.
    """
    return ASReduced(*_reduce(f))


def as_conductor(f):
    """Prime-to-p pole order of the reduced form, or UNRAMIFIED."""
    return as_reduce(f).conductor


def as_deform(f: LaurentPoly, s: int, t0) -> LaurentPoly:
    """Add the dominating pole t0*x^(-s); the result has conductor exactly s.
    s <= 2^64, the grammar's exponent bound, so x^(-s) parses back."""
    spec = f.spec
    t0 = _form(spec, t0)
    if require_int(s, "target conductor s", 1, MAX_EXPONENT, InvalidJump) % spec.p == 0:
        raise InvalidJump(f"target conductor {s} must be positive and prime to {spec.p}")
    if not t0:
        raise ZeroParameter("deformation parameter must be nonzero")
    current = as_conductor(f)
    floor = 0 if current is UNRAMIFIED else current
    if s <= floor:
        raise NotLarger(f"target conductor {s} does not exceed current {current}")
    out = f + LaurentPoly._trusted(spec, {-s: t0})
    if as_conductor(out) != s:
        raise InvariantViolation("deformed cover does not have the target conductor")
    return out


def action_connectedness(f_phi: LaurentPoly, f_alpha: LaurentPoly) -> Connectedness:
    """Connectedness of the acted-on cover y^p - y = f_phi + f_alpha of two
    ramified covers, over the algebraically closed k they stand in for: it
    is split (DISCONNECTED) exactly when as_conductor of the sum is
    UNRAMIFIED, as every constant is c^p - c in k.  Over F_q a reduced sum
    with a constant of nonzero trace is connected but not geometrically
    connected (the constant-field extension); it reads DISCONNECTED."""
    if as_conductor(f_phi) is UNRAMIFIED or as_conductor(f_alpha) is UNRAMIFIED:
        raise SplitInput("connectedness check requires two ramified covers")
    if as_conductor(f_phi + f_alpha) is UNRAMIFIED:
        return Connectedness.DISCONNECTED
    return Connectedness.CONNECTED
