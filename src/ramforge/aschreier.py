"""Artin-Schreier covers y^p - y = f of the punctured formal disk.

Reduction repeatedly kills leading pole terms c*x^(-pk) by the substitution
y -> y + pth_root(c)*x^(-k), which changes f by an element of the image of
h -> h^p - h and therefore not the isomorphism class.  The conductor is the
prime-to-p pole order of the reduced right-hand side.

One engine, `_reduce_terms`, runs this loop for both rings, here and for
the tower extension in `asext`, on the element's own {weight: int form}
map (`algebra._IntMap`): the weight of x^e is e here and p*e - j*i for
x^e y^i in the tower, a bijection onto the integers.  A kill at weight v
is the same rule in both rings, its updates all weigh more than v and
are written into the map and the heap of plain int weights in place, so k
steps cost O(k log k) heap work plus k p-th roots.  `_reduce` runs it on a
copy and checks the certificate f - f_reduced = h^p - h in one pass over
each map: f_reduced - h, to which `_IntMap._add_pow_p` (the rule `_pow_p`
runs on an empty map) adds the terms of h^p, recomputed from h by the
field's Frobenius, must give f.  No `FieldElement` is built.

Terms of exponent >= 0 never affect ramification at x = 0 here: over the
algebraically closed field these covers stand in for, every regular part is
in the image of h -> h^p - h.  Conductor extraction therefore reads only the
pole part; the split cover is reported by the distinct UNRAMIFIED marker,
never by 0.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .algebra import (MAX_EXPONENT, LaurentPoly, _binomial_rows, _form, _plus, _Record, _store,
                      require_int, require_type)
from .errors import InvalidJump, InvariantViolation, NotLarger, ZeroParameter


class _Unramified:
    """Marker for the split (unramified) cover.  Distinct from every integer;
    the one instance UNRAMIFIED, which copy and pickle return, equals only itself."""

    __slots__ = ()

    def __reduce__(self):
        return "UNRAMIFIED"

    def __repr__(self):
        return "unramified"


UNRAMIFIED = _Unramified()


class ASReduced(_Record):
    """Reduction result: f_reduced is in reduced form and differs from the
    input by artin_schreier(substitution) exactly."""

    __slots__ = ()
    _fields = ("f_reduced", "conductor", "substitution")

    def __init__(self, f_reduced: LaurentPoly, conductor: "int | _Unramified",
                 substitution: LaurentPoly):
        _store(self, (f_reduced, conductor, substitution))


def _reduce_terms(terms: dict, spec, jinv: int, step: int):
    """The Artin-Schreier reduction loop, in place on a {weight: int form}
    map over spec: the line (jinv = step = 0, weight e for x^e) or the tower
    (jinv = 1/j mod p, step = j*(p - 1)).

    While the least weight v is negative and divisible by p, its term c is
    killed by h = r m with r = root(c) and m the monomial of weight v/p and
    y-degree beta = -(v/p)/j mod p: f - (h^p - h) drops c at v, gains r at
    v/p and, in the tower, c times the row's -C(beta, b) at v + step*b for
    b = 1..beta.  Each of these weighs more than v, so the valuation rises
    with every step and the loop ends.  The heap holds plain weights; a
    weight whose term cancelled is skipped when it surfaces.

    Returns (conductor, h): -v for the final valuation v when it is
    negative, hence prime to p, else UNRAMIFIED (also when no term is left);
    and the substitution h as {v/p: r}.
    """
    p, add, mul, root = spec.p, spec.add, spec.mul, spec.root
    # the line's kills have beta = 0; the rows fill on first use, so the
    # tower is told by step, never by rows
    rows = _binomial_rows(p) if step else None
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
        old = get(w)
        if old is None:
            terms[w] = r
            heappush(heap, w)
        elif s := add(old, r):
            terms[w] = s
        else:
            del terms[w]
        if step:
            for b, _, m in rows[-w * jinv % p]:  # the y-degree of w
                k, d = v + step * b, mul(c, m)
                old = get(k)
                if old is None:
                    terms[k] = d
                    heappush(heap, k)
                elif s := add(old, d):
                    terms[k] = s
                else:
                    del terms[k]
    return UNRAMIFIED, h


def _reduce(f, cls: type, name: str):
    """(reduced, conductor, substitution) of f, the caller's argument `name`,
    a cls of either ring: `_reduce_terms` on a copy of its weight map, then
    the certificate f - reduced = h^p - h in one accumulation: reduced - h,
    plus h^p recomputed from h by `_add_pow_p` (not from the kill's c and
    -C), must give f exactly."""
    spec = require_type(f, cls, name)._field
    terms = dict(f._ints)
    conductor, h = _reduce_terms(terms, spec, *f._ring)
    rest = _plus(terms, zip(h, map(spec.neg, h.values())), spec.add)  # reduced - h
    g, h = f._trusted(f._over, terms), f._trusted(f._over, h)
    if h._add_pow_p(rest) != f._ints:
        raise InvariantViolation("reduction substitution does not account for the change")
    return g, conductor, h


def as_reduce(f: LaurentPoly) -> ASReduced:
    """Reduce f until its valuation is >= 0 or negative and prime to p.

    Total function: each step replaces the leading term c*x^(-pk) by
    pth_root(c)*x^(-k), strictly raising the valuation, so the loop
    terminates.  The accumulated substitution h satisfies
    f - f_reduced = h^p - h, which is checked before returning.
    """
    return ASReduced(*_reduce(f, LaurentPoly, "f"))


def as_deform(f: LaurentPoly, s: int, t0) -> LaurentPoly:
    """Add the dominating pole t0*x^(-s); the result has conductor exactly s.
    s <= 2^64, the grammar's exponent bound, so x^(-s) parses back."""
    spec = require_type(f, LaurentPoly, "f").spec
    t0 = _form(spec, t0)
    if require_int(s, "target conductor s", 1, MAX_EXPONENT, InvalidJump) % spec.p == 0:
        raise InvalidJump(f"target conductor {s} must be positive and prime to {spec.p}")
    if not t0:
        raise ZeroParameter("deformation parameter must be nonzero")
    current = as_reduce(f).conductor
    floor = 0 if current is UNRAMIFIED else current
    if s <= floor:
        raise NotLarger(f"target conductor {s} does not exceed current {current}")
    out = f + LaurentPoly._trusted(spec, {-s: t0})
    if as_reduce(out).conductor != s:
        raise InvariantViolation("deformed cover does not have the target conductor")
    return out

