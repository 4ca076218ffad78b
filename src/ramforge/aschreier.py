"""Artin-Schreier covers y^p - y = f of the punctured formal disk.

Reduction repeatedly kills leading pole terms c*x^(-pk) by the substitution
y -> y + pth_root(c)*x^(-k), which changes f by an element of the image of
h -> h^p - h and therefore not the isomorphism class.  The conductor is the
prime-to-p pole order of the reduced right-hand side.

One engine, `_reduce_terms`, runs this loop for both rings: here and, with
val(x^e y^i) = p*e - j*i, for the tower extension in `asext`.  It edits a
{key: int form} dict in place through the field's kernels and finds the
leading term with a lazy min-heap, so k steps cost O(k log k) heap work
plus k p-th roots; the certificate f - f_reduced = h^p - h is checked once,
at the end, on the same int maps.  The engines take and return the int
maps that `LaurentPoly` and `ExtElement` store, so they build no
`FieldElement`.

Terms of exponent >= 0 never affect ramification at x = 0 here: over the
algebraically closed field these covers stand in for, every regular part is
in the image of h -> h^p - h.  Conductor extraction therefore reads only the
pole part; the split cover is reported by the distinct UNRAMIFIED marker,
never by 0.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass

from .algebra import MAX_EXPONENT, LaurentPoly, _plus
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
    POSSIBLY_DISCONNECTED = "possibly-disconnected"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class ASReduced:
    """Reduction result: f_reduced is in reduced form and differs from the
    input by artin_schreier(substitution) exactly."""

    f_reduced: LaurentPoly
    conductor: "int | _Unramified"
    substitution: LaurentPoly


def _reduce_terms(terms: dict, p: int, add, weight, kill):
    """The Artin-Schreier reduction loop, in place on a {key: int form} map
    whose coefficients add under the field kernel add.

    weight(key) is the valuation of the monomial `key`; weights are distinct.
    While the least weight v is negative and divisible by p, the leading
    term (key, c) is killed: kill(key, c) returns the killing monomial
    (m_key, r) and the term updates of f - (m^p - m) as (key, delta) pairs.
    The killed key must vanish and every key the step adds must weigh more
    than v, so the valuation strictly rises and the loop terminates.

    Returns (conductor, h): -v for the final valuation v when it is
    negative, hence prime to p, else UNRAMIFIED (also when no term is left);
    and the substitution h as {m_key: r}.
    """
    heap = [(weight(k), k) for k in terms]
    heapq.heapify(heap)
    heappop, heappush, get = heapq.heappop, heapq.heappush, terms.get
    h = {}
    while True:
        while heap and heap[0][1] not in terms:  # stale: the term was cancelled
            heappop(heap)
        if not heap or heap[0][0] >= 0:
            return UNRAMIFIED, h
        v, key = heap[0]
        if v % p:
            return -v, h
        heappop(heap)
        m_key, r, updates = kill(key, terms[key])
        for k, delta in updates:
            old = get(k)
            new = delta if old is None else add(old, delta)
            if not new:
                terms.pop(k, None)
            else:
                terms[k] = new
                if old is None:
                    w = weight(k)
                    if w <= v:
                        raise InvariantViolation("reduction step failed to raise the valuation")
                    heappush(heap, (w, k))
        if key in terms:
            raise InvariantViolation("reduction step failed to raise the valuation")
        # m has weight v/p and v strictly rises, so no monomial repeats
        h[m_key] = r


def _certify(spec, f: dict, g: dict, hp: dict, h: dict) -> None:
    """Check the certificate f - g = hp - h of a reduction of f to g by the
    substitution h with p-th power hp, all {key: int form} maps over spec."""
    add, neg = spec.add, spec.neg
    if _plus(f, ((k, neg(c)) for k, c in g.items()), add) != _plus(
        hp, ((k, neg(c)) for k, c in h.items()), add
    ):
        raise InvariantViolation("reduction substitution does not account for the change")


def as_reduce(f: LaurentPoly) -> ASReduced:
    """Reduce f until its valuation is >= 0 or negative and prime to p.

    Total function: each step replaces the leading term c*x^(-pk) by
    pth_root(c)*x^(-k), strictly raising the valuation, so the loop
    terminates.  The accumulated substitution h satisfies
    f - f_reduced = h^p - h, which is checked before returning.
    """
    spec = f.spec
    p, neg, root = spec.p, spec.neg, spec.root

    def kill(e, c):
        r = root(c)
        return e // p, r, ((e, neg(c)), (e // p, r))

    terms = dict(f._ints)
    conductor, h = _reduce_terms(terms, p, spec.add, int, kill)  # val(x^e) = e
    frob = spec.frob
    _certify(spec, f._ints, terms, {p * e: frob(r) for e, r in h.items()}, h)
    return ASReduced(LaurentPoly._trusted(spec, terms), conductor,
                     LaurentPoly._trusted(spec, h))


def as_conductor(f):
    """Prime-to-p pole order of the reduced form, or UNRAMIFIED."""
    return as_reduce(f).conductor


def as_genus_affine_line(p: int, j: int) -> int:
    """Genus of the smooth projective model of y^p - y = f(x) with deg f = j."""
    if j < 1 or j % p == 0:
        raise InvalidJump(f"conductor {j} must be positive and prime to {p}")
    num = (p - 1) * (j - 1)
    if num % 2:
        raise InvariantViolation(f"(p-1)(j-1) = {num} is odd")
    return num // 2


def as_deform(f: LaurentPoly, s: int, t0) -> LaurentPoly:
    """Add the dominating pole t0*x^(-s); the result has conductor exactly s."""
    spec = f.spec
    if isinstance(t0, int):
        t0 = spec.scalar(t0)
    if s > MAX_EXPONENT:  # the grammar's exponent bound: x^(-s) must parse back
        raise InvalidJump("target conductor exceeds the bound s <= 2^64")
    if s % spec.p == 0 or s < 1:
        raise InvalidJump(f"target conductor {s} must be positive and prime to {spec.p}")
    if t0.is_zero:
        raise ZeroParameter("deformation parameter must be nonzero")
    current = as_conductor(f)
    floor = 0 if current is UNRAMIFIED else current
    if s <= floor:
        raise NotLarger(f"target conductor {s} does not exceed current {current}")
    out = f + LaurentPoly.x_pow(spec, -s, t0)
    if as_conductor(out) != s:
        raise InvariantViolation("deformed cover does not have the target conductor")
    return out


def action_add(f_phi: LaurentPoly, f_alpha: LaurentPoly) -> LaurentPoly:
    """Group action at equation level: add the right-hand sides."""
    return f_phi + f_alpha


def action_connectedness(f_phi: LaurentPoly, f_alpha: LaurentPoly) -> Connectedness:
    """Conservative connectedness check for the acted-on cover.

    Unequal conductors force connectedness.  With equal conductors, losing
    the common leading pole in the reduced sum is necessary (not sufficient)
    for disconnection, so that case is reported as POSSIBLY_DISCONNECTED.
    """
    c1 = as_conductor(f_phi)
    c2 = as_conductor(f_alpha)
    if c1 is UNRAMIFIED or c2 is UNRAMIFIED:
        raise SplitInput("connectedness check requires two ramified covers")
    if c1 != c2:
        return Connectedness.CONNECTED
    c_sum = as_conductor(f_phi + f_alpha)
    if c_sum == c1:
        return Connectedness.CONNECTED
    return Connectedness.POSSIBLY_DISCONNECTED
