"""Global invariants: ramification divisors, Riemann-Hurwitz genus, genus
increments under conductor deformation, genus spectra, and Kato's
smoothness invariant for families of curve germs.

A branch point is a Filtration (BranchPoint only builds it from upper
jumps), so the genus reads the Herbrand knot table its constructor built.
Genus values are asserted integral at every exit; a non-integral genus is
surfaced as an InvariantViolation, since the formulas assume the branch
data comes from an actual cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InconsistentInput,
    InputError,
    InvalidJump,
    InvariantViolation,
    NotLarger,
)
from .algebra import require_int, require_prime
from .ramfilt import (
    Filtration,
    InertiaShape,
    _read_rational,
    json_typed,
    parse_rational,
    reject_unknown_keys,
    shape_from_dict,
)


class BranchPoint(Filtration):
    """A Filtration built from its upper jumps, listed with multiplicity in
    ascending order: each run of equal jumps becomes one break.  A jump is
    a Fraction, an int or a wire string -?[0-9]+(/[0-9]+)? (InputError
    naming the jump by its 1-based index otherwise); any other type, a
    float among them, is a TypeError naming it (`_read_rational`).
    A jump that repeats the previous one as given (the same object, or an
    equal string) adds to the run without being read again; any other
    jump is read, then compared with the previous break's value."""

    __slots__ = ()

    def __init__(self, shape: InertiaShape, upper_jumps=()):
        breaks, given = [], None
        for i, s in enumerate(upper_jumps, 1):
            if breaks and (s is given or (type(s) is type(given) is str and s == given)):
                breaks[-1][1] += 1
                continue
            given = s
            if type(s) is not Fraction:
                s = _read_rational(s, "upper jump", i)
            if breaks and breaks[-1][0] == s:
                breaks[-1][1] += 1
            else:
                breaks.append([s, 1])
        super().__init__(shape, breaks)

    @property
    def upper_jumps(self) -> tuple:
        return tuple(s for s, mult in self.breaks for _ in range(mult))


def branch_from_dict(d: dict) -> BranchPoint:
    """Decode a branch-point JSON object; upper jumps are num/den strings
    and must form a valid filtration (InputError otherwise)."""
    try:
        reject_unknown_keys(d, ("p", "e", "m", "upper_jumps"), "branch point")
        shape = shape_from_dict(d)
        listed = json_typed(d.get("upper_jumps", []), list, '"upper_jumps"')
        jumps = tuple(parse_rational(s, "upper jump", i) for i, s in enumerate(listed, 1))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad branch point object: {exc}") from exc
    bp = BranchPoint(shape, jumps)
    if bp._problems:
        raise InputError("invalid branch point: " + "; ".join(bp._problems))
    return bp


@dataclass(frozen=True)
class CoverData:
    """Group order |G| >= 1, base genus and branch data of a Galois cover."""

    group_order: int
    g_X: int
    branch: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "branch", tuple(self.branch))
        require_int(self.group_order, "group order |G|", 1)
        require_int(self.g_X, "base genus g_X", 0)
        for bp in self.branch:
            if self.group_order % bp.shape.order:
                raise InputError(
                    f"inertia order {bp.shape.order} does not divide |G| = {self.group_order}"
                )


@dataclass(frozen=True)
class KatoInput:
    """Degrees of the ramification divisors over the generic and special
    fibres, plus the number of points over the singularity in the
    normalization; each at most 2^64, which keeps mu short enough for str()."""

    n: int
    d_K: int
    d_k: int
    m_w: int

    def __post_init__(self):
        require_int(self.n, "cover degree n", 1, error=InconsistentInput)
        require_int(self.m_w, "point count m_w", 1, error=InconsistentInput)
        require_int(self.d_K, "generic degree d_K", 0, error=InconsistentInput)
        require_int(self.d_k, "special degree d_k", 0, self.d_K, InconsistentInput)

    @property
    def delta(self) -> Fraction:
        """Singularity delta-invariant, derived via mu = 2*delta - m_w + 1."""
        return Fraction(self.d_K - self.d_k, 2)


def ram_divisor_degree(filt: Filtration) -> int:
    """Degree of the local ramification divisor, Hilbert's different formula
    |I| - 1 + |I|*sigma_r - psi(sigma_r) at the conductor sigma_r (0 when tame), in
    the last upper and lower knots; InvariantViolation if the filtration is invalid
    (the findings recorded when it was built)."""
    if filt._problems:
        raise InvariantViolation(f"invalid branch point {filt}: " + "; ".join(filt._problems))
    order, den = filt.shape.order, filt._den
    deg_den = (order - 1) * den + order * filt._upper[-1] - filt._lower[-1]
    if deg_den % den or deg_den < 0:
        raise InvariantViolation(f"ramification degree {Fraction(deg_den, den)} at {filt} "
                                 "is not a natural number")
    return deg_den // den


def rh_genus(cd: CoverData) -> int:
    """Riemann-Hurwitz genus of the cover, exact."""
    G = cd.group_order
    total = (2 * cd.g_X - 2) * G + sum(
        G // bp.shape.order * ram_divisor_degree(bp) for bp in cd.branch
    )
    if total % 2:
        raise InvariantViolation(f"genus {Fraction(total + 2, 2)} is not an integer")
    g = total // 2 + 1
    if g < 0:
        raise InvariantViolation(f"genus {g} is negative; no such cover exists")
    return g


def _deformation_gap(shape: InertiaShape, sigma, s: int) -> tuple[int, int]:
    """s/m - sigma for a deformation target s, as the unreduced fraction
    (s*den - m*num, m*den) over sigma = num/den, with p and m read off the
    shape: InvalidJump unless s is an int in 1..m*2^65 prime to p, NotLarger
    unless s > m*sigma.  A string sigma is read by the wire grammar of
    `parse_rational`.  The bound of `Filtration` on sigma comes first, so
    every value a message prints is short enough for str()."""
    p, m = shape.p, shape.m
    if type(sigma) is not Fraction:
        sigma = _read_rational(sigma, "sigma")
    num, den = sigma.as_integer_ratio()
    if abs(num) > den << 64 or den > m << 64:
        raise InputError("sigma exceeds the bound |sigma| <= 2^64 with a denominator "
                         "at most m*2^64")
    # s/m up to 2^65 leaves room past m*sigma <= m*2^64
    if require_int(s, "conductor s", 1, m << 65, InvalidJump) % p == 0:
        raise InvalidJump(f"conductor {s} must be positive and prime to {p}")
    if s * den <= m * num:
        raise NotLarger(f"conductor {s} does not exceed m*sigma = {m * sigma}")
    return s * den - m * num, m * den


def genus_increment(group_order: int, p: int, a: int, m: int, sigma, s: int) -> int:
    """Genus gained by moving an a-fold top break from sigma out to s/m:
    |G| * (s/m - sigma) * (1 - p^-a) / 2, with 1 <= |G| <= 2^64 and so
    1 <= a <= 64, as p^a divides |G|; (p, a, m) must form an `InertiaShape`."""
    require_int(group_order, "group order |G|", 1)
    require_int(a, "subgroup exponent a", 1, 64)
    t, d = _deformation_gap(InertiaShape(p, a, m), sigma, s)
    pa = p**a
    num, den = group_order * (pa - 1) * t, 2 * pa * d
    if num % den or num // den < 0:
        raise InvariantViolation(f"genus increment {Fraction(num, den)} is not a natural number")
    return num // den


def last_lower_jump_increment(
    p: int, j_e: int, e: int, a: int, m: int, sigma, s: int
) -> int:
    """New last lower jump j_e + p^(e-a) * m * (s/m - sigma); always an
    integer prime to p for data coming from a valid filtration.  (p, e, m)
    must form an `InertiaShape`, 1 <= a <= e, and the lower jump j_e lies in
    1..m*p^e*2^64, as for every break of a `Filtration`."""
    shape = InertiaShape(p, e, m)
    t, d = _deformation_gap(shape, sigma, s)
    require_int(a, "subgroup exponent a", 1, e)
    require_int(j_e, "last lower jump j_e", 1, shape.order << 64)
    j, rem = divmod(j_e * d + p ** (e - a) * m * t, d)
    if rem:
        raise InvariantViolation(f"new last lower jump {j + Fraction(rem, d)} is not an integer")
    if j % p == 0:
        raise InvariantViolation(f"new last lower jump {j} is divisible by {p}")
    return j


# The spectrum's cost is linear in its genera: ~10 ms at the cap, ~15 ms rendered (2-vCPU VM).
MAX_SPECTRUM_GENERA = 20000


@dataclass(frozen=True)
class SpectrumResult:
    """Achieved genera plus the arithmetic-progression structure.

    `genera` holds everything achieved including the base genus; `deformed`
    only the genera reached by an actual deformation.  The progression
    metadata describes the deformed family (the base genus may sit outside
    those progressions).
    """

    genera: tuple[int, ...]
    deformed: tuple[int, ...]
    increment: int
    residues: tuple[int, ...]


def genus_spectrum(
    group_order: int,
    p: int,
    a: int,
    m: int,
    sigma0,
    g0: int,
    s_iota: int,
    limit: int,
) -> SpectrumResult:
    """All genera achievable from a base cover of genus g0 and conductor
    sigma0 by conductor deformations, up to `limit`.

    Deformed genera are g0 + genus_increment(s) over conductors s congruent
    to s_iota mod m, prime to p and larger than m*sigma0; the base genus
    itself is included since the undeformed cover exists.  The deformed
    values fall into p - 1 arithmetic progressions with the returned
    increment.  The inertia order p^a*m of the `InertiaShape` (p, a, m) must
    divide |G| <= 2^64; 0 < sigma0 <= 2^64 with a denominator at most m*2^64
    (a string is read by the wire grammar of `parse_rational`), and the ints
    0 <= g0, limit <= 2^64 and 1 <= s_iota <= m.  The window g0..limit holds about
    (limit - g0)*(p - 1)/increment genera, at most MAX_SPECTRUM_GENERA.
    """
    require_int(a, "subgroup exponent a", 1, 64)
    require_int(group_order, "group order |G|", 1)
    if type(sigma0) is not Fraction:
        sigma0 = _read_rational(sigma0, "base conductor")
    num, den = sigma0.as_integer_ratio()
    if num <= 0:
        raise InputError("base conductor sigma0 must be positive")
    if num > den << 64 or den > require_int(m, "tame order m", 1) << 64:
        raise InputError("sigma exceeds the bound |sigma| <= 2^64 with a denominator "
                         "at most m*2^64")
    require_int(g0, "base genus g0", 0)
    require_int(limit, "genus limit", 0)
    require_int(s_iota, "s_iota", 1, m)
    shape = InertiaShape(p, a, m)
    if group_order % shape.order:
        raise InputError(f"p^a*m = {shape.order} does not divide the group order {group_order}")
    inc = p * group_order * (p**a - 1) // (2 * p**a)  # exact: p^a | |G|, 2 | p*(p^a - 1)
    if (limit - g0) * (p - 1) > MAX_SPECTRUM_GENERA * inc:
        raise InputError(
            f"window {g0}..{limit} holds about {(limit - g0) * (p - 1) // inc} genera, "
            f"above the cap {MAX_SPECTRUM_GENERA}"
        )
    # the first candidate s = s_iota + k*m above m*sigma0, stepped once more
    # if p divides it (m is prime to p, so s + m is not)
    above = m * num // den + 1
    s = s_iota + m * max(0, -((s_iota - above) // m))
    if s % p == 0:
        s += m
    # genus_increment in integers: g(s) = g0 + inc*(s - m*sigma0)/(p*m), above g0 and
    # rising with s; for p = 2 a step of m can be worth half a genus, so g is read from s.
    # Candidates prime to p differ by multiples of m (of 2m when p = 2), so
    # with p^a | |G| every increment is integral iff this first one is
    t, d = s * den - m * num, p * m * den
    if inc * t % d:
        raise InputError(f"base conductor {sigma0} does not fit the inertia data: genus "
                         f"increment {Fraction(inc * t, d)} is not a natural number")
    deformed = []
    g = g0 + inc * t // d
    while g <= limit:
        deformed.append(g)
        s += m
        if s % p == 0:
            s += m
        g = g0 + inc * (s * den - m * num) // d
    deformed = tuple(deformed)
    residues = tuple(sorted({g % inc for g in deformed}))
    if len(residues) > p - 1:
        raise InvariantViolation(
            f"deformed genera occupy {len(residues)} residue classes, expected at most {p - 1}"
        )
    return SpectrumResult(((g0,) if g0 <= limit else ()) + deformed, deformed, inc, residues)


def contains_progressions(result: SpectrumResult, p: int) -> bool:
    """Check the deformed family really forms p - 1 gapless arithmetic
    progressions of the stated increment inside the computed window."""
    if len(result.residues) != require_prime(p) - 1:
        return False
    inc = result.increment
    for r in result.residues:
        members = [g for g in result.deformed if g % inc == r]
        if any(y - x != inc for x, y in zip(members, members[1:])):
            return False
    return True


def spectrum_density(group_order: int, p: int, a: int) -> Fraction:
    """Lower bound 2*(p^a - p^(a-1)) / (|G| * (p^a - 1)) on the natural
    density of achieved genera."""
    require_int(group_order, "group order |G|", 1)
    require_int(a, "subgroup exponent a", 1, 64)
    require_prime(p)
    return Fraction(2 * (p**a - p ** (a - 1)), group_order * (p**a - 1))


def kato_mu(k: KatoInput) -> tuple[int, bool]:
    """Kato's smoothness invariant mu = 1 - m_w + d_K - d_k.

    The special fibre is smooth at the point exactly when the two
    ramification degrees agree and the normalization has a single point
    there; that conjunction is equivalent to mu = 0 for data coming from an
    actual family.  Inputs with mu < 0 cannot occur and are rejected.
    """
    mu = 1 - k.m_w + k.d_K - k.d_k
    if mu < 0:
        raise InconsistentInput(
            f"mu = {mu} < 0; no degeneration has these invariants"
        )
    smooth = k.d_K == k.d_k and k.m_w == 1
    return mu, smooth
