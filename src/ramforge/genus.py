"""Global invariants: ramification divisors, Riemann-Hurwitz genus, genus
increments under conductor deformation, genus spectra, and Kato's
smoothness invariant for families of curve germs.

A branch point is a Filtration: BranchPoint is a function that builds one
from upper jumps, so the genus reads the Herbrand knot table the
Filtration constructor built.
Genus values are asserted integral at every exit; a non-integral genus is
surfaced as an InvariantViolation, since the formulas assume the branch
data comes from an actual cover.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    InconsistentInput,
    InputError,
    InvalidJump,
    InvariantViolation,
    NotLarger,
)
from .algebra import _Record, _store, require_int, require_prime, require_type
from .ramfilt import (
    Filtration,
    InertiaShape,
    _read_rational,
    json_typed,
    parse_rational,
    reject_unknown_keys,
    shape_from_dict,
)


def BranchPoint(shape: InertiaShape, upper_jumps=()) -> Filtration:
    """The Filtration of upper jumps listed with multiplicity in ascending
    order: each run of equal jumps becomes one break.  A jump is a
    Fraction, an int or a wire string -?[0-9]+(/[0-9]+)? (InputError
    naming the jump by its 1-based index otherwise); any other type, a
    float among them, is a TypeError naming it (`_read_rational`).
    A jump that repeats the previous one as given (the same object, or an
    equal string) adds to the run without being read again; any other
    jump is read, then its integer ratio is compared with the previous
    break's.  `Filtration.upper_jumps` lists the jumps back."""
    breaks, given, last = [], None, None
    for i, s in enumerate(upper_jumps, 1):
        if breaks and (s is given or (type(s) is type(given) is str and s == given)):
            breaks[-1][1] += 1
            continue
        given = s
        if type(s) is not Fraction:
            s = _read_rational(s, "upper jump", i)
        if (ratio := s.as_integer_ratio()) == last:  # None before the first break
            breaks[-1][1] += 1
        else:
            breaks.append([s, 1])
            last = ratio
    return Filtration(shape, breaks)


def branch_from_dict(d: dict) -> Filtration:
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


class CoverData(_Record):
    """Group order |G| >= 1, base genus and branch data of a Galois cover:
    each branch point a Filtration."""

    __slots__ = ()
    _fields = ("group_order", "g_X", "branch")

    def __init__(self, group_order: int, g_X: int, branch: tuple = ()):
        branch = tuple(branch)
        require_int(group_order, "group order |G|", 1)
        require_int(g_X, "base genus g_X", 0)
        for i, bp in enumerate(branch, 1):
            if not isinstance(bp, Filtration):  # inline per branch point; the check raises
                require_type(bp, Filtration, f"branch point {i}")
            if group_order % (order := bp._values[0].order):
                raise InputError(f"inertia order {order} does not divide |G| = {group_order}")
        _store(self, (group_order, g_X, branch))


class KatoInput(_Record):
    """Degrees of the ramification divisors over the generic and special
    fibres, plus the number of points over the singularity in the
    normalization; each at most 2^64, which keeps mu short enough for str()."""

    __slots__ = ()
    _fields = ("n", "d_K", "d_k", "m_w")

    def __init__(self, n: int, d_K: int, d_k: int, m_w: int):
        require_int(n, "cover degree n", 1, error=InconsistentInput)
        require_int(m_w, "point count m_w", 1, error=InconsistentInput)
        require_int(d_K, "generic degree d_K", 0, error=InconsistentInput)
        require_int(d_k, "special degree d_k", 0, d_K, InconsistentInput)
        _store(self, (n, d_K, d_k, m_w))

    @property
    def delta(self) -> Fraction:
        """Singularity delta-invariant, derived via mu = 2*delta - m_w + 1."""
        return Fraction(self.d_K - self.d_k, 2)


def ram_divisor_degree(filt: Filtration) -> int:
    """Degree of the local ramification divisor, Hilbert's different formula
    |I| - 1 + |I|*sigma_r - psi(sigma_r) at the conductor sigma_r (0 when tame), in
    the last upper and lower knots; InvariantViolation if the filtration is invalid
    (the findings recorded when it was built)."""
    if type(filt) is not Filtration:  # inline, as the genus is summed per branch point
        require_type(filt, Filtration, "filt")
    if filt._problems:
        raise InvariantViolation(f"invalid branch point {filt}: " + "; ".join(filt._problems))
    den, upper, lower, _ = filt._knots
    order = filt._values[0].order
    deg_den = (order - 1) * den + order * upper[-1] - lower[-1]
    if deg_den % den or deg_den < 0:
        raise InvariantViolation(f"ramification degree {Fraction(deg_den, den)} at {filt} "
                                 "is not a natural number")
    return deg_den // den


def rh_genus(cd: CoverData) -> int:
    """Riemann-Hurwitz genus of the cover, exact."""
    G, g_X, branch = require_type(cd, CoverData, "cd")._values
    total = (2 * g_X - 2) * G + sum(
        G // bp._values[0].order * ram_divisor_degree(bp) for bp in branch
    )
    if total % 2:
        raise InvariantViolation(f"genus {Fraction(total + 2, 2)} is not an integer")
    g = total // 2 + 1
    if g < 0:
        raise InvariantViolation(f"genus {g} is negative; no such cover exists")
    return g


def _sigma(sigma, m, name: str = "sigma", label: str = "sigma") -> Fraction:
    """sigma, read by the wire grammar naming `name` if a string; InputError
    `LABEL must be positive`, then past 2^64 or a denominator m*2^64."""
    if type(sigma) is not Fraction:
        sigma = _read_rational(sigma, name)
    num, den = sigma.as_integer_ratio()
    if num <= 0:
        raise InputError(f"{label} must be positive")
    if num > den << 64 or den > require_int(m, "tame order m", 1) << 64:
        raise InputError("sigma exceeds the bound |sigma| <= 2^64 with a denominator "
                         "at most m*2^64")
    return sigma


def _deformation(group_order: int, p: int, a: int, m: int, sigma, name: str = "sigma",
                 label: str = "sigma", ints: tuple = ()) -> tuple[Fraction, int]:
    """The one reader of a move of an a-fold top break out of sigma: checks
    1 <= a <= 64, 1 <= |G| <= 2^64, sigma (`_sigma`), the `require_int`
    argument tuples `ints` (the spectrum's, in its order), the shape (p, a,
    m) and p^a*m | |G|, in that order; returns sigma and the gain inc =
    p*|G|*(p^a - 1)/(2p^a), exact as p^a | |G| and 2 | p*(p^a - 1)."""
    require_int(a, "subgroup exponent a", 1, 64)
    require_int(group_order, "group order |G|", 1)
    sigma = _sigma(sigma, m, name, label)
    for args in ints:
        require_int(*args)
    order = InertiaShape(p, a, m).order
    if group_order % order:
        raise InputError(f"p^a*m = {order} does not divide the group order {group_order}")
    return sigma, p * group_order * (p**a - 1) // (2 * p**a)


def _target(p: int, m: int, sigma: Fraction, s: int) -> tuple[int, int]:
    """s/m - sigma as the unreduced (s*den - m*num, m*den) over sigma =
    num/den: InvalidJump unless s is an int in 1..m*2^65 (room past m*sigma
    <= m*2^64) prime to p, NotLarger unless s > m*sigma."""
    num, den = sigma.as_integer_ratio()
    if require_int(s, "conductor s", 1, m << 65, InvalidJump) % p == 0:
        raise InvalidJump(f"conductor {s} must be positive and prime to {p}")
    if s * den <= m * num:
        raise NotLarger(f"conductor {s} does not exceed m*sigma = {m * sigma}")
    return s * den - m * num, m * den


def genus_increment(group_order: int, p: int, a: int, m: int, sigma, s: int) -> int:
    """Genus |G| * (s/m - sigma) * (1 - p^-a) / 2 = inc * (s/m - sigma) / p
    gained by moving an a-fold top break from sigma out to s/m."""
    sigma, inc = _deformation(group_order, p, a, m, sigma)
    t, d = _target(p, m, sigma, s)
    g, rem = divmod(inc * t, p * d)
    if rem:
        raise InvariantViolation(f"genus increment {g + Fraction(rem, p * d)} "
                                 "is not a natural number")
    return g


def last_lower_jump_increment(
    p: int, j_e: int, e: int, a: int, m: int, sigma, s: int
) -> int:
    """New last lower jump j_e + p^(e-a) * m * (s/m - sigma); always an
    integer prime to p for data coming from a valid filtration.  (p, e, m)
    must form an `InertiaShape`, sigma and s pass `_sigma` and `_target`,
    1 <= a <= e, and j_e lies in 1..m*p^e*2^64, as for a `Filtration`."""
    shape = InertiaShape(p, e, m)
    t, d = _target(p, m, _sigma(sigma, m), s)
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


class SpectrumResult(_Record):
    """Achieved genera plus the arithmetic-progression structure.

    `genera` holds everything achieved including the base genus; `deformed`
    only the genera reached by an actual deformation.  The progression
    metadata describes the deformed family (the base genus may sit outside
    those progressions).
    """

    __slots__ = ()
    _fields = ("genera", "deformed", "increment", "residues")

    def __init__(self, genera: tuple[int, ...], deformed: tuple[int, ...], increment: int,
                 residues: tuple[int, ...]):
        _store(self, (genera, deformed, increment, residues))


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
    sigma0, inc = _deformation(
        group_order, p, a, m, sigma0, "base conductor", "base conductor sigma0",
        ((g0, "base genus g0", 0), (limit, "genus limit", 0), (s_iota, "s_iota", 1, m)))
    if (limit - g0) * (p - 1) > MAX_SPECTRUM_GENERA * inc:
        raise InputError(
            f"window {g0}..{limit} holds about {(limit - g0) * (p - 1) // inc} genera, "
            f"above the cap {MAX_SPECTRUM_GENERA}"
        )
    # the first candidate s = s_iota + k*m above m*sigma0, stepped once more
    # if p divides it (m is prime to p, so s + m is not)
    num, den = sigma0.as_integer_ratio()
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
    residues = require_type(result, SpectrumResult, "result").residues
    if len(residues) != require_prime(p) - 1:
        return False
    inc = result.increment
    for r in residues:
        members = [g for g in result.deformed if g % inc == r]
        if any(y - x != inc for x, y in zip(members, members[1:])):
            return False
    return True


def spectrum_density(group_order: int, p: int, a: int) -> Fraction:
    """Lower bound 2*(p^a - p^(a-1)) / (|G| * (p^a - 1)) on the natural
    density of achieved genera, the p - 1 progressions over the increment
    inc of `_deformation` (m = 1, sigma = 1): (p - 1)/inc."""
    return Fraction(p - 1, _deformation(group_order, p, a, 1, 1)[1])


def kato_mu(k: KatoInput) -> tuple[int, bool]:
    """Kato's smoothness invariant mu = 1 - m_w + d_K - d_k.

    The special fibre is smooth at the point exactly when the two
    ramification degrees agree and the normalization has a single point
    there; that conjunction is equivalent to mu = 0 for data coming from an
    actual family.  Inputs with mu < 0 cannot occur and are rejected.
    """
    m_w = require_type(k, KatoInput, "k").m_w
    mu = 1 - m_w + k.d_K - k.d_k
    if mu < 0:
        raise InconsistentInput(
            f"mu = {mu} < 0; no degeneration has these invariants"
        )
    smooth = k.d_K == k.d_k and m_w == 1
    return mu, smooth
