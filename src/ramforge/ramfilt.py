"""Ramification filtrations as first-class values.

A Filtration, an immutable record of its shape and breaks, holds the
breaks of the upper-numbering filtration of an inertia group P semidirect
mu_m with |P| = p^e: a strictly increasing list of rational break indices,
each with a multiplicity saying how many factors of p the group order
drops just above it.  The Herbrand functions psi/phi convert between
upper and lower numbering; everything is exact rational arithmetic, never
floats.

Each Filtration builds its Herbrand knot table once, in its constructor,
as integer knots over the common denominator D (the lcm of the break
denominators): the upper knots sigma_i*D, the lower knots psi(sigma_i)*D
and the integer slope of every segment.  The same loop records which
invariants fail, so a Filtration is checked once, when it is built, and
`validate` reads the record.  The constructor reads each break once: a
first pass reads its value, its multiplicity and the value's integer
ratio, and the knot loop computes with those ints.  psi and phi then
cost one `as_integer_ratio()` read, one integer bisect bounded below at
knot 1 and one Fraction for the result, jump conversion tests the
integer knots for divisibility by D, and lower_to_upper is the only
other walk over the slopes (the inverse one, in integers).
"""

from __future__ import annotations

import math
import random
import re
import sys
from bisect import bisect_left
from fractions import Fraction
from itertools import islice

from .algebra import (_PRIME_BASES, _Record, _shown, _store, require_int, require_prime,
                      require_type)
from .errors import (
    CongruenceViolation,
    InputError,
    InvalidJump,
    InvalidSubgroup,
    InvariantViolation,
    LengthMismatch,
    NotAdmissible,
    NotComparable,
)


class InertiaShape(_Record):
    """Group-order data of an inertia group: wild part p^e, tame part m prime
    to p, each <= 2^64.

    The order |I| = m*p^e is computed once, when the shape is built, and
    kept in the slot `order`, not a field: `_fields`, ==, hash and repr see
    (p, e, m) only."""

    __slots__ = ("order",)
    _fields = ("p", "e", "m")

    def __init__(self, p: int, e: int, m: int = 1):
        # inline, as shapes are built often: the readers run only to raise, or for a p > 37
        if type(p) is not int or p not in _PRIME_BASES:
            require_prime(p)
        if type(e) is not int or not 0 <= e <= 64:
            require_int(e, "wild exponent e", 0)
        if e > 64 or (wild := p**e) > 2**64:  # e > 64 first: p**e for a huge e is costly
            raise InputError(f"wild order {p}^{e} exceeds the bound p^e <= 2^64")
        if type(m) is not int or not 1 <= m <= 2**64:
            require_int(m, "tame order m", 1)
        if m % p == 0:  # p is prime: m is prime to p unless p divides it
            raise InputError(f"tame order {m} must be positive and prime to {p}")
        _store(self, (p, e, m))
        _set_order(self, m * wild)


_set_order = InertiaShape.order.__set__


class Filtration(_Record):
    """Upper-numbering break list (sigma_i, l_i) over an InertiaShape.

    The fields are (shape, breaks), each break a pair (Fraction, int).  The
    constructor also builds the Herbrand knot table as integer knots over
    the common denominator D = lcm of the break denominators: the
    upper knots (0, sigma_1*D, ..., sigma_r*D), the lower knots
    (0, psi(sigma_1)*D, ..., psi(sigma_r)*D) and the slopes
    (m, m*p^l_1, m*p^(l_1+l_2), ...), where slope i holds between knots i
    and i+1 and beyond the last knot.  The slopes are integers, so every
    lower knot is an integer over D too.  The table (D, upper, lower,
    slopes) is the derived slot `_knots`, and the violated invariants the
    slot `_problems`, both outside the fields and set once here.  The
    multiplicities need not sum to e (`validate` reports that), but
    p^(their sum) <= 2^64 as for p^e, and D <= m*2^64: a valid filtration
    has sigma_i*m*p^(l_1+...+l_(i-1)) integral, so D divides
    m*p^(their sum).  Each break is at most 2^64,
    checked before the loop formats a finding, which keeps the values read
    off the table short enough for str().  A break value that is not a
    Fraction is read by `_read_rational`; a multiplicity must be a positive
    int (`require_int`, naming the break, so 1.7 is not read as 1).

    Each break is read once.  The first pass reads its value, its
    multiplicity and the value's `as_integer_ratio()`, and raises D to a
    multiple of the denominator (`math.lcm` only when D is not one yet).
    The knot loop reads only those ints, so a first-pass error at any break
    wins over a knot-loop error (order, index or multiplicity bound) at an
    earlier one.  It records the violated invariants in `validate`'s order
    and wording.
    """

    __slots__ = ("_knots", "_problems")
    _fields = ("shape", "breaks")

    def __init__(self, shape: InertiaShape, breaks):
        if type(shape) is not InertiaShape:  # inline, as filtrations are built often
            require_type(shape, InertiaShape, "shape")
        p, e, m = shape._values
        cap = m * 2**64
        bs, ratios, den = [], [], 1
        for i, (c, l) in enumerate(breaks, 1):
            if type(c) is not Fraction:
                c = _read_rational(c, "break", i)
            if type(l) is not int or not 1 <= l <= 2**64:  # inline per break; the reader raises
                require_int(l, f"break {i}: multiplicity", 1)
            ratios.append(ratio := c.as_integer_ratio())
            if den % ratio[1]:  # den only grows here, so only here can it pass the bound
                den = math.lcm(den, ratio[1])
                if den > cap:
                    raise InputError(f"break {i}: the lcm of the break denominators exceeds "
                                     "the bound m*2^64")
            bs.append((c, l))
        bs = tuple(bs)
        upper, lower, slope = [0], [0], [m]
        u0, j, s, mults, problems, top = 0, 0, m, 0, [], den << 64
        for (c, l), (a, b) in zip(bs, ratios):
            u = a * (den // b)
            if u <= u0:
                raise InputError("break indices must be positive and strictly increasing")
            if u > top:  # this is break len(upper): one knot is appended per break
                raise InputError(f"break {len(upper)}: the break index exceeds the bound 2^64")
            if l > 64 or (steeper := s * p**l) > cap:
                raise InputError("break multiplicities exceed the bound p^(their sum) <= 2^64")
            j += s * (u - u0)
            # the validity findings, in `validate`'s order: sigma*|I|/|I^sigma| (the
            # slope up to sigma is m*p^(dropped so far)) and the lower jump psi(sigma)
            if u * s % den:
                problems.append(f"break {c}: sigma*|I|/|I^sigma| = {Fraction(u * s, den)}"
                                " not an integer")
            if j % den:
                problems.append(f"break {c}: lower jump {Fraction(j, den)} not an integer")
            elif j // den % p == 0:
                problems.append(f"break {c}: lower jump {j // den} divisible by {p}")
            upper.append(u)
            lower.append(j)
            slope.append(steeper)
            u0, s, mults = u, steeper, mults + l
        if mults != e:
            problems.insert(0, f"break multiplicities sum to {mults}, expected e = {e}")
        _store(self, (shape, bs))
        _set_knots(self, (den, tuple(upper), tuple(lower), tuple(slope)))
        _set_problems(self, tuple(problems))

    @property
    def conductor(self) -> Fraction | None:
        """Largest break index, or None for a tame filtration."""
        return self.breaks[-1][0] if self.breaks else None

    @property
    def upper_jumps(self) -> tuple:
        """The break indices listed with multiplicity, ascending."""
        return tuple(s for s, mult in self._values[1] for _ in range(mult))

    def __repr__(self):
        shape, breaks = self._values
        p, e, m = shape._values
        bs = ", ".join(f"({c}, {l})" for c, l in breaks)
        return f"Filtration(p={p}, e={e}, m={m}, breaks=[{bs}])"


_set_knots, _set_problems = Filtration._knots.__set__, Filtration._problems.__set__


def psi(filt: Filtration, c) -> Fraction:
    """Piecewise-linear transition to lower numbering.

    The slope on the segment ending at the i-th break is m times the p-power
    dropped so far, i.e. the index of the break's group in the inertia group.
    """
    if type(c) is not Fraction:
        c = _read_rational(c, "psi argument")
    a, b = c.as_integer_ratio()
    if a < 0:
        raise InputError(f"psi argument must be >= 0{_shown(c)}")
    if type(filt) is not Filtration:  # inline, as psi and phi are evaluated per point
        require_type(filt, Filtration, "filt")
    den, upper, lower, slope = filt._knots
    ad = a * den
    # an integer knot K is >= a*D/b exactly when K >= ceil(a*D/b); the knots
    # start at 0 and strictly increase, so searching from knot 1 puts c = 0 on segment 0
    i = bisect_left(upper, -(-ad // b), 1) - 1
    return Fraction(lower[i] * b + slope[i] * (ad - upper[i] * b), den * b)


def phi(filt: Filtration, cprime) -> Fraction:
    """Exact inverse of psi."""
    if type(cprime) is not Fraction:
        cprime = _read_rational(cprime, "phi argument")
    a, b = cprime.as_integer_ratio()
    if a < 0:
        raise InputError(f"phi argument must be >= 0{_shown(cprime)}")
    if type(filt) is not Filtration:  # inline, as psi and phi are evaluated per point
        require_type(filt, Filtration, "filt")
    den, upper, lower, slope = filt._knots
    ad = a * den
    i = bisect_left(lower, -(-ad // b), 1) - 1
    s = slope[i]
    return Fraction(upper[i] * s * b + ad - lower[i] * b, den * b * s)


def _lower_jump(j: int, den: int, p: int, sigma: Fraction) -> int:
    """The lower knot j over D of the break sigma as a jump: integral and
    prime to p, else InvariantViolation."""
    if j % den:
        raise InvariantViolation(f"lower jump {Fraction(j, den)} at break {sigma} is not integral")
    j //= den
    if j % p == 0:
        raise InvariantViolation(f"lower jump {j} at break {sigma} is divisible by {p}")
    return j


def upper_to_lower(filt: Filtration) -> list[tuple[int, int]]:
    """Lower jumps (j_i, l_i): j_i = psi(sigma_i), integral and prime to p."""
    den, _, lower, _ = require_type(filt, Filtration, "filt")._knots
    shape, breaks = filt._values
    p = shape._values[0]
    return [(_lower_jump(j, den, p, sigma), mult) for j, (sigma, mult) in zip(lower[1:], breaks)]


def lower_to_upper(shape: InertiaShape, lower_breaks) -> Filtration:
    """Rebuild the upper-numbering filtration from lower jumps (j_i, l_i).

    sigma is held as num/slope over the current segment slope
    m*p^(l_1+...), so each break costs one Fraction.  Each pair is read
    before it is used: a jump that is not an int or a Fraction by
    `_read_rational`, a multiplicity by `require_int`, naming the break,
    and p^(l_1+...+l_i) <= 2^64, the bound of `Filtration`, is checked
    before p^l_i is computed."""
    p, _, m = require_type(shape, InertiaShape, "shape")._values
    num, j_prev, slope, cap = 0, 0, m, m << 64
    breaks = []
    for i, (j, mult) in enumerate(lower_breaks, 1):
        if type(j) is not int and type(j) is not Fraction:
            j = _read_rational(j, "lower jump", i)
        if type(mult) is not int or not 1 <= mult <= 64:
            require_int(mult, f"break {i}: multiplicity", 1)
        if mult > 64 or (step := p**mult) * slope > cap:
            raise InputError("break multiplicities exceed the bound p^(their sum) <= 2^64")
        num += j - j_prev
        breaks.append((Fraction(num, slope), mult))
        j_prev = j
        num *= step
        slope *= step
    return Filtration(shape, breaks)


def validate(filt: Filtration) -> list[str]:
    """Every filtration invariant that fails, as recorded when filt was
    built; an empty list means valid.  A fresh list on every call."""
    return list(require_type(filt, Filtration, "filt")._problems)


def _congruence(p: int, j_e: int, d: int, m: int) -> int:
    """The residue class s_iota in [1, m] that a conductor acting on a
    filtration with last lower jump j_e must hit: j_e / p^d mod m, the
    division modular, so p^d need not divide j_e (1 for m = 1).  The
    caller has checked p, d and m; `action_transform` is the checked entry."""
    return j_e * pow(pow(p, d, m), -1, m) % m or m


def action_transform(filt: Filtration, a: int, s: int) -> Filtration:
    """Shift the top a-fold piece of the filtration out to the break s/m.

    For m > 1, s must lie in the class s_iota = j_e/p^(e-a) mod m that the
    filtration's last lower jump j_e forces (CongruenceViolation otherwise).
    If s/m does not exceed the conductor the filtration is returned
    unchanged; that test is s*D <= m*(the top upper knot), in integers.
    Otherwise the top break loses multiplicity a (dropping out entirely at
    zero) and a new break (s/m, a) is appended, the one Fraction built
    here; the result is validated before it is returned.  As a break,
    s/m is at most 2^64.
    """
    den, upper, lower, _ = require_type(filt, Filtration, "filt")._knots
    shape, breaks = filt._values
    p, e, m = shape._values
    if not breaks:
        raise InvalidSubgroup("tame filtration has no wild part to act on")
    if require_int(s, "conductor candidate s", 1, m << 64, InvalidJump) % p == 0:
        raise InvalidJump(f"conductor candidate {s} must be positive and prime to {p}")
    top_sigma, top_mult = breaks[-1]
    require_int(a, "subgroup exponent a", 1, top_mult, InvalidSubgroup)
    if m > 1:  # the filtration's own p, e - a and m are checked already
        s_iota = _congruence(p, _lower_jump(lower[-1], den, p, top_sigma), e - a, m)
        if s % m != s_iota % m:
            raise CongruenceViolation(
                f"conductor {s} is not congruent to {s_iota} mod {m}"
            )
    if s * den <= m * upper[-1]:  # s/m <= top_sigma
        return filt
    breaks = list(breaks[:-1])
    if top_mult - a > 0:
        breaks.append((top_sigma, top_mult - a))
    breaks.append((Fraction(s, m), a))
    out = Filtration(shape, breaks)
    if out._problems:
        raise InvariantViolation("transformed filtration is invalid: "
                                 + "; ".join(out._problems))
    return out


def _admissible(seq, p: int) -> bool:
    """`admissible_check` for a p the caller has checked: positive ints, p
    not dividing the first entry, and each next entry either exactly p times
    the previous or larger and prime to p.  Before the first entry prev is 0,
    so its rule is the second one."""
    prev = 0
    for s in seq:
        if type(s) is not int or s < 1:
            return False
        if s != p * prev and (s < p * prev or s % p == 0):
            return False
        prev = s
    return True


def admissible_check(seq, p: int) -> bool:
    """True iff seq is an admissible upper-jump sequence for a cyclic p-power
    group (see `_admissible`); p is checked first."""
    return _admissible(seq, require_prime(p))


# Enumeration and rendering cost ~2.5 us per sequence: ~0.4 s at the cap.
MAX_ADMISSIBLE_SEQUENCES = 150000


def admissible_enumerate(p: int, e: int, bound: int) -> list[tuple[int, ...]]:
    """All admissible sequences of length e with last entry <= bound, in
    lexicographic order; at most MAX_ADMISSIBLE_SEQUENCES of them.  The
    bound is at most 2^64, so e <= 65 and p^(e-1) is under 1300 digits.

    Built level by level: with k levels to come an entry x needs x*p^k <=
    bound, and every prefix extends by its least next entry lo, so a level
    over the cap means the answer is over it too."""
    require_prime(p)
    require_int(e, "length e", 1, 65)
    if require_int(bound, "bound", 1) < p ** (e - 1):
        raise InputError(f"bound {bound} is below the minimal final jump {p ** (e - 1)}")
    seqs: list[tuple[int, ...]] = [()]
    for k in range(e - 1, -1, -1):
        top = bound // p**k
        seqs = list(islice(
            (prefix + (x,) for prefix in seqs
             for lo in (p * prefix[-1] if prefix else 1,)
             for x in range(lo, top + 1) if x == lo or x % p),
            MAX_ADMISSIBLE_SEQUENCES + 1))
        if len(seqs) > MAX_ADMISSIBLE_SEQUENCES:
            raise InputError(
                f"e {e} and bound {bound} give more than "
                f"{MAX_ADMISSIBLE_SEQUENCES} admissible sequences"
            )
    return seqs


class LevelStep(_Record):
    """One level of a tower deformation plan.

    `start` is the conductor the level begins with (for level 1 the base
    sequence's first jump, above that the minimal conductor p*sigma'_{i-1}
    of a dominating layer) and `target` the jump it is deformed to.  Equal
    start and target means the minimal layer already realises the target.
    """

    __slots__ = ()
    _fields = ("level", "start", "target")

    def __init__(self, level: int, start: int, target: int):
        _store(self, (level, start, target))

    @property
    def deforms(self) -> bool:
        return self.target != self.start


def _seq_shown(seq: tuple) -> str:
    """seq as a message prints it: whole while it has at most 64 entries,
    each an int of at most 2^64 in size, as `algebra._shown` prints a value;
    else only its length, so the message stays short enough for str()."""
    if len(seq) <= 64 and all(type(s) is int and abs(s) <= 2**64 for s in seq):
        return str(seq)
    return f"the sequence of length {len(seq)}"


def tower_plan(start_seq, target_seq, p: int) -> list[LevelStep]:
    """Level-by-level deformation plan from one admissible sequence to a
    strictly larger one, following the inductive minimal-dominating-layer
    construction.  Above level 1 the minimal conductor p*target[i-1] is at
    most target[i], as the target is admissible."""
    require_prime(p)
    start_seq, target_seq = tuple(start_seq), tuple(target_seq)
    for seq in (start_seq, target_seq):
        if not _admissible(seq, p):
            raise NotAdmissible(f"{_seq_shown(seq)} is not admissible for p = {p}")
    if len(start_seq) != len(target_seq):
        raise LengthMismatch(f"lengths {len(start_seq)} and {len(target_seq)} differ")
    if not all(a < b for a, b in zip(start_seq, target_seq)):
        raise NotComparable(f"{_seq_shown(target_seq)} is not strictly larger than "
                            f"{_seq_shown(start_seq)} componentwise")
    return [LevelStep(i + 1, start_seq[0] if i == 0 else p * target_seq[i - 1], target)
            for i, target in enumerate(target_seq)]


def random_filtration(
    rng: random.Random,
    p: int | None = None,
    e_max: int = 4,
    m_max: int = 6,
) -> Filtration:
    """Deterministic-in-rng generator of valid filtrations (for sweeps).

    Builds ascending prime-to-p lower jumps with random multiplicities and
    converts them to upper numbering, which makes every invariant hold by
    construction.  m_max is at most 2^16, as the candidate tame orders are listed.
    """
    require_type(rng, random.Random, "rng")
    p = rng.choice([2, 3, 5, 7]) if p is None else require_prime(p)
    e = rng.randint(1, require_int(e_max, "e_max", 1, 64))
    m_max = require_int(m_max, "m_max", 1, 2**16)
    m = rng.choice([m for m in range(1, m_max + 1) if math.gcd(m, p) == 1])
    r = rng.randint(1, e)
    cuts = sorted(rng.sample(range(1, e), r - 1)) if r > 1 else []
    bounds = [0] + cuts + [e]
    mults = [b - a for a, b in zip(bounds, bounds[1:])]
    jumps = []
    j = 0
    for _ in range(r):
        j += rng.randint(1, 9)
        while j % p == 0:
            j += 1
        jumps.append(j)
    shape = InertiaShape(p, e, m)
    return lower_to_upper(shape, list(zip(jumps, mults)))


_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(value, field: str, index: int = 0) -> Fraction:
    """The wire rational value, an ASCII string -?[0-9]+(/[0-9]+)?, as a
    Fraction; InputError on anything else, a zero denominator or a numeral
    past Python's int string-conversion limit, naming the field and, when
    given, its 1-based index (formatted only then)."""
    match = _RATIONAL_RE.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        problem = f"{value!r} is not an integer or num/den string"
    else:
        num, den = match.groups()
        try:
            num, den = int(num), int(den) if den else 1
        except ValueError:  # the pattern matched, so only int()'s digit limit is left
            problem = f"a numeral has more than {sys.get_int_max_str_digits()} digits"
        else:
            if den:
                return Fraction(num, den)
            problem = f"{value!r} has a zero denominator"
    raise InputError(f"{field} {index}: {problem}" if index else f"{field}: {problem}")


def _read_rational(value, field: str, index: int = 0) -> Fraction:
    """A value that is not exactly a Fraction (callers test that first): a
    string by the wire grammar of `parse_rational`, a Fraction subclass or
    an int as the equal Fraction; TypeError naming the field for anything
    else, so no float, bool or Decimal is read as a rational."""
    if isinstance(value, str):
        return parse_rational(value, field, index)
    if isinstance(value, Fraction) or type(value) is int:
        return Fraction(value)
    name = f"{field} {index}" if index else field
    raise TypeError(f"{name}: {type(value).__name__} is not a Fraction, an int "
                    "or a num/den string")


def json_typed(value, kind: type, field: str):
    """value if its type is exactly kind (int or list), else InputError naming
    the field; a bool or a float is not a JSON integer."""
    if type(value) is not kind:
        raise InputError(
            f"{field}: {value!r} is not a JSON {'integer' if kind is int else 'array'}"
        )
    return value


def reject_unknown_keys(obj, known: tuple[str, ...], what: str) -> None:
    """InputError naming the first key of the JSON object obj outside known."""
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object")
    for key in obj:
        if key not in known:
            raise InputError(f"unknown key {key!r} in {what}")


def filtration_to_dict(filt: Filtration) -> dict:
    """JSON-friendly form with rationals as num/den strings."""
    p, e, m = require_type(filt, Filtration, "filt").shape._values
    return {"p": p, "e": e, "m": m, "breaks": [{"c": str(c), "mult": l} for c, l in filt.breaks]}


def shape_from_dict(d: dict) -> InertiaShape:
    """The InertiaShape of a filtration or branch-point JSON object: JSON
    integers "p", "e" and optional "m"."""
    return InertiaShape(json_typed(d["p"], int, '"p"'), json_typed(d["e"], int, '"e"'),
                        json_typed(d.get("m", 1), int, '"m"'))


def filtration_from_dict(d: dict) -> Filtration:
    """Decode a filtration JSON object; the breaks' "c" values are num/den
    strings and must form a valid filtration (InputError otherwise)."""
    try:
        reject_unknown_keys(d, ("p", "e", "m", "breaks"), "filtration")
        shape = shape_from_dict(d)
        breaks = []
        for i, b in enumerate(json_typed(d["breaks"], list, '"breaks"'), 1):
            reject_unknown_keys(b, ("c", "mult"), f"break {i}")
            breaks.append((parse_rational(b["c"], f'break {i} "c"'),
                           json_typed(b["mult"], int, f'break {i} "mult"')))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad filtration object: {exc}") from exc
    filt = Filtration(shape, breaks)
    if filt._problems:
        raise InputError("invalid filtration: " + "; ".join(filt._problems))
    return filt
