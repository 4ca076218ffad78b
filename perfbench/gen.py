"""Seeded input generators.  Runs before ramforge is imported.

Every deck is a list of items built from plain ints, Fractions and text,
each item carrying what the oracle needs (planted conductor, closed-form
jumps, reference genus).  Sizes are drawn by stratified sampling: n items
get one draw from each of n equal-probability strata of the size
distribution, then the order is shuffled.  The distributions stay
continuous, but every seed gets nearly the same cost profile, which keeps
seed-to-seed spread small.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import oracle as O

REDUCE_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (5, 2), (2, 8), (3, 5), (2, 16)]
LINE_POLES = (4, 160)
TOWER_POLES = (4, 160)


def strata(rng, n):
    """n draws in (0, 1), one from the middle tenth of each of n equal
    strata.  The narrow jitter keeps the sizes near a percentile boundary
    nearly the same for every seed; draws from the middle half of each
    stratum move reduce's p90 by about 10% between seeds."""
    us = [(i + 0.45 + rng.random() / 10) / n for i in range(n)]
    rng.shuffle(us)
    return us


def balanced(rng, values, n):
    """n picks from values, each value used equally often (up to one)."""
    out = (list(values) * math.ceil(n / len(values)))[:n]
    rng.shuffle(out)
    return out


def log_uniform(u, lo, hi):
    return lo * (hi / lo) ** u


def prime_to(rng, p, lo, hi):
    while True:
        v = rng.randint(lo, hi)
        if v % p:
            return v


def nonzero(rng, F):
    while True:
        c = tuple(rng.randrange(F.p) for _ in range(F.n))
        if any(c):
            return c


# ------------------------------------------------------------------ reduce


def line_item(rng, F, u):
    """h^p - h + c x^-s with k poles; conductor is s.  The poles of h lie in
    [k, 3k) and s < pk, so every pole of h^p is reduced: k steps."""
    p = F.p
    k = round(log_uniform(u, *LINE_POLES))
    h = {-d: nonzero(rng, F) for d in rng.sample(range(k, 3 * k), k)}
    s = prime_to(rng, p, 1, p * k - 1)
    f = O.l_add(F, O.l_frob_minus_id(F, h), {-s: nonzero(rng, F)})
    return {"kind": "line", "pn": (p, F.n), "f": O.l_text(F, f), "s": s}


def tower_item(rng, F, u, j):
    """y^(p^2-p+1) + c x^-s + (H^p - H) over y^p - y = x^-j, with k
    monomials in H of distinct valuations -v.  Every v exceeds s and pj, so
    all of H is reduced: k steps, plus one when x^-s leads the base."""
    p = F.p
    k = round(log_uniform(u, *TOWER_POLES))
    s = prime_to(rng, p, j + 1, j + 1 + k)
    low = max(s, p * j) + 1
    jinv = pow(j, -1, p)
    H = [{} for _ in range(p)]
    for v in rng.sample(range(low, low + 2 * k), k):
        beta = v * jinv % p
        alpha = (j * beta - v) // p
        H[beta][alpha] = nonzero(rng, F)
    base = O.y_power(F, j, p * p - p + 1)
    base[0] = O.l_add(F, base[0], {-s: nonzero(rng, F)})
    Fx = O.x_add(F, base, O.x_frob_minus_id(F, j, H))
    J = max(p * s - j * (p - 1), (p * p - p + 1) * j)
    return {"kind": "tower", "pn": (p, F.n), "j": j, "F": O.x_text(F, Fx),
            "J": J, "jumps": (j, max(s, p * j))}


def reduce_deck(rng, per_cell):
    """60% line items, 40% tower items, the same count in every field.
    Tower items use each j in 1..9 prime to p equally often."""
    items = []
    for pn in REDUCE_FIELDS:
        F = O.field(*pn)
        for u in strata(rng, 3 * per_cell):
            items.append(line_item(rng, F, u))
        js = balanced(rng, [j for j in range(1, 10) if j % F.p], 2 * per_cell)
        for u, j in zip(strata(rng, 2 * per_cell), js):
            items.append(tower_item(rng, F, u, j))
    rng.shuffle(items)
    return items


def reduce_specs():
    """Every (p, n) field and (p, n, j) extension a reduce deck can use:
    tower items draw j from 1..9 prime to p."""
    out = []
    for p, n in REDUCE_FIELDS:
        out.append((p, n))
        out += [(p, n, j) for j in range(1, 10) if j % p]
    return out


# ------------------------------------------------------------- herbrand-eval


def random_lower(rng, p, e):
    """Ascending prime-to-p lower jumps with multiplicities summing to e."""
    r = rng.randint(1, e)
    cuts = sorted(rng.sample(range(1, e), r - 1))
    mults = [b - a for a, b in zip([0] + cuts, cuts + [e])]
    jumps, j = [], 0
    for _ in range(r):
        j += rng.randint(1, 9)
        while j % p == 0:
            j += 1
        jumps.append(j)
    return list(zip(jumps, mults))


def tame_order(rng, p, m_max):
    return rng.choice([m for m in range(1, m_max + 1) if math.gcd(m, p) == 1])


def herbrand_item(rng, p, e, u):
    m = tame_order(rng, p, 12)
    lower = random_lower(rng, p, e)
    breaks = O.lower_to_upper(m, p, lower)
    npts = round(log_uniform(u, 16, 128))
    top = breaks[-1][0]
    points = []
    for _ in range(npts):
        den = rng.randint(1, 12)
        points.append(Fraction(rng.randint(0, math.ceil(3 * top * den / 2) + den), den))
    return {"p": p, "e": e, "m": m, "breaks": breaks, "points": points}


def herbrand_deck(rng, n):
    """n // 8 items for each e = 1..8, each group with its own p balanced
    and point counts stratified, so every seed has nearly the same tail."""
    items = []
    for e in range(1, 9):
        k = n // 8
        items += [herbrand_item(rng, p, e, u) for p, u in
                  zip(balanced(rng, [2, 3, 5, 7], k), strata(rng, k))]
    rng.shuffle(items)
    return items


# --------------------------------------------------------------- genus-build


def _upper_jump_list(breaks):
    return [str(s) for s, mult in breaks for _ in range(mult)]


def _branch(rng, p, e, m_max):
    m = tame_order(rng, p, m_max)
    lower = random_lower(rng, p, e)
    return {"e": e, "m": m, "lower": lower,
            "upper": _upper_jump_list(O.lower_to_upper(m, p, lower)),
            "degree": O.hilbert_degree(m, p, e, lower)}


def act_target(rng, p, m, e, a, lower, top):
    """A conductor s for action_transform: prime to p, congruent to the
    class the library derives, and with s/m above the top break."""
    s_iota = O.congruence_class(p, lower[-1][0], e - a, m)
    s = s_iota
    while s <= m * top or s % p == 0:
        s += m
    for _ in range(rng.randint(0, 6)):
        s += m
        while s % p == 0:
            s += m
    return s


def acted(p, m, breaks, a, s):
    out = list(breaks[:-1])
    top, mult = breaks[-1]
    if mult > a:
        out.append((top, mult - a))
    out.append((Fraction(s, m), a))
    return out


def base_genus(rng, G, points):
    """A base genus in 0..2, raised until the cover's genus is not negative;
    returns (g_X, genus)."""
    g_X = rng.randint(0, 2)
    while O.rh_genus(G, g_X, points) < 0:
        g_X += 1
    return g_X, O.rh_genus(G, g_X, points)


def genus_item(rng, p, e, n_extra, u):
    main = _branch(rng, p, e, 6)
    e, m, lower = main["e"], main["m"], main["lower"]
    breaks = O.lower_to_upper(m, p, lower)
    a = rng.randint(1, breaks[-1][1])
    s = act_target(rng, p, m, e, a, lower, breaks[-1][0])
    extra = [_branch(rng, p, rng.randint(1, 5), 6) for _ in range(n_extra)]
    lcm_m = math.lcm(m, *(b["m"] for b in extra))
    G = 2 * lcm_m * p ** (max([e] + [b["e"] for b in extra]) + a)
    points = [(m * p**e, main["degree"])] + [(b["m"] * p ** b["e"], b["degree"]) for b in extra]
    g_X, g0 = base_genus(rng, G, points)
    inc = p * G * (p**a - 1) // (2 * p**a)
    n_genera = round(log_uniform(u, 2, 16))
    limit = g0 + inc * n_genera // (p - 1)
    s_iota = O.congruence_class(p, lower[-1][0], e - a, m)
    top = breaks[-1][0]
    return {
        "p": p, "e": e, "m": m, "lower": lower, "a": a, "s": s,
        "branches": [{"e": b["e"], "m": b["m"], "upper": b["upper"]} for b in extra],
        "G": G, "g_X": g_X, "limit": limit, "s_iota": s_iota,
        # expected values, read only by the oracle
        "want_upper": breaks, "want_degrees": [d for _, d in points], "want_genus": g0,
        "want_acted": acted(p, m, breaks, a, s),
        "want_spectrum": O.spectrum(G, p, a, m, top, g0, s_iota, limit),
    }


def genus_deck(rng, n):
    return [genus_item(rng, p, e, k, u) for p, e, k, u in
            zip(balanced(rng, [2, 3, 5, 7], n), balanced(rng, range(1, 6), n),
                balanced(rng, range(1, 5), n), strata(rng, n))]
