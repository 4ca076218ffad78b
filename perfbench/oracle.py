"""Reference arithmetic for checking ramforge outputs, written without it.

Nothing here imports ramforge.  Finite-field elements are coordinate
tuples over F_p in the basis of a monic modulus (constant term first);
Laurent polynomials are dicts exponent -> nonzero tuple; elements of
k((x))[y]/(y^p - y - x^-j) are lists of p Laurent dicts.  Rationals are
fractions.Fraction.  The Herbrand functions are computed segment by segment
from the group orders, the ramification degree from Hilbert's different
formula (Serre, Local Fields, IV §1), so no code path is shared with the
library under test.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction

# --------------------------------------------------------------- F_p[t] / F_q


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod(a, f, p):
    """Remainder of a by f over F_p; lists low degree first, f nonzero."""
    a = [c % p for c in a]
    f = _trim(f)
    df = len(f) - 1
    inv = pow(f[-1], -1, p)
    for k in range(len(a) - 1, df - 1, -1):
        c = a[k] * inv % p
        if c:
            for i in range(df + 1):
                a[k - df + i] = (a[k - df + i] - c * f[i]) % p
    return _trim(a[:df])


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b):
                out[i + k] += x * y
    return _trim([c % p for c in out])


def _pgcd(a, b, p):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def is_irreducible(f, p):
    """Ben-Or test: f of degree n is irreducible iff gcd(f, x^(p^i) - x) = 1
    for every i <= n/2."""
    f = _trim(f)
    n = len(f) - 1
    if n < 1:
        return False
    xp = [0, 1]
    for _ in range(n // 2):
        acc = [1]
        base = xp
        k = p
        while k:
            if k & 1:
                acc = _pmod(_pmul(acc, base, p), f, p)
            base = _pmod(_pmul(base, base, p), f, p)
            k >>= 1
        xp = acc
        diff = list(xp) + [0] * max(0, 2 - len(xp))
        diff[1] = (diff[1] - 1) % p
        if len(_pgcd(f, diff, p)) > 1:
            return False
    return True


def lex_least_modulus(p, n):
    """Least monic irreducible of degree n over F_p, coefficient tuples
    compared constant term first."""
    for tail in itertools.product(range(p), repeat=n):
        if n > 1 and tail[0] == 0:
            continue  # divisible by x
        cand = tail + (1,)
        if is_irreducible(cand, p):
            return cand
    raise ValueError(f"no irreducible of degree {n} over F_{p}")


class Field:
    """F_{p^n} on coordinate tuples."""

    def __init__(self, p, n, modulus):
        self.p, self.n, self.modulus = p, n, tuple(modulus)
        self.zero = (0,) * n
        self.one = (1,) + (0,) * (n - 1)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def mul(self, a, b):
        r = _pmod(_pmul(list(a), list(b), self.p), self.modulus, self.p)
        return tuple(r) + (0,) * (self.n - len(r))

    def scalar(self, c):
        return (c % self.p,) + (0,) * (self.n - 1)

    def pow(self, a, k):
        acc, base = self.one, a
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def frob(self, a):
        return self.pow(a, self.p)

    def text(self, a):
        return str(a[0]) if self.n == 1 else "[" + ",".join(map(str, a)) + "]"


@functools.cache
def field(p, n):
    """F_{p^n} over the least monic irreducible of degree n."""
    return Field(p, n, lex_least_modulus(p, n))


# ---------------------------------------------------------------- Laurent


def l_add(F, a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        if sign < 0:
            c = F.sub(F.zero, c)
        s = out.get(e)
        s = c if s is None else F.add(s, c)
        if any(s):
            out[e] = s
        else:
            out.pop(e, None)
    return out


def l_frob_minus_id(F, h):
    """h^p - h, exact in characteristic p."""
    hp = {F.p * e: F.frob(c) for e, c in h.items()}
    return l_add(F, hp, h, -1)


def l_text(F, f):
    """Text in the library's input grammar (any term order is accepted)."""
    if not f:
        return "0"
    parts = []
    for e in sorted(f):
        c = f[e]
        if e == 0:
            parts.append(F.text(c))
        else:
            xs = "x" if e == 1 else f"x^{e}"
            parts.append(xs if c == F.one else f"{F.text(c)}*{xs}")
    return " + ".join(parts)


_TERM = re.compile(r"^(?:(\[[0-9,]*\]|\d+)\*?)?(x(?:\^(-?\d+))?)?$")


def l_parse(F, text):
    """Parse the canonical output form: terms joined by ' + '."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for term in text.split(" + "):
        m = _TERM.match(term.strip())
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ValueError(f"unparsable term {term!r}")
        coeff = m.group(1)
        if coeff is None:
            c = F.one
        elif coeff.startswith("["):
            vals = [int(v) for v in coeff[1:-1].split(",")]
            c = tuple(v % F.p for v in vals) + (0,) * (F.n - len(vals))
        else:
            c = F.scalar(int(coeff))
        if m.group(2) is None:
            e = 0
        elif m.group(3) is None:
            e = 1
        else:
            e = int(m.group(3))
        if e in out:
            raise ValueError(f"repeated exponent {e} in {text!r}")
        if not any(c):
            raise ValueError(f"zero coefficient in {text!r}")
        out[e] = c
    return out


# ------------------------------------------------- k((x))[y]/(y^p - y - x^-j)


def x_add(F, a, b, sign=1):
    return [l_add(F, u, v, sign) for u, v in zip(a, b)]


def x_times_y(F, j, a):
    """Multiply by y, folding y^p = y + x^-j."""
    p = F.p
    top = a[-1]
    out = [{}] + [dict(c) for c in a[:-1]]
    out[1] = l_add(F, out[1], top)
    out[0] = l_add(F, out[0], {e - j: c for e, c in top.items()})
    return out[:p]


def y_power(F, j, k):
    acc = [{0: F.one}] + [{} for _ in range(F.p - 1)]
    for _ in range(k):
        acc = x_times_y(F, j, acc)
    return acc


def x_frob_minus_id(F, j, H):
    """H^p - H with H^p = sum a_b^p (y + x^-j)^b expanded binomially."""
    p = F.p
    out = [{} for _ in range(p)]
    for b, a in enumerate(H):
        for e, c in a.items():
            cp = F.frob(c)
            for t in range(b + 1):
                k = math.comb(b, t) % p
                if k:
                    out[t] = l_add(F, out[t], {p * e - j * (b - t): F.mul(cp, F.scalar(k))})
    return x_add(F, out, H, -1)


def x_text(F, a):
    return " ; ".join(l_text(F, c) for c in a)


def x_parse(F, text):
    parts = text.split(" ; ")
    if len(parts) != F.p:
        raise ValueError(f"expected {F.p} coefficients in {text!r}")
    return [l_parse(F, s) for s in parts]


def x_monomials(a):
    return sum(len(c) for c in a)


# --------------------------------------------------------------- Herbrand


def lower_to_upper(m, p, lower):
    """Upper breaks from lower jumps (j_k, l_k): sigma_k - sigma_(k-1) =
    (j_k - j_(k-1)) / [G_0 : G_(j_k)]."""
    out = []
    sigma, jprev, dropped = Fraction(0), 0, 0
    for j, mult in lower:
        sigma += Fraction(j - jprev, m * p**dropped)
        out.append((sigma, mult))
        jprev, dropped = j, dropped + mult
    return out


def _segments(m, p, breaks):
    """(start, end, slope) in upper numbering; end None for the last."""
    segs, start, dropped = [], Fraction(0), 0
    for sigma, mult in breaks:
        segs.append((start, sigma, m * p**dropped))
        start, dropped = sigma, dropped + mult
    segs.append((start, None, m * p**dropped))
    return segs


def psi(m, p, breaks, c):
    total = Fraction(0)
    for lo, hi, slope in _segments(m, p, breaks):
        top = c if hi is None else min(c, hi)
        if top > lo:
            total += slope * (top - lo)
    return total


def phi(m, p, breaks, u):
    lo_u = Fraction(0)
    for lo, hi, slope in _segments(m, p, breaks):
        hi_u = None if hi is None else lo_u + slope * (hi - lo)
        if hi_u is None or u <= hi_u:
            return lo + (u - lo_u) / slope
        lo_u = hi_u
    raise AssertionError("unreachable")


def hilbert_degree(m, p, e, lower):
    """Different exponent sum_i (|G_i| - 1) over the lower filtration:
    (m p^e - 1) + sum_k (j_k - j_(k-1)) (p^(e - L_(k-1)) - 1)."""
    d = m * p**e - 1
    jprev, dropped = 0, 0
    for j, mult in lower:
        d += (j - jprev) * (p ** (e - dropped) - 1)
        jprev, dropped = j, dropped + mult
    return d


def rh_genus(G, g_X, points):
    """points: (|I|, degree) pairs."""
    twice = 2 * G * (g_X - 1) + sum(Fraction(G * d, order) for order, d in points)
    g = twice / 2 + 1
    if g.denominator != 1:
        raise ValueError(f"non-integral genus {g}")
    return int(g)


def congruence_class(p, j_e, d, m):
    if m == 1:
        return 1
    r = j_e * pow(pow(p, d, m), -1, m) % m
    return r or m


def spectrum(G, p, a, m, sigma0, g0, s_iota, limit):
    """Genera g0 + G (s/m - sigma0)(1 - p^-a)/2 over s = s_iota mod m, prime
    to p, s > m sigma0, plus g0 itself."""
    out = {g0} if 0 <= g0 <= limit else set()
    factor = Fraction(G, 2) * (1 - Fraction(1, p**a))
    s = s_iota
    while s <= m * sigma0:
        s += m
    while g0 + factor * (Fraction(s, m) - sigma0) <= limit:
        if s % p:
            g = g0 + factor * (Fraction(s, m) - sigma0)
            if g.denominator != 1:
                raise ValueError(f"non-integral genus {g}")
            out.add(int(g))
        s += m
    return sorted(out)


def admissible(seq, p):
    if not seq:
        return True
    if seq[0] < 1 or seq[0] % p == 0:
        return False
    for a, b in zip(seq, seq[1:]):
        if not (b == p * a or (b > p * a and b % p)):
            return False
    return True
