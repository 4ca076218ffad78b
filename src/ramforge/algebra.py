"""Exact arithmetic in F_{p^n} and in sparse Laurent polynomials over it.

A field element is one int 0 <= v < q = p^n whose base-p digits, lowest
first, are its coordinates in the polynomial basis of a canonical
irreducible modulus.  `FieldSpec` picks the arithmetic on these ints once
per (p, n) from four kernels (`_kernels`): plain arithmetic mod p for
n = 1; XOR addition, carry-less multiplication and binary extended Euclid
for p = 2; log, antilog and Zech tables for odd p with q <= ZECH_MAX_Q, the
idiom of the galois library (https://github.com/mhostetter/galois); and
above that the F_p[x] routines (product mod the modulus, extended Euclid,
the Frobenius matrices) on the digits.  p-th roots (inverse Frobenius) are
exact in every kernel.  Both sparse rings, the Laurent polynomials here
and `asext`'s tower, store an element as one map from integer weights to
nonzero int forms (`_IntMap`), so the sum, product, p-th power, power and
valuation are written once for both; the pair (e, i) of x^e y^i appears
only at the tower's public views.  Text is parsed to and formatted from
those maps; a `FieldElement` is built only when a caller asks for a
coefficient.  Nothing here touches floating point.

All values are immutable after construction and every operation is a pure
function, so they are safe to share across threads.
"""

from __future__ import annotations

import itertools
import re
import sys
from functools import lru_cache
from math import comb
from operator import attrgetter, index, mul, xor

from .errors import FieldMismatch, InputError, ParseError


class _Infinity:
    """Valuation of the zero polynomial.  Compares above every integer."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Infinity)

    def __gt__(self, other):
        return not isinstance(other, _Infinity)

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash("ramforge.INFINITY")

    def __repr__(self):
        return "+inf"


INFINITY = _Infinity()


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin: the twelve prime bases up to 37 decide
    primality exactly for every p < 3.3e24 (Sorenson and Webster 2015)."""
    if p < 38:  # the primes up to 37 are the bases; each composite has one as a factor
        return p in _PRIME_BASES
    if any(p % a == 0 for a in _PRIME_BASES):
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        y = pow(a, d, p)
        if y in (1, p - 1):
            continue
        for _ in range(s - 1):
            y = y * y % p
            if y == p - 1:
                break
        else:
            return False
    return True


def _bound_text(b: int) -> str:
    """A bound of `require_int` as printed: 2^k, 2^k - 1 or -2^k past 2^32 in
    magnitude, else decimal."""
    for t, form in ((b, "2^{}"), (b + 1, "2^{} - 1"), (-b, "-2^{}")):
        if t > 2**32 and not t & (t - 1):
            return form.format(t.bit_length() - 1)
    return str(b)


def _shown(value) -> str:
    """The tail ", got VALUE" of a message, for an int or a rational whose
    numerator and denominator are at most 2^64 in size; else empty, so the
    message stays short enough for str()."""
    num, den = value.as_integer_ratio()
    return f", got {value}" if abs(num) <= 2**64 and den <= 2**64 else ""


def require_int(value, name: str, lo: int, hi: int = 2**64, error: type = InputError) -> int:
    """value, if it is an int in lo..hi; the one check of every int parameter.

    TypeError naming the parameter unless type(value) is int, so a bool or
    a float is refused; else `error` naming the parameter and its bounds:
    ``NAME must lie in LO..HI, got VALUE``.  The value is printed only
    while |value| <= 2^64 and callers pass bounds already checked, so the
    message is always short enough for str().
    """
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if lo <= value <= hi:
        return value
    raise error(f"{name} must lie in {_bound_text(lo)}..{_bound_text(hi)}{_shown(value)}")


def require_prime(p: int) -> int:
    """p, if it is a prime below 2^64: `require_int`'s TypeError or
    InputError outside 0..2^64 - 1, then InputError unless p is prime."""
    if not _is_prime(require_int(p, "characteristic p", 0, 2**64 - 1)):
        raise InputError(f"characteristic must be prime, got {p}")
    return p


# F_p[x]: coefficient lists, lowest degree first; every modulus is monic.

def _poly_divmod(num, den, p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num by the monic polynomial den over F_p.

    Synthetic division in place: clearing degree k leaves the quotient
    coefficient of x^(k - deg den) in slot k, so num[deg den:] ends as the
    quotient.  The remainder is padded to deg den coefficients.
    """
    num = [c % p for c in num]
    dn = len(den) - 1
    low = den[:-1]
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k]
        if c:
            for i, d in enumerate(low, k - dn):
                num[i] = (num[i] - c * d) % p
    rem = num[:dn]
    rem += [0] * (dn - len(rem))
    return num[dn:], rem


def _poly_mul(a, b) -> list[int]:
    """Product over Z; callers reduce the coefficients mod p."""
    conv = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for k, d in enumerate(b, i):
                conv[k] += c * d
    return conv


def _mulmod(a, b, f, p: int) -> list[int]:
    """a * b mod f over F_p, padded to deg f coefficients."""
    return _poly_divmod(_poly_mul(a, b), f, p)[1]


def _power(mul, one, a, k: int):
    """a^k for k >= 0 under the product mul, by left-to-right square and multiply."""
    acc = one
    for bit in bin(k)[2:]:
        acc = mul(acc, acc)
        if bit == "1":
            acc = mul(acc, a)
    return acc


def _powmod(a, k: int, f, p: int) -> list[int]:
    """a^k mod f over F_p for k >= 0."""
    return _power(lambda x, y: _mulmod(x, y, f, p), [1] + [0] * (len(f) - 2), a, k)


def _gcdex(a, f, p: int) -> tuple[list[int], list[int]]:
    """Monic gcd g of a and the monic f over F_p, and s with s * a = g mod f.

    Extended Euclid.  Each remainder is made monic before it divides, so
    `_poly_divmod` serves every step; O(deg f ^ 2) coefficient operations.
    """
    r0, s0, r1, s1 = list(f), [], [c % p for c in a], [1]
    while True:
        while r1 and not r1[-1]:
            r1.pop()
        if not r1:
            return r0, s0
        u = pow(r1[-1], -1, p)
        r1 = [c * u % p for c in r1]
        s1 = [c * u % p for c in s1]
        q, r = _poly_divmod(r0, r1, p)
        qs = _poly_mul(q, s1)
        s = [(c - d) % p for c, d in itertools.zip_longest(s0, qs, fillvalue=0)]
        r0, s0, r1, s1 = r1, s1, r, s


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Ben-Or's test (Ben-Or 1981): the monic poly of degree n is
    irreducible over F_p iff gcd(poly, x^(p^i) - x) = 1 for i = 1..n//2."""
    xq = [0, 1]
    for _ in range((len(poly) - 1) // 2):
        xq = _powmod(xq, p, poly, p)
        d = list(xq)
        d[1] = (d[1] - 1) % p
        if len(_gcdex(d, poly, p)[0]) > 1:
            return False
    return True


@lru_cache(maxsize=None, typed=True)
def canonical_modulus(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree n over F_p.

    Coefficient tuples are compared constant term first, which makes the
    field construction deterministic without external tables.  For n > 1 a
    constant term 0 makes x a factor, so the candidates are the base-p
    numerals c0 c1 ... c_{n-1} with c0 != 0, taken in increasing order and
    read off one at a time (p may be near 2^32, so no range(p) is stored).

    This is the one check of a field's (p, n), p prime and p^n <= 2^64: it
    runs on the first call for each pair, and the cache is typed, so a bool
    never reaches a cached pair.
    """
    require_prime(p)
    # n > 64 first: p**n for a huge n is itself costly
    if require_int(n, "extension degree n", 1) > 64 or p**n > 2**64:
        raise InputError(f"field size {p}^{n} exceeds the bound p^n <= 2^64")
    if n == 1:
        return (0, 1)
    for code in range(p ** (n - 1), p**n):
        cand = (*reversed(_digits(code, p, n)), 1)
        if _is_irreducible(cand, p):
            return cand
    raise InputError(f"no irreducible polynomial of degree {n} over F_{p}")


@lru_cache(maxsize=None)
def _frobenius_matrices(p: int, n: int):
    """F_p-matrices of a -> a^p and of its inverse a -> a^(1/p) on F_{p^n}.

    Column k of the first holds the coordinates of x^(pk), the previous
    column times x^p mod the modulus.  Frobenius is an F_p-linear
    bijection, so Gauss-Jordan inverts the matrix, and a p-th power or
    p-th root then costs one matrix-vector product.
    """
    modulus = canonical_modulus(p, n)
    xp = _powmod([0, 1], p, modulus, p)
    cols = [[1] + [0] * (n - 1)]
    for _ in range(1, n):
        cols.append(_mulmod(cols[-1], xp, modulus, p))
    frob = tuple(tuple(col[r] for col in cols) for r in range(n))
    rows = [list(row) + [int(r == c) for c in range(n)] for r, row in enumerate(frob)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], -1, p)
        top = rows[c] = [v * inv % p for v in rows[c]]
        for r in range(n):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], top)]
    return frob, tuple(tuple(row[n:]) for row in rows)


def _digits(v: int, p: int, n: int) -> list[int]:
    """The n base-p digits of v, lowest first: the coordinates of element v."""
    out = []
    for _ in range(n):
        v, c = divmod(v, p)
        out.append(c)
    return out


def _undigits(coords, p: int) -> int:
    """The int form of the coordinate list `coords`, lowest first."""
    v = 0
    for c in reversed(coords):
        v = v * p + c
    return v


# Odd-p extensions with q = p^n <= ZECH_MAX_Q add and multiply by table
# lookups.  Building the tables takes O(n q) integer steps: on a 2-vCPU VM
# at most ~3 ms (F_5^5) and 0.33 MB (F_61^2, the largest such field), while
# an operation on the digit path costs 3-30x more (README, "Field kernels").
ZECH_MAX_Q = 2**12


def _identity(a):
    return a


def _xor_tables(matrix):
    """a -> matrix * a over F_2 on int forms: the XOR of one lookup per
    byte of a, in tables of the XORs of that byte's columns."""
    cols = [_undigits(col, 2) for col in zip(*matrix)]
    tables = []
    for k in range(0, len(cols), 8):
        t = [0]
        for c in cols[k:k + 8]:
            t += [x ^ c for x in t]
        tables.append(t)

    def apply(a):
        out = 0
        for t in tables:
            out ^= t[a & 255]
            a >>= 8
        return out

    return apply


def _zech_kernel(p: int, n: int, modulus) -> tuple:
    """Log, antilog and Zech tables for odd p: with Q = q - 1, exp[k] = g^k
    for a primitive g, and zech[d] = log(1 + g^d) (None where 1 + g^d = 0),
    a + b = g^la (1 + g^(lb - la)) is one lookup in each table."""
    q = p**n
    Q = q - 1
    one = [1] + [0] * (n - 1)
    primes = [r for r in range(2, q) if Q % r == 0 and _is_prime(r)]
    # the least primitive element; x itself often is not (x^3 = 1 in F_5^2)
    g = next(v for v in range(p, q)
             if all(_powmod(_digits(v, p, n), Q // r, modulus, p) != one for r in primes))
    cols = [_digits(g, p, n)]
    for _ in range(1, n):
        cols.append(_mulmod(cols[-1], [0, 1], modulus, p))
    times_g = [0] * q
    for j in range(n):  # digit j of g*v is sum_i v_i * cols[i][j], for every v at once
        f = [0]
        for col in cols:
            f = [(a + d * col[j]) % p for d in range(p) for a in f]
        times_g = [t + a * p**j for t, a in zip(times_g, f)]
    exp = [1]
    for _ in range(Q - 1):
        exp.append(times_g[exp[-1]])
    log = [0] * q
    for k, v in enumerate(exp):
        log[v] = k
    # v + 1 raises the constant digit of v, which wraps from p - 1 to 0
    zech = [None if v == p - 1 else log[v + 1 if v % p < p - 1 else v + 1 - p] for v in exp]
    exp += exp  # so that exp[la + lb] needs no reduction mod Q
    h = Q // 2  # -1 = g^(Q/2)

    def add(a, b):
        if not (a and b):
            return a or b
        la = log[a]
        z = zech[log[b] - la]  # a negative index wraps mod Q, as len(zech) = Q
        return 0 if z is None else exp[la + z]

    def neg(a):
        return exp[log[a] + h] if a else 0

    def power(k):
        return lambda a: exp[log[a] * k % Q] if a else 0

    return (add, lambda a, b: add(a, neg(b)), neg,
            lambda a, b: exp[log[a] + log[b]] if a and b else 0,
            lambda a: exp[Q - log[a]], power(p), power(q // p))


@lru_cache(maxsize=None)
def _kernels(p: int, n: int) -> tuple:
    """(add, sub, neg, mul, inv, frob, root) on int forms, chosen by (p, n).

    inv is applied to nonzero values only.  F_p is plain mod-p
    arithmetic with Frobenius the identity.  For p = 2, addition is XOR,
    multiplication carry-less shift-and-reduce, inversion extended Euclid on
    the bit patterns, and Frobenius and p-th root are `_xor_tables` of their
    matrices.  Odd-p extensions use Zech tables up to ZECH_MAX_Q, and above
    it the F_p[x] routines on the digits.
    """
    if n == 1:
        return (lambda a, b: (a + b) % p, lambda a, b: (a - b) % p, lambda a: -a % p,
                lambda a, b: a * b % p, lambda a: pow(a, -1, p), _identity, _identity)
    modulus = canonical_modulus(p, n)
    if p != 2 and p**n <= ZECH_MAX_Q:
        return _zech_kernel(p, n, modulus)
    frob, root = _frobenius_matrices(p, n)
    if p == 2:
        m = _undigits(modulus, 2)

        def clmul(a, b):
            r = 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a >> n:
                    a ^= m
            return r

        def inv(a):  # binary extended Euclid, keeping x*a = u and y*a = v mod m
            u, v, x, y = a, m, 1, 0
            while u != 1:
                d = u.bit_length() - v.bit_length()
                if d < 0:
                    u, v, x, y, d = v, u, y, x, -d
                u ^= v << d
                x ^= y << d
            return x

        return xor, xor, _identity, clmul, inv, _xor_tables(frob), _xor_tables(root)

    def inv(a):  # extended Euclid against the modulus
        return _undigits(_gcdex(_digits(a, p, n), modulus, p)[1], p)

    def digitwise(op):
        return lambda a, b: _undigits(list(map(op, _digits(a, p, n), _digits(b, p, n))), p)

    def linear(matrix):
        def apply(a):
            coords = _digits(a, p, n)
            return _undigits([sum(map(mul, row, coords)) % p for row in matrix], p)

        return apply

    def times(a, b):
        if b < p:  # a scalar: scale the digits
            return _undigits([c * b % p for c in _digits(a, p, n)], p)
        return _undigits(_mulmod(_digits(a, p, n), _digits(b, p, n), modulus, p), p)

    return (digitwise(lambda x, y: (x + y) % p), digitwise(lambda x, y: (x - y) % p),
            lambda a: _undigits([-c % p for c in _digits(a, p, n)], p),
            times, inv, linear(frob), linear(root))


@lru_cache(maxsize=None)
def _formatter(p: int, n: int):
    """The text form of an int form: the int itself over F_p, else the
    coordinate vector [c0,c1,...], lowest degree first: the bits of v for
    p = 2, where `_kernels` tables the field an index into all q vectors in
    increasing v (`product` yields the digits highest first), else the digits
    one by one."""
    if n == 1:
        return str
    if p == 2:  # the digits are the bits, lowest first
        bits = f"0{n}b"
        return lambda v: "[" + ",".join(format(v, bits)[::-1]) + "]"
    if p**n <= ZECH_MAX_Q:
        digits = [str(c) for c in range(p)]
        return tuple("[" + ",".join(cs[::-1]) + "]"
                     for cs in itertools.product(digits, repeat=n)).__getitem__
    return lambda v: "[" + ",".join(map(str, _digits(v, p, n))) + "]"


class FieldSpec:
    """The coefficient field F_q with q = p^n, p prime and q <= 2^64.

    Its elements are ints 0 <= v < q whose base-p digits are the coordinates
    in the polynomial basis of the canonical modulus; `_kernels` picks the
    arithmetic on them once per (p, n), and `fmt` is their text form.
    """

    __slots__ = ("p", "n", "q", "modulus", "add", "sub", "neg", "mul", "inv", "frob", "root",
                 "fmt")

    def __init__(self, p: int, n: int = 1):
        self.modulus = canonical_modulus(p, n)  # which checks p and n
        self.p = p
        self.n = n
        self.q = p**n
        (self.add, self.sub, self.neg, self.mul, self.inv,
         self.frob, self.root) = _kernels(p, n)
        self.fmt = _formatter(p, n)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement._trusted(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement._trusted(self, 1)

    def scalar(self, c: int) -> "FieldElement":
        """Image of the integer c under Z -> F_p inside F_q; TypeError
        unless c is an integer (`operator.index`)."""
        return FieldElement._trusted(self, index(c) % self.p)

    def element(self, coords) -> "FieldElement":
        """The element with these integer coordinates (TypeError for any
        other), lowest degree first, each taken mod p; ParseError past n."""
        p = self.p
        coords = [index(c) % p for c in coords]
        if len(coords) > self.n:
            raise _length_error(len(coords), self.n)
        return FieldElement._trusted(self, _undigits(coords, p))

    def elements(self):
        """Iterate over all q elements (intended for small fields)."""
        for coords in itertools.product(range(self.p), repeat=self.n):
            yield self.element(coords)

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec) and self.p == other.p and self.n == other.n
        )

    def __hash__(self):
        return hash((self.p, self.n))

    def __repr__(self):
        return f"F_{self.p}" if self.n == 1 else f"F_{self.p}^{self.n}"


def _kernel_operator(name: str, reflected: bool = False):
    """The FieldElement operator applying the spec's kernel `name` to the int
    forms of self and other, other first when reflected.  An operand that is
    neither an element nor an integer gets NotImplemented, so Python tries
    its reflected method: c * f for a LaurentPoly f scales f."""
    kernel = attrgetter(name)

    def op(self, other):
        if not (isinstance(other, FieldElement) or hasattr(other, "__index__")):
            return NotImplemented
        a, b = self.v, _form(self.spec, other)
        return self._trusted(self.spec, kernel(self.spec)(*((b, a) if reflected else (a, b))))

    return op


class FieldElement:
    """Element of F_{p^n} as its int form v (see FieldSpec).

    The constructor checks caller input: v must be an int in 0..q - 1
    (`require_int`: TypeError for a bool or any other type, else
    InputError).  Results of field operations are built by `_trusted`.
    """

    __slots__ = ("spec", "v")

    def __init__(self, spec: FieldSpec, v: int):
        self.v = require_int(v, f"int form of an element of {spec}", 0, spec.q - 1)
        self.spec = spec

    @classmethod
    def _trusted(cls, spec: FieldSpec, v: int) -> "FieldElement":
        """Internal results: v is already an int form of spec."""
        out = object.__new__(cls)
        out.spec = spec
        out.v = v
        return out

    @property
    def coords(self) -> tuple[int, ...]:
        """Coordinates in the polynomial basis, lowest degree first."""
        return tuple(_digits(self.v, self.spec.p, self.spec.n))

    @property
    def is_zero(self) -> bool:
        return not self.v

    def __bool__(self) -> bool:
        return self.v != 0

    __add__ = __radd__ = _kernel_operator("add")
    __sub__ = _kernel_operator("sub")
    __rsub__ = _kernel_operator("sub", reflected=True)
    __mul__ = __rmul__ = _kernel_operator("mul")

    def __neg__(self):
        return self._trusted(self.spec, self.spec.neg(self.v))

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return self._trusted(self.spec, _power(self.spec.mul, 1, self.v, k))

    def inverse(self) -> "FieldElement":
        if not self.v:
            raise ZeroDivisionError("inverse of zero field element")
        return self._trusted(self.spec, self.spec.inv(self.v))

    def frobenius(self) -> "FieldElement":
        return self._trusted(self.spec, self.spec.frob(self.v))

    def pth_root(self) -> "FieldElement":
        """Inverse Frobenius; exact since x -> x^p is bijective on F_q."""
        return self._trusted(self.spec, self.spec.root(self.v))

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.v == other.v and (self.spec is other.spec or self.spec == other.spec)

    def __hash__(self):
        return hash((self.spec, self.v))

    def __str__(self):
        return self.spec.fmt(self.v)

    def __repr__(self):
        return f"{self} in {self.spec}"


def _form(spec: FieldSpec, c) -> int:
    """The int form of c, an element of spec or an integer (taken mod p);
    FieldMismatch for an element of another field, TypeError for anything
    else (`operator.index`)."""
    if isinstance(c, FieldElement):
        if c.spec is not spec and c.spec != spec:
            raise FieldMismatch(f"{spec} vs {c.spec}")
        return c.v
    return index(c) % spec.p


def _plus(terms: dict, pairs, add) -> dict:
    """The sparse term map {weight: nonzero int form} of `terms` plus the
    (weight, nonzero int form) pairs under a field's add kernel; a weight
    whose sum cancels drops out."""
    out = dict(terms)
    for k, c in pairs:
        s = out.get(k)
        if s is None:
            out[k] = c
        elif s := add(s, c):
            out[k] = s
        else:
            del out[k]
    return out


def _ydeg(w: int, jinv: int, p: int) -> int:
    """The y-degree -w/j mod p of the tower monomial of weight w, for
    jinv = 1/j mod p; 0 on the line, where jinv = 0.  The reduction loop in
    `aschreier._reduce_terms` inlines it."""
    return -w * jinv % p


class _BinomialRows(dict):
    """The tower's binomial rows mod p, one table per p (`_binomial_rows`),
    row beta < p built on first use: the pairs (b, C(beta, b) as an int form
    of F_p) for b = 1..beta, the terms of (y + x^-j)^beta past y^beta, term
    b lying step*b = j*(p - 1)*b above it in weight.  None is 0, as beta < p."""

    def __init__(self, p: int):
        self.p = p

    def __missing__(self, beta: int) -> tuple:
        row = self[beta] = tuple((b, comb(beta, b) % self.p) for b in range(1, beta + 1))
        return row


_binomial_rows = lru_cache(maxsize=None)(_BinomialRows)


class _IntMap:
    """The arithmetic of the two sparse rings, each element the map `_ints`
    from weights to nonzero int forms of the field `_field`, over `_over`
    (the field itself, or an `asext.ExtFieldSpec`).  The weight of x^e is e
    on the line and p*e - j*i for x^e y^i in the tower over y^p - y = x^-j,
    a bijection onto the integers there, so a weight names one monomial and
    its y-degree is `_ydeg`, -w/j mod p.  `_ring` is (1/j mod p, j*(p - 1))
    in the tower and (0, 0) on the line, where every y-degree is 0; `_keys`
    maps weights to the public keys and `_noun` names the elements.  A
    subclass adds its public constructor, which checks caller input once."""

    __slots__ = ("_over", "_ints")

    @classmethod
    def _trusted(cls, over, ints: dict):
        """Internal results: `ints` is already an int map over `over`, so it
        is adopted as is, without a check."""
        out = object.__new__(cls)
        out._over = over
        out._ints = ints
        return out

    @classmethod
    def zero(cls, over):
        return cls._trusted(over, {})

    @property
    def terms(self) -> dict:
        """{key: nonzero FieldElement}, a fresh dict on every call."""
        spec = self._field
        return {k: FieldElement._trusted(spec, v) for k, v in self._keys(self._ints).items()}

    @property
    def is_zero(self) -> bool:
        return not self._ints

    def __bool__(self):
        return not self.is_zero

    @property
    def valuation(self):
        """The least weight, INFINITY for zero; in the tower one term has it,
        as the weight is a bijection."""
        return min(self._ints, default=INFINITY)

    def _check(self, other):
        if not isinstance(other, type(self)):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if other._over is not self._over and other._over != self._over:
            raise FieldMismatch(f"{self._over} vs {other._over}")

    def __add__(self, other):
        self._check(other)
        return self._trusted(self._over, _plus(self._ints, other._ints.items(), self._field.add))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self._field.neg
        return self._trusted(self._over, {k: neg(v) for k, v in self._ints.items()})

    def __mul__(self, other):
        """Ring product: weights add.  Where two y-degrees sum to i >= p,
        y^i = y^(i-p+1) + x^-j y^(i-p) by y^p = y + x^-j: the second term
        keeps the weight and the first lies step = j*(p - 1) above it."""
        self._check(other)
        spec, (jinv, step) = self._field, self._ring
        p, mul = spec.p, spec.mul
        rhs = [(w, c, _ydeg(w, jinv, p)) for w, c in other._ints.items()]

        def products():
            for w1, c1 in self._ints.items():
                i1 = _ydeg(w1, jinv, p)
                for w2, c2, i2 in rhs:
                    c = mul(c1, c2)
                    yield w1 + w2, c
                    if i1 + i2 >= p:
                        yield w1 + w2 + step, c

        return self._trusted(self._over, _plus({}, products(), spec.add))

    def __pow__(self, k: int):
        if k < 0:
            raise InputError(f"negative powers of {self._noun} are not defined")
        return _power(_IntMap.__mul__, self._trusted(self._over, {0: 1}), self, k)

    def _pow_p(self):
        """p-th power: (c m)^p = c^p x^(p*e) (y + x^-j)^beta for each term c m
        of weight w and y-degree beta, its term b at weight p*w + step*b.  On
        the line beta = 0, so only the b = 0 terms c^p at p*w remain."""
        spec, (jinv, step) = self._field, self._ring
        p, mul = spec.p, spec.mul
        hp = {p * w: spec.frob(c) for w, c in self._ints.items()}
        if step:  # b >= 1: weights prime to p, apart from the b = 0 terms at multiples of p
            rows = _binomial_rows(p)
            hp = _plus(hp, [(p * w + step * b, mul(hp[p * w], m))
                            for w in self._ints for b, m in rows[_ydeg(w, jinv, p)]], spec.add)
        return self._trusted(self._over, hp)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        same = self._over is other._over or self._over == other._over
        return same and self._ints == other._ints


class LaurentPoly(_IntMap):
    """Finite Laurent polynomial over the field `spec`, stored sparsely as
    the map `_ints` from exponents to nonzero int forms.

    Only the pole part ever matters for ramification, so finite supports
    lose nothing and keep every operation exact.  The constructor checks
    caller input once: exponents are ints with |e| <= MAX_EXPONENT, read by
    `require_int`, coefficients elements of `spec` or integers (TypeError
    otherwise).  Arithmetic results are built by `_trusted`; `terms` builds
    the `FieldElement`s on request.
    """

    __slots__ = ()
    spec = _field = property(attrgetter("_over"))
    _ring = (0, 0)
    _keys = staticmethod(_identity)
    _noun = "Laurent polynomials"
    frobenius = _IntMap._pow_p

    def __init__(self, spec: FieldSpec, terms=None):
        clean: dict[int, int] = {}
        for e, c in (terms or {}).items():
            e = require_int(e, "exponent", -MAX_EXPONENT, MAX_EXPONENT)
            if v := _form(spec, c):
                clean[e] = v
        self._over = spec
        self._ints = clean

    @classmethod
    def x_pow(cls, spec: FieldSpec, e: int, coeff=1) -> "LaurentPoly":
        return cls(spec, {e: coeff})

    def __getitem__(self, e: int) -> FieldElement:
        return FieldElement._trusted(self.spec, self._ints.get(e, 0))

    def scale(self, c) -> "LaurentPoly":
        spec = self.spec
        c, mul = _form(spec, c), spec.mul
        # a product of nonzero field elements is nonzero
        ints = {e: mul(v, c) for e, v in self._ints.items()} if c else {}
        return LaurentPoly._trusted(spec, ints)

    def __mul__(self, other):
        if type(other) is int or isinstance(other, FieldElement):
            return self.scale(other)
        return _IntMap.__mul__(self, other)

    def __rmul__(self, other):
        if type(other) is int or isinstance(other, FieldElement):
            return self.scale(other)
        return NotImplemented

    def __str__(self):
        return format_laurent(self)

    def __repr__(self):
        return f"<{self} over {self.spec}>"


def artin_schreier(h: LaurentPoly) -> LaurentPoly:
    """The additive operator h -> h^p - h."""
    return h.frobenius() - h


# Exponents are bounded like q, p^e and D: |e| <= 2^64.
MAX_EXPONENT = 2**64

# A term's body: a bracketed vector of digits, commas and minus signs, a
# scalar or, with neither, a lookahead for the x power; then the optional x
# power.  A term is an optional sign and a body.  `_TERMS_RE` captures
# (sign, vector, scalar, x, exponent); a vector's components are checked as
# they are read, and by `_VECTOR_RE` when one fails.
_BODY = (r"(?:({0}\[[-0-9,]*\])|({0}[0-9]+)|(?=\*?x))"
         r"(?:\*?({0}x)(?:\^({0}[+-]?[0-9]+))?)?")
_TERMS_RE = re.compile("([+-]?)" + _BODY.format(""))
# The whole grammar, without captures: a term, then terms that start with
# their sign.  Its match from 0 is the longest prefix of whole terms;
# nothing after a repetition can fail, so the engine never backtracks into
# earlier terms.
_GRAMMAR_RE = re.compile("[+-]?{0}(?:[+-]{0})*".format(_BODY.format("?:")))
_VECTOR_RE = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")


def _length_error(length: int, n: int) -> ParseError:
    return ParseError(f"coefficient vector of length {length} in a degree-{n} field")


def _parse_ints(spec: FieldSpec, text: str) -> dict:
    """The {exponent: nonzero int form} map of the text (see parse_laurent)."""
    s = "".join(text.split())
    if not s:
        raise ParseError("empty Laurent polynomial")
    p, n, add, neg = spec.p, spec.n, spec.add, spec.neg
    digits = "0123456789"[:p] if p <= 36 else ""  # int(d, p) takes bases up to 36
    m = _GRAMMAR_RE.match(s)
    end = m.end() if m else 0
    terms: dict[int, int] = {}
    for k, (sign, vec, num, x, exp) in enumerate(_TERMS_RE.findall(s, 0, end), 1):
        try:
            # at most n components, each one base-p digit: one int() call on
            # the characters at the odd offsets, highest first
            if (vec and not (d := vec[-2:0:-2]).strip(digits)
                    and vec.count(",") == len(d) - 1 < n and len(vec) == 2 * len(d) + 1):
                c = int(d, p)
            elif vec:
                parts = vec[1:-1].split(",")
                if len(parts) > n:  # its components are checked before its length
                    for d in parts:
                        int(d)
                    raise _length_error(len(parts), n)
                c = 0
                for d in reversed(parts):  # Horner; int() rejects '' and misplaced '-'
                    c = c * p + int(d) % p
            else:
                c = int(num) % p if num else 1
            e = int(exp) if exp else 1 if x else 0
        except ParseError:  # the length error
            raise
        except ValueError:
            if vec and not _VECTOR_RE.fullmatch(vec, 1, len(vec) - 1):
                # a malformed vector: the read ends where its term starts
                end = list(_TERMS_RE.finditer(s, 0, end))[k - 1].start()
                break
            raise ParseError(f"term {k}: a numeral has more than "
                             f"{sys.get_int_max_str_digits()} digits") from None
        if not -MAX_EXPONENT <= e <= MAX_EXPONENT:
            raise ParseError(f"term {k}: exponent outside the bound |e| <= 2^64")
        if sign == "-":
            c = neg(c)
        terms[e] = add(terms[e], c) if e in terms else c
    if end < len(s):
        raise ParseError(f"bad term {s[end:]!r} in {text!r}")
    return {e: c for e, c in terms.items() if c}


def parse_laurent(spec: FieldSpec, text: str) -> LaurentPoly:
    """Parse the `c*x^e` sum grammar, e.g. ``x^-7 + 2*x^-3 + x^2``.

    Whitespace (exactly what `str.split` and the regex ``\\s`` treat as
    such) is ignored.  A term is an optional sign, then a coefficient, an
    ``x`` power or both; every term after the first starts with its sign.
    Coefficients over extensions are polynomial-basis vectors
    ``[c0,c1,...]`` of ``-?[0-9]+`` components.  Scalars are ``[0-9]+`` and
    exponents signed ``[0-9]+`` with |e| <= 2^64; only ASCII digits are
    accepted.  One regex match finds the longest prefix of valid terms and
    one `findall` reads them, left to right, so a numeral or vector-length
    error names the first term that has one; a term the grammar does not
    match or a malformed vector stops the read: ``bad term REST in TEXT``.
    A vector of at most n one-digit components, each a base-p digit (so
    p <= 36), is read by one ``int(digits, p)`` call on its digits highest
    first; every other vector is split at its commas and folded by Horner
    with each component taken mod p, which yields the same value or error.
    """
    return LaurentPoly._trusted(spec, _parse_ints(spec, text))


def format_laurent(f: LaurentPoly) -> str:
    """Canonical text form, terms in increasing exponent order."""
    ints = f._ints
    if not ints:
        return "0"
    fmt = f.spec.fmt
    parts = []
    for e in sorted(ints):
        v = ints[e]
        if e == 0:
            parts.append(fmt(v))
            continue
        xs = "x" if e == 1 else f"x^{e}"
        parts.append(xs if v == 1 else f"{fmt(v)}*{xs}")
    return " + ".join(parts)
