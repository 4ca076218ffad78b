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

`FieldSpec`, `FieldElement` and the ten records of the other modules
(`aschreier.ASReduced`, `asext.ExtFieldSpec`, `ramfilt.Filtration`, ...)
are `_Record`s: immutable, and compared, hashed, copied and pickled by
their fields.  `LaurentPoly` and `ExtElement` keep their maps in private
slots and expose no attribute that can be set.  Every operation is a pure
function that returns a new value.
"""

from __future__ import annotations

import itertools
import re
import sys
from functools import lru_cache
from math import comb
from operator import attrgetter, mul, xor

from .errors import FieldMismatch, InputError, ParseError


class _Infinity:
    """Valuation of the zero polynomial.  Compares above every integer; the
    one instance INFINITY, which copy and pickle return, equals only itself."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Infinity)

    def __gt__(self, other):
        return not isinstance(other, _Infinity)

    def __ge__(self, other):
        return True

    def __reduce__(self):
        return "INFINITY"

    def __repr__(self):
        return "+inf"


INFINITY = _Infinity()


class _Record:
    """Base of the twelve immutable records, `FieldSpec` and `FieldElement`
    here and ten in the other modules.  A subclass names its fields in
    `_fields`, in constructor order, and its constructor, after its checks,
    stores them with one `_store(self, (f1, f2, ...))`: that tuple,
    `_values`, is the record's storage, and each field is a read-only
    property over its entry.  ==, hash, repr, copy and pickle read
    `_values`, as those of a frozen dataclass read the fields:
    `InertiaShape(p=3, e=2, m=2)`; copy and pickle rebuild through the
    constructor.  A derived value (`InertiaShape.order`; `FieldSpec`'s q,
    modulus, kernels, `fmt` and `read`; `Filtration`'s knot table `_knots`
    and findings `_problems`) is a slot of its own class, outside the fields,
    set once by the constructor.  Assignment and deletion raise
    AttributeError."""

    __slots__ = ("_values",)
    _fields: tuple = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(lambda self, i=i: self._values[i]))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


_store = _Record._values.__set__


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


def require_type(value, cls: type, name: str):
    """value, if it is an instance of cls, else TypeError ``NAME must be
    a(n) CLS, got TYPE``: the one check of an argument of a library type,
    the first statement that touches it.  Only the functions called for
    every point or branch point of an item (`psi`, `phi`,
    `ram_divisor_degree`, `Filtration`, `CoverData`) put an inline
    ``type(value) is not cls`` test before it, as `require_int` does; an
    object that merely carries the attributes read is refused."""
    if isinstance(value, cls):
        return value
    article = "an" if cls.__name__[0] in "AEIOU" else "a"
    raise TypeError(f"{name} must be {article} {cls.__name__}, got {type(value).__name__}")


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
def _chunk_table(p: int) -> tuple:
    """The two-way text table of p in {2, 3, 5, 7}: (c, texts, values), c the
    largest width with p^c <= 256, texts[w][v] the text "d0,...,d(w-1)" of
    the w base-p digits of v, lowest first, for w = 1..c, and values the map
    from each of these sum_{w <= c} p^w texts back to its v."""
    digits = list("0123456789"[:p])
    texts = [None, digits]
    while len(texts[-1]) * p <= 256:
        texts.append([d + "," + t for t in texts[-1] for d in digits])
    return len(texts) - 1, texts, {t: v for row in texts[1:] for v, t in enumerate(row)}


def _unheld(vec):
    """The vector read of a field without a text table: it holds no text."""
    return None


@lru_cache(maxsize=None)
def _text_forms(p: int, n: int) -> tuple:
    """(fmt, read) of F_{p^n}: fmt the text of an int form, the int itself
    over F_p, else the vector [c0,c1,...] of its digits, lowest first; read
    the int form of a vector text `[...]`, or None where the field's text
    table does not hold it.  Over p <= 7 both go through `_chunk_table(p)`,
    one lookup per c components: fmt joins the chunk texts (n <= c indexes
    a tuple of the q bracketed texts of the table's row n), and read holds
    exactly the texts of 1..n one-digit components below p, whose chunks
    start at the fixed offsets 1, 2c + 1, 4c + 1, ...; one dict lookup
    checks and converts each, and the comma before each next chunk is
    checked.  F_p and p >= 11, whose components may have two digits, have
    no table."""
    if n == 1:
        return str, _unheld
    if p > 7:
        return (lambda v: "[" + ",".join(map(str, _digits(v, p, n))) + "]"), _unheld
    c, texts, values = _chunk_table(p)
    get, t, base, step, size = values.get, texts[min(n, c)], p**c, 2 * c, 2 * n + 1

    def read(vec):
        if len(vec) > size:
            return None
        v, scale = 0, 1
        while len(vec) > step + 1:  # "[" or ",", a full chunk, a comma and more
            d = get(vec[1:step])
            if d is None or vec[step] != ",":
                return None
            v, scale, vec = v + d * scale, scale * base, vec[step:]  # the comma opens the rest
        d = get(vec[1:-1])
        return None if d is None else v + d * scale

    if n <= c:
        return tuple(f"[{text}]" for text in t).__getitem__, read
    chunks = range(0, n, c)

    def fmt(v):  # the top chunk is padded to c digits, then cut
        out = []
        for _ in chunks:
            v, d = divmod(v, base)
            out.append(t[d])
        return "[" + ",".join(out)[:2 * n - 1] + "]"

    return fmt, read


class FieldSpec(_Record):
    """The coefficient field F_q with q = p^n, p prime and q <= 2^64.

    Its elements are ints 0 <= v < q whose base-p digits are the coordinates
    in the polynomial basis of the canonical modulus; `_kernels` picks the
    arithmetic on them once per (p, n), `fmt` is their text form and `read`
    the table read of a vector text, None for a text its table does not
    hold (`_text_forms`).  The fields are (p, n); q, the modulus, the seven
    kernels, `fmt` and `read` are slots derived from them, set once here.
    """

    __slots__ = ("q", "modulus", "add", "sub", "neg", "mul", "inv", "frob", "root", "fmt", "read")
    _fields = ("p", "n")

    def __init__(self, p: int, n: int = 1):
        modulus = canonical_modulus(p, n)  # which checks p and n
        _store(self, (p, n))
        for set_slot, v in zip(_set_derived, (p**n, modulus, *_kernels(p, n), *_text_forms(p, n))):
            set_slot(self, v)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement._trusted(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement._trusted(self, 1)

    def scalar(self, c: int) -> "FieldElement":
        """Image of the integer c under Z -> F_p inside F_q; TypeError
        unless c is an int (`_residue`)."""
        return FieldElement._trusted(self, _residue(c, self.p))

    def element(self, coords) -> "FieldElement":
        """The element with these int coordinates (TypeError for any other,
        `_residue`), lowest degree first, each taken mod p; ParseError past n."""
        p = self.p
        coords = [_residue(c, p) for c in coords]
        if len(coords) > self.n:
            raise _length_error(len(coords), self.n)
        return FieldElement._trusted(self, _undigits(coords, p))

    def elements(self):
        """Iterate over all q elements (intended for small fields)."""
        for coords in itertools.product(range(self.p), repeat=self.n):
            yield self.element(coords)

    def __repr__(self):
        p, n = self._values
        return f"F_{p}" if n == 1 else f"F_{p}^{n}"


_set_derived = [getattr(FieldSpec, name).__set__ for name in FieldSpec.__slots__]


def _kernel_operator(name: str, reflected: bool = False):
    """The FieldElement operator applying the spec's kernel `name` to the int
    forms of self and other, other first when reflected.  An operand that is
    neither an element nor an int (a bool is not) gets NotImplemented, so
    Python tries its reflected method: c * f for a LaurentPoly f scales f."""
    kernel = attrgetter(name)

    def op(self, other):
        if not (isinstance(other, FieldElement) or type(other) is int):
            return NotImplemented
        spec, a = self._values
        b = _form(spec, other)
        return self._trusted(spec, kernel(spec)(*((b, a) if reflected else (a, b))))

    return op


class FieldElement(_Record):
    """Element of F_{p^n} as its int form v (see FieldSpec).

    The constructor checks caller input: v must be an int in 0..q - 1
    (`require_int`: TypeError for a bool or any other type, else
    InputError).  Results of field operations are built by `_trusted`.
    """

    __slots__ = ()
    _fields = ("spec", "v")

    def __init__(self, spec: FieldSpec, v: int):
        require_type(spec, FieldSpec, "spec")
        if type(v) is not int or not 0 <= v < spec.q:  # its name is formatted only to raise
            require_int(v, f"int form of an element of {spec}", 0, spec.q - 1)
        _store(self, (spec, v))

    @classmethod
    def _trusted(cls, spec: FieldSpec, v: int) -> "FieldElement":
        """Internal results: v is already an int form of spec."""
        out = object.__new__(cls)
        _store(out, (spec, v))
        return out

    @property
    def coords(self) -> tuple[int, ...]:
        """Coordinates in the polynomial basis, lowest degree first."""
        return tuple(_digits(self.v, self.spec.p, self.spec.n))

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

    def __str__(self):
        return self.spec.fmt(self.v)

    def __repr__(self):
        return f"{self} in {self.spec}"


def _residue(c, p: int) -> int:
    """c mod p for an int c; TypeError for any other type, a bool included."""
    if type(c) is not int:
        raise TypeError(f"expected an int, got {type(c).__name__}")
    return c % p


def _form(spec: FieldSpec, c) -> int:
    """The int form of c, an element of spec or an int (`_residue`);
    FieldMismatch for an element of another field."""
    if isinstance(c, FieldElement):
        other, v = c._values
        if other is not spec and other != spec:
            raise FieldMismatch(f"{spec} vs {other}")
        return v
    return _residue(c, spec.p)


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


class _BinomialRows(dict):
    """The tower's binomial rows mod p, one table per p (`_binomial_rows`),
    row beta < p built on first use: (b, C(beta, b), -C(beta, b)) in F_p for
    b = 1..beta, the terms of (y + x^-j)^beta past y^beta, term b lying
    step*b = j*(p - 1)*b above it in weight; the p-th power reads +C and the
    kill -C.  None is 0, as beta < p."""

    def __init__(self, p: int):
        self.p = p

    def __missing__(self, beta: int) -> tuple:
        row = self[beta] = tuple((b, (c := comb(beta, b) % self.p), self.p - c)
                                 for b in range(1, beta + 1))
        return row


_binomial_rows = lru_cache(maxsize=None)(_BinomialRows)


class _IntMap:
    """The arithmetic of the two sparse rings, each element the map `_ints`
    from weights to nonzero int forms of the field `_field`, over `_over`
    (the field itself, or an `asext.ExtFieldSpec`).  The weight of x^e is e
    on the line and p*e - j*i for x^e y^i in the tower over y^p - y = x^-j,
    a bijection onto the integers there, so a weight names one monomial and
    its y-degree is -w/j mod p = -w * jinv % p.  `_ring` is (jinv, step) =
    (1/j mod p, j*(p - 1)) in the tower and (0, 0) on the line, where every
    y-degree is 0, and `_noun` names the elements.  A subclass adds its
    public constructor, which checks caller input once, and its view `terms`."""

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

    def __bool__(self):
        return bool(self._ints)

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
        rhs = [(w, c, -w * jinv % p) for w, c in other._ints.items()]

        def products():
            for w1, c1 in self._ints.items():
                i1 = -w1 * jinv % p
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

    def _add_pow_p(self, out: dict) -> dict:
        """out plus the p-th power, added in place: (c m)^p = c^p x^(p*e)
        (y + x^-j)^beta for each term c m of weight w and y-degree beta, its
        term b at weight p*w + step*b (b = 0 alone on the line)."""
        spec, (jinv, step) = self._field, self._ring
        p, add, mul, frob = spec.p, spec.add, spec.mul, spec.frob
        rows = _binomial_rows(p) if step else ((),)  # every y-degree is 0 on the line
        get = out.get
        for w, c in self._ints.items():
            c, row, w = frob(c), rows[-w * jinv % p], p * w
            old = get(w)
            if old is None:
                out[w] = c
            elif s := add(old, c):
                out[w] = s
            else:
                del out[w]
            for b, m, _ in row:
                k, d = w + step * b, mul(c, m)
                old = get(k)
                if old is None:
                    out[k] = d
                elif s := add(old, d):
                    out[k] = s
                else:
                    del out[k]
        return out

    def _pow_p(self):
        """p-th power, `_add_pow_p` into an empty map."""
        return self._trusted(self._over, self._add_pow_p({}))

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
    `require_int`, coefficients elements of `spec` or ints, `spec` a
    `FieldSpec` and the map `terms` None or a dict (TypeError otherwise).
    Arithmetic results are built by `_trusted`; `terms` builds the
    `FieldElement`s on request.
    """

    __slots__ = ()
    spec = _field = property(attrgetter("_over"))
    _ring = (0, 0)
    _noun = "Laurent polynomials"
    frobenius = _IntMap._pow_p

    def __init__(self, spec: FieldSpec, terms=None):
        require_type(spec, FieldSpec, "spec")
        clean: dict[int, int] = {}
        for e, c in (require_type(terms, dict, "terms") if terms is not None else {}).items():
            e = require_int(e, "exponent", -MAX_EXPONENT, MAX_EXPONENT)
            if v := _form(spec, c):
                clean[e] = v
        self._over = spec
        self._ints = clean

    @classmethod
    def x_pow(cls, spec: FieldSpec, e: int, coeff=1) -> "LaurentPoly":
        return cls(spec, {e: coeff})

    @property
    def terms(self) -> dict:
        """{exponent: nonzero FieldElement}, a fresh dict on every call."""
        spec = self.spec
        return {e: FieldElement._trusted(spec, v) for e, v in self._ints.items()}

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
    return require_type(h, LaurentPoly, "h").frobenius() - h


# Exponents are bounded like q, p^e and D: |e| <= 2^64.
MAX_EXPONENT = 2**64

# A term's body: a bracketed vector of digits, commas and minus signs, a
# scalar or, with neither, a lookahead for the x power; then the optional x
# power.  A term is an optional sign and a body.  `_TERMS_RE` captures
# (sign, vector, scalar, x, exponent, stray); where no term starts, its last
# alternative takes one stray character, so one `findall` tiles the whole
# text into rows.  A vector is read by the field's text table (`read`) or,
# where the table does not hold it, split at its commas with each component
# checked as it is read, and by `_VECTOR_RE` when one fails.
_BODY = (r"(?:(\[[-0-9,]*\])|([0-9]+)|(?=\*?x))"
         r"(?:\*?(x)(?:\^([+-]?[0-9]+))?)?")
_TERMS_RE = re.compile(r"([+-]?)" + _BODY + r"|([\s\S])")
_VECTOR_RE = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")


def _length_error(length: int, n: int) -> ParseError:
    return ParseError(f"coefficient vector of length {length} in a degree-{n} field")


def _parse_ints(spec: FieldSpec, text: str, ints: dict, scale: int = 1, shift: int = 0) -> dict:
    """ints, after adding each term c*x^e of the text (see parse_laurent)
    at weight scale*e + shift; a weight whose sum cancels drops out.

    One `findall` reads the rows of the whole text, left to right.  A
    vector goes to the field's `read` first; a text it does not hold is
    folded by Horner, which checks its components and length.  The read
    stops at the first row that is a stray character, that follows row 1
    without a sign or that holds a malformed vector; only then is `finditer`
    run up to that row, for the offset the message quotes from.
    """
    s = "".join(text.split())
    if not s:
        raise ParseError("empty Laurent polynomial")
    p, n, add, neg, read = spec.p, spec.n, spec.add, spec.neg, spec.read
    for k, (sign, vec, num, x, exp, stray) in enumerate(_TERMS_RE.findall(s), 1):
        if stray or not sign and k > 1:
            break
        try:
            if not vec:
                c = int(num) % p if num else 1
            elif (c := read(vec)) is None:  # a text the field's table does not hold
                parts = vec[1:-1].split(",")
                if len(parts) > n:  # its components are checked before its length
                    for d in parts:
                        int(d)
                    raise _length_error(len(parts), n)
                c = 0
                for d in reversed(parts):  # Horner; int() rejects '' and misplaced '-'
                    c = c * p + int(d) % p
            e = int(exp) if exp else 1 if x else 0
        except ParseError:  # the length error
            raise
        except ValueError:
            if vec and not _VECTOR_RE.fullmatch(vec, 1, len(vec) - 1):
                break  # a malformed vector: the read ends where its term starts
            raise ParseError(f"term {k}: a numeral has more than "
                             f"{sys.get_int_max_str_digits()} digits") from None
        if not -MAX_EXPONENT <= e <= MAX_EXPONENT:
            raise ParseError(f"term {k}: exponent outside the bound |e| <= 2^64")
        if sign == "-":
            c = neg(c)
        w = scale * e + shift
        if (old := ints.get(w)) is not None:
            c = add(old, c)
        if c:
            ints[w] = c
        elif old is not None:
            del ints[w]
    else:
        return ints
    end = next(itertools.islice(_TERMS_RE.finditer(s), k - 1, None)).start()
    raise ParseError(f"bad term {s[end:]!r} in {text!r}")


def parse_laurent(spec: FieldSpec, text: str) -> LaurentPoly:
    """Parse the `c*x^e` sum grammar, e.g. ``x^-7 + 2*x^-3 + x^2``.

    Whitespace (exactly what `str.split` and the regex ``\\s`` treat as
    such) is ignored.  A term is an optional sign, then a coefficient, an
    ``x`` power or both; every term after the first starts with its sign.
    Coefficients over extensions are polynomial-basis vectors
    ``[c0,c1,...]`` of ``-?[0-9]+`` components.  Scalars are ``[0-9]+`` and
    exponents signed ``[0-9]+`` with |e| <= 2^64; only ASCII digits are
    accepted.  One regex `findall` tiles the whole text into terms and
    stray characters, and each term goes into the map as it is read, left
    to right, so a numeral or vector-length error names the first term
    that has one; a stray character, a term after the first without a sign
    or a malformed vector stops the read: ``bad term REST in TEXT``.
    Over an extension field with p <= 7, a vector of 1..n one-digit
    components below p is read from the field's text table, one dict lookup
    per chunk of c components (c = 8, 5, 3, 2 for p = 2, 3, 5, 7); every
    other vector, and every vector over F_p or for p >= 11, is split at its
    commas and folded by Horner with each component taken mod p, which
    yields the same value or error.
    A text that is not a str is a TypeError.
    """
    require_type(spec, FieldSpec, "spec")
    return LaurentPoly._trusted(spec, _parse_ints(spec, require_type(text, str, "text"), {}))


def _format_terms(pairs, fmt) -> str:
    """The text of (exponent, nonzero int form) pairs, in their order; "0" for none."""
    return " + ".join([fmt(v) if e == 0
                       else ("x" if e == 1 else f"x^{e}") if v == 1
                       else f"{fmt(v)}*x" if e == 1 else f"{fmt(v)}*x^{e}"
                       for e, v in pairs]) or "0"


def format_laurent(f: LaurentPoly) -> str:
    """Canonical text form, terms in increasing exponent order."""
    require_type(f, LaurentPoly, "f")
    return _format_terms(sorted(f._ints.items()), f.spec.fmt)
