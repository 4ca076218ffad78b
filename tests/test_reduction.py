"""The shared Artin-Schreier reduction engine on the line and in the tower.

The reference oracle below is the straightforward quadratic loop: it
rebuilds the whole polynomial on every step, rescans for the valuation and
takes p-th roots by the power chain a -> a^(p^(n-1)).  The engine must give
the same reduced form, conductor (or jump) and substitution on every input.
"""

import heapq
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from ramforge import aschreier, asext, grids
from ramforge.algebra import (
    INFINITY,
    FieldElement,
    FieldSpec,
    LaurentPoly,
    artin_schreier,
    format_laurent,
    parse_laurent,
)
from ramforge.aschreier import UNRAMIFIED, as_reduce
from ramforge.asext import (
    MAX_EXT_P,
    ExtElement,
    ExtFieldSpec,
    ext_as_reduce,
    format_ext,
    minimal_tower_element,
    parse_ext,
)
from ramforge.errors import InvariantViolation
from ramforge.cli import main

FIELDS = [FieldSpec(2), FieldSpec(3), FieldSpec(7), FieldSpec(2, 8), FieldSpec(3, 5)]
EXTS = [ExtFieldSpec(F, j) for F in FIELDS for j in (1, 2, 4) if j % F.p]


def _root(c):
    return c ** (c.spec.p ** (c.spec.n - 1))


def reference_as_reduce(f):
    """(reduced, conductor, substitution) by the quadratic loop."""
    spec, p = f.spec, f.spec.p
    g, h = f, LaurentPoly.zero(spec)
    while True:
        v = g.valuation
        if v is INFINITY or v >= 0 or v % p:
            break
        step = LaurentPoly.x_pow(spec, v // p, _root(g[v]))
        g = g - artin_schreier(step)
        h = h + step
    return g, (UNRAMIFIED if v is INFINITY or v >= 0 else -v), h


def reference_ext_as_reduce(F):
    """(reduced, jump, substitution) by the quadratic loop."""
    ext = F.ext
    p, j = ext.p, ext.j
    reduced, subst = F, ExtElement.zero(ext)
    while True:
        v = reduced.valuation
        if v is INFINITY or v >= 0 or v % p:
            break
        vv = v // p
        beta = (-vv * pow(j, -1, p)) % p
        alpha = (vv + j * beta) // p
        mono = [LaurentPoly.zero(ext.field)] * p
        mono[beta] = LaurentPoly.x_pow(ext.field, alpha, _root(reduced.coeffs[0][vv]))
        step = ExtElement(ext, mono)
        reduced = reduced - (step.pow_p() - step)
        subst = subst + step
    return reduced, (UNRAMIFIED if v is INFINITY or v >= 0 else -v), subst


# ------------------------------------------------------------- strategies


@st.composite
def elements(draw, spec):
    return spec.element(draw(st.tuples(*[st.integers(0, spec.p - 1)] * spec.n)))


@st.composite
def laurents(draw, spec, lo=-40, hi=4, size=8):
    exps = draw(st.lists(st.integers(lo, hi), max_size=size, unique=True))
    return LaurentPoly(spec, {e: draw(elements(spec)) for e in exps})


@st.composite
def ext_elements(draw, ext, lo=-12, hi=2, size=3):
    return ExtElement(ext, [draw(laurents(ext.field, lo, hi, size)) for _ in range(ext.p)])


@st.composite
def line_cases(draw):
    spec = draw(st.sampled_from(FIELDS))
    f = draw(laurents(spec))
    h = draw(laurents(spec, -20, -1))
    return f, h


@st.composite
def tower_cases(draw):
    ext = draw(st.sampled_from(EXTS))
    F = draw(ext_elements(ext))
    H = draw(ext_elements(ext, -6, -1, 2))
    return F, H


# ------------------------------------------------------- differential tests


@settings(max_examples=150, deadline=None)
@given(line_cases())
def test_as_reduce_matches_reference(case):
    f, h = case
    for g in (f, f + artin_schreier(h)):
        red = as_reduce(g)
        assert (red.f_reduced, red.conductor, red.substitution) == reference_as_reduce(g)


@settings(max_examples=100, deadline=None)
@given(tower_cases())
def test_ext_as_reduce_matches_reference(case):
    F, H = case
    for G in (F, F + (H.pow_p() - H)):
        red = ext_as_reduce(G)
        assert (red.reduced, red.jump, red.substitution) == reference_ext_as_reduce(G)


@pytest.mark.parametrize("ext", EXTS, ids=str)
def test_ext_as_reduce_matches_reference_on_towers(ext):
    # the econd-grid family: the minimal tower element plus a pole x^-s
    for s in range(ext.j + 1, ext.j + 12):
        F = minimal_tower_element(ext) + ExtElement.x_pow(ext, -s)
        red = ext_as_reduce(F)
        assert (red.reduced, red.jump, red.substitution) == reference_ext_as_reduce(F)


# ------------------------------------------------------ property: AS-invariance


@settings(max_examples=150, deadline=None)
@given(line_cases())
def test_conductor_invariant_under_artin_schreier(case):
    f, h = case
    g = f + artin_schreier(h)
    red = as_reduce(g)
    assert red.conductor == as_reduce(f).conductor
    assert g - red.f_reduced == artin_schreier(red.substitution)


@settings(max_examples=100, deadline=None)
@given(tower_cases())
def test_jump_invariant_under_artin_schreier(case):
    F, H = case
    G = F + (H.pow_p() - H)
    red = ext_as_reduce(G)
    assert red.jump == ext_as_reduce(F).jump
    assert G - red.reduced == red.substitution.pow_p() - red.substitution


# ------------------------------------- the engine on FieldElements, as reference
#
# The engines run on int forms through the field kernels.  The loop below is
# the same heap engine on FieldElement arithmetic, with both kill closures,
# kept as the reference the int-form engines must agree with.


def _element_reduce_terms(terms, p, weight, kill):
    heap = [(weight(k), k) for k in terms]
    heapq.heapify(heap)
    h = {}
    while True:
        while heap and heap[0][1] not in terms:
            heapq.heappop(heap)
        if not heap or heap[0][0] >= 0:
            return UNRAMIFIED, h
        v, key = heap[0]
        if v % p:
            return -v, h
        heapq.heappop(heap)
        m_key, r, updates = kill(key, terms[key])
        for k, delta in updates:
            old = terms.get(k)
            new = delta if old is None else old + delta
            if not new:
                terms.pop(k, None)
            else:
                terms[k] = new
                if old is None:
                    assert weight(k) > v
                    heapq.heappush(heap, (weight(k), k))
        assert key not in terms
        h[m_key] = r


def element_as_reduce(f):
    p = f.spec.p

    def kill(e, c):
        r = c.pth_root()
        return e // p, r, ((e, -c), (e // p, r))

    terms = dict(f.terms)
    conductor, h = _element_reduce_terms(terms, p, int, kill)
    return LaurentPoly(f.spec, terms), conductor, LaurentPoly(f.spec, h)


def _ext_element(ext, terms):
    """The ExtElement with the term map {(e, i): FieldElement}, through the
    checked constructor."""
    rows = [{} for _ in range(ext.p)]
    for (e, i), c in terms.items():
        rows[i][e] = c
    return ExtElement(ext, [LaurentPoly(ext.field, r) for r in rows])


def element_ext_as_reduce(F):
    ext = F.ext
    p, j = ext.p, ext.j
    jinv = pow(j, -1, p)

    def weight(key):
        return p * key[0] - j * key[1]

    def kill(key, c):
        e, i = key
        assert i == 0
        beta = -e * jinv % p
        alpha = (e + j * beta) // p
        r = c.pth_root()
        # -(c' x^alpha y^beta)^p with c'^p = c: -C(beta, b) c x^(p alpha - j(beta - b)) y^b
        updates = [((p * alpha - j * (beta - b), b), c * -math.comb(beta, b))
                   for b in range(beta + 1)]
        updates.append(((alpha, beta), r))
        return (alpha, beta), r, updates

    terms = dict(F.terms)
    jump, h = _element_reduce_terms(terms, p, weight, kill)
    return _ext_element(ext, terms), jump, _ext_element(ext, h)


KERNEL_FIELDS = [FieldSpec(3), FieldSpec(2, 8), FieldSpec(3, 5), FieldSpec(67, 2)]


@st.composite
def kernel_line_cases(draw):
    spec = draw(st.sampled_from(KERNEL_FIELDS))
    return draw(laurents(spec)) + artin_schreier(draw(laurents(spec, -20, -1)))


@st.composite
def kernel_tower_cases(draw):
    spec = draw(st.sampled_from(KERNEL_FIELDS))
    ext = ExtFieldSpec(spec, draw(st.sampled_from([j for j in (1, 2, 4) if j % spec.p])))
    F = draw(ext_elements(ext, -12, 2, 2))
    H = draw(ext_elements(ext, -6, -1, 1))
    return F + (H.pow_p() - H)


@settings(max_examples=120, deadline=None)
@given(kernel_line_cases())
def test_as_reduce_agrees_with_the_element_engine(f):
    red = as_reduce(f)
    assert (red.f_reduced, red.conductor, red.substitution) == element_as_reduce(f)


@settings(max_examples=80, deadline=None)
@given(kernel_tower_cases())
def test_ext_as_reduce_agrees_with_the_element_engine(F):
    red = ext_as_reduce(F)
    assert (red.reduced, red.jump, red.substitution) == element_ext_as_reduce(F)


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=str)
def test_ext_as_reduce_agrees_with_the_element_engine_on_towers(spec):
    ext = ExtFieldSpec(spec, 1)
    c = spec.element([1] * spec.n)
    for s in range(2, 9):
        F = minimal_tower_element(ext) + ExtElement.x_pow(ext, -s * spec.p, c)
        red = ext_as_reduce(F)
        assert (red.reduced, red.jump, red.substitution) == element_ext_as_reduce(F)


def test_ext_as_reduce_agrees_with_the_element_engine_at_the_largest_p():
    # F_251, j = 1: c x^(-251 s) is killed at weight -251 s and then at
    # weight -s, whose monomial has y-degree beta = s mod 251; s = 501 gives
    # beta = 250, the longest binomial row
    spec = FieldSpec(MAX_EXT_P)
    ext = ExtFieldSpec(spec, 1)
    # (s = 3 stops at the base's valuation -(251^2 - 251 + 1) after one kill)
    for s, c, jump, steps in [(3, 1, 62751, 1), (260, 7, 65010, 2), (501, 250, 125501, 2)]:
        F = minimal_tower_element(ext) + ExtElement.x_pow(ext, -s * MAX_EXT_P, c)
        red = ext_as_reduce(F)
        assert (red.reduced, red.jump, red.substitution) == element_ext_as_reduce(F)
        assert (red.jump, len(red.substitution.terms)) == (jump, steps)


LINE_PRIME = 2**64 - 59  # the largest prime below 2^64


def test_line_reduction_reads_no_binomial_rows(monkeypatch, capsys):
    # the line's kills all have y-degree 0, so a field near 2^64 costs what
    # F_2 does; a Pascal table mod p would not fit in memory there
    def no_rows(p):
        raise AssertionError(f"binomial rows built for the line over F_{p}")

    monkeypatch.setattr(aschreier, "_binomial_rows", no_rows)
    F = FieldSpec(LINE_PRIME)
    for text, reduced, conductor, h in [
            (f"x^-{LINE_PRIME}", "x^-1", 1, "x^-1"),
            (f"x^-{LINE_PRIME} + 2*x^-1", "3*x^-1", 1, "x^-1"),
            ("x^-5 + 1", "x^-5 + 1", 5, "0")]:
        red = as_reduce(parse_laurent(F, text))
        assert (format_laurent(red.f_reduced), red.conductor,
                format_laurent(red.substitution)) == (reduced, conductor, h)
    assert main(["reduce", "--p", "65537", "x^-131074 + 5*x^-3"]) == 0
    assert capsys.readouterr().out == (
        "f_reduced: 5*x^-3 + x^-2\nconductor: 3\nsubstitution: x^-2\n")
    assert main(["conductor", "--p", "65537", "x^-65537 + x^-2"]) == 0
    assert capsys.readouterr().out == "conductor: 2\n"


WEIGHT_SPECS = {p: FieldSpec(p) for p in (2, 3, 5, 7, MAX_EXT_P)}


@st.composite
def tower_monomials(draw):
    p = draw(st.sampled_from(sorted(WEIGHT_SPECS)))
    j = draw(st.integers(1, 3 * p).filter(lambda j: j % p))
    return ExtFieldSpec(WEIGHT_SPECS[p], j), draw(st.integers(-10**9, 10**9))


@settings(max_examples=300, deadline=None)
@given(tower_monomials(), st.integers(-10**9, 10**9))
def test_weights_and_monomials_round_trip(case, e):
    ext, w = case
    p, j = ext.p, ext.j
    (key, c), = ext._keys({w: 7}).items()
    assert c == 7 and 0 <= key[1] < p and p * key[0] - j * key[1] == w
    assert ext._weights({key: 7}) == {w: 7}
    i = e % p
    assert ext._keys(ext._weights({(e, i): 7})) == {(e, i): 7}


def test_certificate_catches_a_wrong_root_kernel():
    # identity for the p-th root on one F_4 instance: the steps still cancel
    # their leading terms, but h^p - h no longer accounts for the change
    spec = FieldSpec(2, 2)
    spec.root = lambda a: a
    c = spec.element([0, 1])  # c^2 = c + 1 != c
    message = "reduction substitution does not account for the change"
    with pytest.raises(InvariantViolation, match=message):
        as_reduce(LaurentPoly(spec, {-2: c}))
    with pytest.raises(InvariantViolation, match=message):
        ext_as_reduce(ExtElement.x_pow(ExtFieldSpec(spec, 1), -2, c))


# -------------------------------------------------------------- linearity


def _builds_during(monkeypatch, fn, *inputs, cls=LaurentPoly):
    """How many cls objects (LaurentPoly, ExtElement or FieldElement) fn(x)
    constructs, for each input x, through the public constructor or the
    trusted one."""
    count = [0]
    init = cls.__init__

    def counting_init(self, *args):
        count[0] += 1
        init(self, *args)

    monkeypatch.setattr(cls, "__init__", counting_init)
    if hasattr(cls, "_trusted"):
        trusted = cls._trusted

        def counting_trusted(spec, terms):
            count[0] += 1
            return trusted(spec, terms)

        monkeypatch.setattr(cls, "_trusted", staticmethod(counting_trusted))
    out = []
    for x in inputs:
        count[0] = 0
        fn(x)
        out.append(count[0])
    return out


def _line_input(spec, k):
    # k poles in h at -k .. -(2k - 1), so every pole of h^p is reduced: k steps
    h = LaurentPoly(spec, {-d: 1 for d in range(k, 2 * k)})
    return artin_schreier(h) + LaurentPoly.x_pow(spec, -(spec.p * k - 1))


def _tower_input(ext, k):
    # k monomials of H, spread over every y-degree, all below the base's valuation
    p, j = ext.p, ext.j
    low = (p * p - p + 1) * j + 1
    rows = [{} for _ in range(p)]
    for v in range(low, low + k):
        beta = v * pow(j, -1, p) % p
        rows[beta][(j * beta - v) // p] = 1
    H = ExtElement(ext, [LaurentPoly(ext.field, r) for r in rows])
    return minimal_tower_element(ext) + (H.pow_p() - H)


def test_as_reduce_builds_constant_number_of_polynomials(monkeypatch):
    spec = FieldSpec(3)
    small, large = _line_input(spec, 20), _line_input(spec, 200)
    assert len(as_reduce(large).substitution.terms) == 200
    n_small, n_large = _builds_during(monkeypatch, as_reduce, small, large)
    assert n_small == n_large


def test_ext_as_reduce_builds_constant_number_of_polynomials(monkeypatch):
    ext = ExtFieldSpec(FieldSpec(3), 2)
    small, large = _tower_input(ext, 20), _tower_input(ext, 200)
    assert sum(len(a.terms) for a in ext_as_reduce(large).substitution.coeffs) == 200
    n_small, n_large = _builds_during(monkeypatch, ext_as_reduce, small, large)
    assert n_small == n_large


def test_ext_as_reduce_builds_constant_number_of_ext_elements(monkeypatch):
    # an ExtElement is a term map, so the engine builds no LaurentPoly at all;
    # the elements it builds must not grow with the step count either
    ext = ExtFieldSpec(FieldSpec(3), 2)
    small, large = _tower_input(ext, 20), _tower_input(ext, 200)
    n_small, n_large = _builds_during(monkeypatch, ext_as_reduce, small, large,
                                      cls=ExtElement)
    assert 0 < n_small == n_large


@pytest.mark.parametrize("spec", [FieldSpec(3), FieldSpec(2, 8)], ids=str)
def test_engines_build_one_field_element_per_output_term(monkeypatch, spec):
    # LaurentPoly and ExtElement store int forms, and the engines, the parser
    # and the formatter read and write those maps: none builds a FieldElement
    f = _line_input(spec, 60)
    ext = ExtFieldSpec(spec, 1)
    F = _tower_input(ext, 60)
    red, ext_red = as_reduce(f), ext_as_reduce(F)
    text, ext_text = format_laurent(f), format_ext(F)
    assert _builds_during(monkeypatch, as_reduce, f, cls=FieldElement) == [0]
    assert _builds_during(monkeypatch, ext_as_reduce, F, cls=FieldElement) == [0]
    assert _builds_during(monkeypatch, lambda t: parse_laurent(spec, t), text,
                          cls=FieldElement) == [0]
    assert _builds_during(monkeypatch, lambda t: parse_ext(ext, t), ext_text,
                          cls=FieldElement) == [0]
    assert _builds_during(monkeypatch, format_laurent, f, red.f_reduced, red.substitution,
                          cls=FieldElement) == [0, 0, 0]
    assert _builds_during(monkeypatch, format_ext, F, ext_red.reduced, ext_red.substitution,
                          cls=FieldElement) == [0, 0, 0]


# -------------------------------------------------------- one reduction per tower


def _count_reductions(monkeypatch):
    """Count ext_as_reduce calls, through asext and through the grids' import."""
    count = [0]
    reduce = asext.ext_as_reduce

    def counting(F):
        count[0] += 1
        return reduce(F)

    monkeypatch.setattr(asext, "ext_as_reduce", counting)
    monkeypatch.setattr(grids, "ext_as_reduce", counting)
    return count


def test_tower_command_reduces_once(monkeypatch, capsys):
    count = _count_reductions(monkeypatch)
    assert main(["tower", "--p", "2", "--j", "1", "--F", "x^-5 ; 0"]) == 0
    assert "upper jumps: (1, 5)" in capsys.readouterr().out
    assert count[0] == 1


def test_econd_grid_reduces_once_per_row(monkeypatch):
    count = _count_reductions(monkeypatch)
    result = grids.econd_grid(3, 4, 12)
    assert result.passed
    assert count[0] == len(result.rows)


def test_reference_oracle_agrees_on_small_exhaustive_line():
    # every f = a*x^-4 + b*x^-2 + c*x^-1 over F_2^2 against the oracle
    spec = FieldSpec(2, 2)
    for a, b, c in itertools.product(list(spec.elements()), repeat=3):
        f = LaurentPoly(spec, {-4: a, -2: b, -1: c})
        red = as_reduce(f)
        assert (red.f_reduced, red.conductor, red.substitution) == reference_as_reduce(f)
