"""The Laurent parser against the two parsers it replaced.

The first reference oracle below is the chunking parser: a per-character
state machine splits the text into signed chunks at the signs outside
brackets, each chunk must fully match an anchored term regex, and a helper
decodes the coefficient.  The library must accept exactly the same strings
and return the same polynomials in every field.

The second is the per-term scan: one term regex matched term by term from
the left, each term checked and folded before the next is matched.  The
library now reads the whole text in one `findall` whose last alternative
takes a stray character where no term starts, and adds each term to the
map as it reads it; it must give the same value, or the same exception
type and message, on every string.  Wherever the scan stops at a term it
cannot read (a stray character, a term after the first without a sign, a
sign after a sign, a malformed or empty vector component) the message is
``bad term REST in TEXT``, REST being the text from that term on; the
numeral, vector-length and exponent errors name the term by its number.

Also here: the round-trip fuzz targets, parsing the canonical text form is
the identity for Laurent polynomials and for tower extension elements;
`format_ext`, which splits the sorted weights itself, against the rows of
`coeffs` written by `format_laurent`;
`parse_ext`'s one shared weight map against the public `ExtElement`
constructor on segments with repeated and cancelling exponents; the
text-table read of one-digit vectors against split plus Horner; and the
text forms against the digit formula, for the Zech-tabled fields and for
each chunk layout of the per-characteristic text tables.
"""

import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from ramforge.algebra import (
    ZECH_MAX_Q,
    FieldElement,
    FieldSpec,
    LaurentPoly,
    _chunk_table,
    _is_prime,
    format_laurent,
    parse_laurent,
)
from ramforge.asext import ExtElement, ExtFieldSpec, format_ext, parse_ext
from ramforge.errors import ParseError

FIELDS = [FieldSpec(2), FieldSpec(3), FieldSpec(2, 3), FieldSpec(5, 2)]

# ------------------------------------------------------ reference oracle

REF_TERM_RE = re.compile(
    r"^(?P<coeff>\[[^\[\]]*\]|[0-9]+)?(?:\*?(?P<x>x)(?:\^(?P<exp>[+-]?[0-9]+))?)?$"
)
REF_VECTOR_RE = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")


def ref_signed_chunks(s):
    chunks = []
    cur = []
    depth = 0
    sign = 1
    prev = ""
    for ch in s:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced ']' in {s!r}")
        if ch in "+-" and depth == 0:
            if prev in ("+", "-"):
                raise ParseError(f"sign follows a sign in {s!r}")
            if prev.isalnum() or prev == "]":
                chunks.append((sign, "".join(cur)))
                cur = []
                sign = 1 if ch == "+" else -1
                prev = ch
                continue
            if not prev:  # a single leading sign
                sign = 1 if ch == "+" else -1
                prev = ch
                continue
        cur.append(ch)
        prev = ch
    if depth:
        raise ParseError(f"unbalanced '[' in {s!r}")
    chunks.append((sign, "".join(cur)))
    return chunks


def ref_parse_coeff(spec, text):
    if text.startswith("["):
        inner = text[1:-1]
        parts = inner.split(",")
        if "" in parts:
            raise ParseError(f"empty component in coefficient vector {text!r}")
        if not REF_VECTOR_RE.fullmatch(inner):
            raise ParseError(f"bad coefficient vector {text!r}")
        return spec.element([int(p) for p in parts])
    return spec.scalar(int(text))


def ref_parse_laurent(spec, text):
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ParseError("empty Laurent polynomial")
    terms = {}
    for sign, chunk in ref_signed_chunks(s):
        if not chunk:
            raise ParseError(f"empty term in {text!r}")
        m = REF_TERM_RE.match(chunk)
        if not m or (m.group("coeff") is None and m.group("x") is None):
            raise ParseError(f"bad term {chunk!r} in {text!r}")
        coeff = (
            spec.one if m.group("coeff") is None else ref_parse_coeff(spec, m.group("coeff"))
        )
        if sign < 0:
            coeff = -coeff
        if m.group("x") is None:
            e = 0
        elif m.group("exp") is None:
            e = 1
        else:
            e = int(m.group("exp"))
        prev = terms.get(e)
        terms[e] = coeff if prev is None else prev + coeff
    return LaurentPoly(spec, terms)


def outcome(parse, spec, text):
    """The parsed polynomial, or ParseError when the text is rejected."""
    try:
        return parse(spec, text)
    except ParseError:
        return ParseError


# ------------------------------------------ reference oracle: per-term scan

SCAN_TERM_RE = re.compile(
    r"(?P<sign>[+-])?(?P<coeff>\[(?P<vec>[^\[\]]*)\]|[0-9]+)?"
    r"(?:\*?(?P<x>x)(?:\^(?P<exp>[+-]?[0-9]+))?)?"
)


def scan_parse_laurent(spec, text):
    """The per-term scan, plus the exponent bound |e| <= 2^64 that the
    library added to it, at the same point of the same term.  A sign after
    a sign, an empty vector component and a malformed vector are each a
    `bad term` from where the failing term starts, as in the library."""
    s = "".join(text.split())
    if not s:
        raise ParseError("empty Laurent polynomial")
    p, n = spec.p, spec.n
    terms = {}
    pos = k = 0
    while pos < len(s):
        m = SCAN_TERM_RE.match(s, pos)
        k += 1
        sign, coeff, vec, x, exp = m.groups()
        if ((pos and sign is None) or (coeff is None and x is None)
                or (vec is not None and not REF_VECTOR_RE.fullmatch(vec))):
            raise ParseError(f"bad term {s[pos:]!r} in {text!r}")
        if vec is not None:
            parts = vec.split(",")
            coords = [int(d) % p for d in parts]
            if len(coords) > n:
                raise ParseError(f"coefficient vector of length {len(coords)} "
                                 f"in a degree-{n} field")
            c = 0
            for d in reversed(coords):
                c = c * p + d
        else:
            c = 1 if coeff is None else int(coeff) % p
        if sign == "-":
            c = spec.neg(c)
        e = 0 if x is None else 1 if exp is None else int(exp)
        if abs(e) > 2**64:
            raise ParseError(f"term {k}: exponent outside the bound |e| <= 2^64")
        terms[e] = spec.add(terms[e], c) if e in terms else c
        pos = m.end()
    return LaurentPoly(spec, {e: FieldElement(spec, c) for e, c in terms.items()})


def full_outcome(parse, spec, text):
    """The parsed polynomial, or the exception's type and message."""
    try:
        return parse(spec, text)
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), str(exc)


# ------------------------------------------------------------ strategies

# the grammar's alphabet plus a non-ASCII digit, an underscore and a stray letter
ALPHABET = "x^[]*,+- 0123456789٣_y"
digits = st.text("0123456789", min_size=1, max_size=3)
component = st.builds(lambda neg, d: neg + d, st.sampled_from(["", "-"]), digits)
coefficients = st.one_of(
    st.just(""),
    digits,
    st.lists(component, min_size=1, max_size=3).map(lambda cs: "[" + ",".join(cs) + "]"),
)
exponents = st.one_of(
    st.just(""),
    st.builds(lambda sign, d: "^" + sign + d, st.sampled_from(["", "+", "-"]), digits),
)
spaces = st.sampled_from(["", "", " ", "  "])


@st.composite
def sums(draw):
    """Well-formed sums of c*x^e terms, whitespace sprinkled in."""
    out = []
    for i in range(draw(st.integers(1, 5))):
        sign = draw(st.sampled_from(["", "+", "-"] if i == 0 else ["+", "-"]))
        coeff = draw(coefficients)
        x = draw(st.sampled_from(["", "x", "*x"] if coeff else ["x", "*x"]))
        out.append(sign + draw(spaces) + coeff + x + (draw(exponents) if x else ""))
    return draw(spaces).join(out)


@st.composite
def near_misses(draw):
    """A well-formed sum after one to three single-character edits."""
    text = draw(sums())
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(ALPHABET))
        text = draw(st.sampled_from([
            text[:i] + ch + text[i:], text[:i] + text[i + 1:], text[:i] + ch + text[i + 1:],
        ]))
    return text


noise = st.text(ALPHABET, max_size=24)

# Unicode whitespace that str.split removes, next to the ASCII space and tab
WHITESPACE = [" ", "\t", "\n", "\x0b", "\x1c", "\x85", "\xa0", "\u2002", "\u2028", "\u3000"]
numerals = st.text("0123456789", min_size=1, max_size=20)
tokens = st.one_of(
    st.sampled_from(["x", "^", "[", "]", "*", ",", "+", "-", "x^", "*x", "x^-", "_", "\u0663",
                     *WHITESPACE]),
    numerals,
    # vectors: empty, short or longer than any test field's degree, with
    # signed, empty or over-long components
    st.lists(st.one_of(numerals, numerals.map("-".__add__), st.just(""), st.just("-")),
             max_size=7).map(lambda cs: "[" + ",".join(cs) + "]"),
)
token_strings = st.lists(tokens, max_size=12).map("".join)


@st.composite
def spaced_sums(draw):
    """Well-formed sums with long numerals and Unicode whitespace."""
    out = []
    for i in range(draw(st.integers(1, 5))):
        sign = draw(st.sampled_from(["", "+", "-"] if i == 0 else ["+", "-"]))
        coeff = draw(st.one_of(
            st.just(""), numerals,
            st.lists(numerals, min_size=1, max_size=4).map(lambda cs: "[" + ",".join(cs) + "]"),
        ))
        x = draw(st.sampled_from(["", "x", "*x"] if coeff else ["x", "*x"]))
        exp = draw(st.builds(lambda sg, d: "^" + sg + d, st.sampled_from(["", "+", "-"]),
                             numerals)) if x and draw(st.booleans()) else ""
        out.append(sign + draw(st.sampled_from(WHITESPACE)) + coeff + x + exp)
    return draw(st.sampled_from(WHITESPACE)).join(out)


# ---------------------------------------------------------------- oracle

@pytest.mark.parametrize("strategy,examples", [
    (noise, 500), (sums(), 200), (near_misses(), 400),
], ids=["noise", "sums", "near-misses"])
def test_same_accept_set_and_values_as_the_chunking_parser(strategy, examples):
    @settings(max_examples=examples, deadline=None)
    @given(st.sampled_from(FIELDS), strategy)
    def check(spec, text):
        want = outcome(ref_parse_laurent, spec, text)
        assert outcome(parse_laurent, spec, text) == want, (spec, text)

    check()


@pytest.mark.parametrize("strategy,examples", [
    (token_strings, 800), (spaced_sums(), 300), (near_misses(), 300), (noise, 300),
], ids=["tokens", "spaced-sums", "near-misses", "noise"])
def test_same_values_and_messages_as_the_per_term_scan(strategy, examples):
    @settings(max_examples=examples, deadline=None)
    @given(st.sampled_from(FIELDS), strategy)
    def check(spec, text):
        want = full_outcome(scan_parse_laurent, spec, text)
        assert full_outcome(parse_laurent, spec, text) == want, (spec, text)

    check()


F_2_16 = FieldSpec(2, 16)
CHUNK = "1,0,1,1,0,0,1,0"  # the 8 components of one F_2^16 chunk

ERROR_ORDER = [(FIELDS[2], text) for text in [
    "x^-3 + [1,,1]*x + x^^2",          # the vector error of term 2 comes first
    "[1,1,1,1]*x + [1_1]*x",           # the length error of term 1 comes first
    "x + [1,1,1,1,1]*x^-1 + -",        # the length error of term 2 comes first
    "[1,1,1,1]*x^-" + "1" * 30,        # the length error comes before the exponent bound
    "x^-18446744073709551617 + [1,,1]",
    "x^18446744073709551616 + x^-18446744073709551616",
    "[--1]*x", "[-]*x", "[]*x", "[1-2]*x", "[,]", "[1,2]x^3x",
    "x^-3 + x@",                       # a stray character after valid terms
    "@x",                              # a stray character first
    "x2", "[1,0]x^-3x",                # a second term without a sign
    "x+-x",                            # a sign after a sign
    "x - x + x", "x^-2 - x^-2",        # a weight cancels, then reappears or not
]] + [
    # vector texts that the field's text table does not hold, read by Horner:
    # a component >= p; the components -0, 01 and 10; an empty component and
    # a trailing comma, also where a second F_2^16 chunk would start; n + 1
    # components; a bad character in the second chunk of an F_2^16 vector
    (FieldSpec(2, 2), "[2,0]*x^-3"), (FieldSpec(2, 2), "x + [2,0]"),
    (FieldSpec(3, 5), "[1,-0,2]*x^-3"), (FieldSpec(3, 5), "[01,2]*x^-3"),
    (FieldSpec(5, 2), "[10,4]*x^-3"), (F_2_16, f"[{CHUNK},01]*x^-3"),
    (FieldSpec(5, 2), "[1,,4]*x^-3"), (FieldSpec(5, 2), "[4,]*x^-3"),
    (F_2_16, f"[{CHUNK},]*x^-3"), (F_2_16, f"[{CHUNK},,1]*x^-3"),
    (FieldSpec(5, 2), "[1,0,1]*x^-3"), (FieldSpec(2, 8), f"[{CHUNK},1]*x^-3"),
    (F_2_16, f"[{CHUNK},{CHUNK},1]*x^-3"), (F_2_16, f"[{CHUNK},{CHUNK},1,]*x^-3"),
    (F_2_16, f"[{CHUNK},1,2,0]*x^-3"), (F_2_16, f"[{CHUNK},1,-,0]*x^-3"),
    (F_2_16, f"[{CHUNK},1,_,0]*x^-3"), (F_2_16, f"[{CHUNK}1,1]*x^-3"),
    (F_2_16, f"[{CHUNK}-1,1]*x^-3"),
]


@pytest.mark.parametrize("spec,text", ERROR_ORDER, ids=[
    text if spec == FIELDS[2] else f"{spec} {text}" for spec, text in ERROR_ORDER])
def test_error_order_across_and_within_terms(spec, text):
    assert full_outcome(parse_laurent, spec, text) == full_outcome(scan_parse_laurent, spec, text)


@pytest.mark.parametrize("text,message", [
    ("x^-" + str(2**64 + 1), "term 1: exponent outside the bound |e| <= 2^64"),
    ("x + 2*x^" + str(2**14270), "term 2: exponent outside the bound |e| <= 2^64"),
    ("x + " + "1" * 4301 + "*x", "term 2: a numeral has more than 4300 digits"),
    ("x^-" + "1" * 4301, "term 1: a numeral has more than 4300 digits"),
    ("x + x + [1," + "1" * 5000 + "]", "term 3: a numeral has more than 4300 digits"),
    ("[1,1,1," + "1" * 5000 + "]", "term 1: a numeral has more than 4300 digits"),
    ("[1," + "1" * 4301 + "]", "term 1: a numeral has more than 4300 digits"),
])
def test_exponents_and_numerals_are_bounded(text, message):
    with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
        parse_laurent(FIELDS[2], text)


def test_exponents_at_the_bound_parse():
    spec = FIELDS[2]
    f = parse_laurent(spec, f"x^-{2**64} + x^{2**64}")
    assert f == LaurentPoly(spec, {-2**64: 1, 2**64: 1})


@pytest.mark.parametrize("text", [
    "1" * 131072,
    "+x" * 60000 + "^",
    "[" + "1," * 60000,
], ids=["digit-run", "dangling-caret", "open-vector"])
def test_adversarial_inputs_fail_fast(text):
    # the one scan must not backtrack into earlier terms, nor the error path
    # rescan them more than once
    start = time.perf_counter()
    with pytest.raises(ParseError):
        parse_laurent(FIELDS[2], text)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("text,rest", [
    ("[1,0", "[1,0"),
    ("x+[1]]", "]"),
    ("]x", "]x"),
    ("+", "+"),
    ("x^-3 +", "+"),
    ("x2", "2"),
    ("[1,,1]*x^-3", "[1,,1]*x^-3"),
    ("x^-3 ++ x", "++x"),
    ("x^-3 + - x", "+-x"),
    ("[1_1,0]*x^-3", "[1_1,0]*x^-3"),
    ("[--1]*x", "[--1]*x"),
    ("x + [1,,1]*x", "+[1,,1]*x"),
    ("[1,," + "1" * 4301 + "]", "[1,," + "1" * 4301 + "]"),
])
def test_former_bracket_and_empty_term_errors_are_bad_terms(text, rest):
    # the chunking parser said "unbalanced '['", "unbalanced ']'" or "empty
    # term", or quoted the whole chunk; the scan said "empty component",
    # "bad coefficient vector" or "sign follows a sign" for the vectors and
    # signs.  Now each quotes the unparsed rest from the failing term on.
    with pytest.raises(ParseError, match="^" + re.escape(f"bad term {rest!r} in {text!r}") + "$"):
        parse_laurent(FIELDS[2], text)


# ------------------------------------------------------------ round trips

@st.composite
def laurents(draw, spec):
    terms = draw(st.dictionaries(
        st.integers(-60, 60),
        st.lists(st.integers(0, spec.p - 1), min_size=spec.n, max_size=spec.n),
        max_size=6,
    ))
    return LaurentPoly(spec, {e: spec.element(c) for e, c in terms.items()})


@st.composite
def ext_elements(draw):
    spec = draw(st.sampled_from(FIELDS))
    j = draw(st.integers(1, 30).filter(lambda j: j % spec.p))
    ext = ExtFieldSpec(spec, j)
    return ExtElement(ext, [draw(laurents(spec)) for _ in range(spec.p)])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(laurents))
def test_parse_laurent_inverts_format_laurent(f):
    assert parse_laurent(f.spec, format_laurent(f)) == f


@settings(max_examples=200, deadline=None)
@given(ext_elements())
def test_parse_ext_inverts_format_ext(F):
    assert parse_ext(F.ext, format_ext(F)) == F


@st.composite
def tower_rows(draw):
    """Tower elements over the test fields and F_2^8 whose rows are often
    empty, with exponents 0 and 1 and the coefficient 1 drawn often."""
    spec = draw(st.sampled_from(FIELDS + [FieldSpec(2, 8)]))
    ext = ExtFieldSpec(spec, draw(st.integers(1, 12).filter(lambda j: j % spec.p)))
    exps = st.sampled_from([0, 1, -1]) | st.integers(-40, 40)
    forms = st.just(1) | st.integers(1, spec.q - 1)
    return ExtElement(ext, [
        LaurentPoly(spec, {e: FieldElement(spec, draw(forms))
                           for e in draw(st.lists(exps, max_size=4, unique=True))})
        for _ in range(spec.p)])


@settings(max_examples=300, deadline=None)
@given(tower_rows())
@example(ExtElement.zero(ExtFieldSpec(FieldSpec(2, 8), 1)))
@example(ExtElement.zero(ExtFieldSpec(FieldSpec(5, 2), 3)))
@example(parse_ext(ExtFieldSpec(FieldSpec(5, 2), 2), "[1,2]*x^-3 + [1] + x ; 0 ; 0 ; x^0 ; [0,4]"))
@example(parse_ext(ExtFieldSpec(FieldSpec(2, 8), 3), "[0,1]*x ; [1,1]*x^-2"))
def test_format_ext_writes_each_coefficient_as_format_laurent_does(F):
    # format_ext splits the sorted weights itself; the rows of `coeffs` are the reference
    text = format_ext(F)
    assert text == " ; ".join(format_laurent(a) for a in F.coeffs)
    assert parse_ext(F.ext, text) == F


def test_the_two_formats_refuse_each_others_elements():
    spec = FieldSpec(5, 2)
    f, F = LaurentPoly.x_pow(spec, -1), ExtElement.x_pow(ExtFieldSpec(spec, 2), -1)
    with pytest.raises(TypeError, match="^F must be an ExtElement, got LaurentPoly$"):
        format_ext(f)
    with pytest.raises(TypeError, match="^f must be a LaurentPoly, got ExtElement$"):
        format_laurent(F)


# terms whose exponents repeat within a segment, so that sums cancel and reappear
segment_terms = st.tuples(st.sampled_from(["", "-", "2*", "-[1]*"]),
                          st.sampled_from(["x^-3", "x", "x^0", "x^-1"]))


@st.composite
def repeated_segments(draw):
    """(ext, segments, i): 1..p segment texts over a test field, j prime to
    p, and the y-degree i of one of them."""
    spec = draw(st.sampled_from(FIELDS))
    j = draw(st.integers(1, 12).filter(lambda j: j % spec.p))
    segs = []
    for _ in range(draw(st.integers(1, spec.p))):
        terms = draw(st.lists(segment_terms, min_size=1, max_size=6))
        segs.append(" + ".join(c + x for c, x in terms).replace("+ -", "- "))
    return ExtFieldSpec(spec, j), segs, draw(st.integers(0, len(segs) - 1))


@settings(max_examples=300, deadline=None)
@given(repeated_segments())
def test_parse_ext_shares_one_map_like_the_constructor(case):
    # the constructor maps each parsed coefficient's exponents to p*e - j*i itself
    ext, segs, i = case
    text = " ; ".join(segs)
    assert parse_ext(ext, text) == ExtElement(ext, [parse_laurent(ext.field, s) for s in segs])
    # an error in segment i still names its y-degree
    bad = segs[:i] + [segs[i] + " ++ x"] + segs[i + 1:]
    with pytest.raises(ParseError) as info:
        parse_ext(ext, " ; ".join(bad))
    with pytest.raises(ParseError) as want:
        parse_laurent(ext.field, bad[i])
    assert str(info.value) == f"coefficient of y^{i}: {want.value}"


# --------------------------------------------- table vector read, text forms

VECTOR_FIELDS = [FieldSpec(2), FieldSpec(2, 3), FieldSpec(2, 8), FieldSpec(3), FieldSpec(3, 2),
                 FieldSpec(3, 5), FieldSpec(5, 2), FieldSpec(7, 3), FieldSpec(11),
                 FieldSpec(11, 2), FieldSpec(37), FieldSpec(37, 2)]


def horner_read(spec, text):
    """The rule the table read must match, for a text `[BODY]` or
    `[BODY]*x^-3` whose BODY is drawn from [0-9,-]: split at the commas,
    read every component by int(), then the length, then Horner mod p."""
    body, _, suffix = text[1:].partition("]")
    try:
        comps = [int(d) for d in body.split(",")]
    except ValueError:
        raise ParseError(f"bad term {text!r} in {text!r}") from None
    if len(comps) > spec.n:
        raise ParseError(f"coefficient vector of length {len(comps)} "
                         f"in a degree-{spec.n} field")
    c = 0
    for d in reversed(comps):
        c = c * spec.p + d % spec.p
    return LaurentPoly(spec, {-3 if suffix else 0: FieldElement(spec, c)})


@settings(max_examples=1500, deadline=None)
@given(st.sampled_from(VECTOR_FIELDS), st.text("0123456789,-", max_size=14),
       st.sampled_from(["", "*x^-3"]))
def test_vector_read_matches_split_and_horner(spec, body, suffix):
    text = f"[{body}]{suffix}"
    want = full_outcome(horner_read, spec, text)
    assert full_outcome(parse_laurent, spec, text) == want, (spec, text)


@pytest.mark.parametrize("spec,text,value", [
    (FieldSpec(5, 2), "[9,9]", 4 + 4 * 5),              # digits >= p are taken mod p
    (FieldSpec(2, 3), "[1,2]", 1),
    (FieldSpec(3, 2), "[01]", 1),                      # a multi-digit component
    (FieldSpec(3, 2), "[-1,2]", 2 + 2 * 3),
    (FieldSpec(3, 2), "[1,]", None),
    (FieldSpec(3, 2), "[1,-]", None),
    (FieldSpec(3, 2), "[1,0,1]", None),                # too long
    (FieldSpec(5, 2), "[12,3]", 2 + 3 * 5),
    (FieldSpec(61, 2), "[60,3]", 60 + 3 * 61),
    (FieldSpec(37, 2), "[9,9]", 9 + 9 * 37),           # p >= 11: no text table
    (FieldSpec(11, 2), "[9,1]", 9 + 11),
])
def test_vector_read_edge_cases(spec, text, value):
    want = full_outcome(horner_read, spec, text)
    assert full_outcome(parse_laurent, spec, text) == want
    if value is not None:
        assert parse_laurent(spec, text)[0].v == value


TABLED = [(p, n) for p in range(3, 64, 2) if _is_prime(p)
          for n in range(2, 8) if p**n <= ZECH_MAX_Q]


@pytest.mark.parametrize("p,n", TABLED, ids=[f"F_{p}^{n}" for p, n in TABLED])
def test_table_format_is_the_digit_formula_and_parses_back(p, n):
    spec = FieldSpec(p, n)
    for v in range(spec.q):
        coords, r = [], v
        for _ in range(n):
            r, c = divmod(r, p)
            coords.append(c)
        text = "[" + ",".join(map(str, coords)) + "]"
        assert spec.fmt(v) == text
        assert parse_laurent(spec, text)[0].v == v


# one field per chunk layout of each characteristic's text table: one full
# chunk, a full chunk and one more component, two full chunks, and so on
CHUNKED = [FieldSpec(2, 8), FieldSpec(2, 9), F_2_16, FieldSpec(3, 5), FieldSpec(3, 6),
           FieldSpec(5, 2), FieldSpec(5, 4), FieldSpec(7, 3)]


def digit_text(spec, v):
    """The reference text of the int form v: its n base-p digits, lowest first."""
    coords = []
    for _ in range(spec.n):
        v, c = divmod(v, spec.p)
        coords.append(str(c))
    return "[" + ",".join(coords) + "]"


def horner_fold(spec, comps):
    c = 0
    for d in reversed(comps):
        c = c * spec.p + d % spec.p
    return c


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(CHUNKED).flatmap(
    lambda spec: st.tuples(st.just(spec), st.integers(0, spec.q - 1) | st.sampled_from(
        [0, 1, spec.p**min(spec.n, 8) - 1, spec.q - 1]))))
def test_chunk_table_format_is_the_digit_formula_and_parses_back(case):
    spec, v = case
    assert spec.fmt(v) == digit_text(spec, v)
    assert parse_laurent(spec, spec.fmt(v) + "*x^-3")[-3].v == v


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(CHUNKED).flatmap(lambda spec: st.tuples(
    st.just(spec), st.lists(st.integers(0, spec.p - 1), min_size=1, max_size=spec.n))))
def test_every_one_digit_vector_is_held_and_reads_as_the_horner_fold(case):
    spec, comps = case
    text = "[" + ",".join(map(str, comps)) + "]"
    want = horner_fold(spec, comps)
    assert spec.read(text) == want  # the table holds it
    assert parse_laurent(spec, text + "*x^-3")[-3].v == want


@settings(max_examples=1500, deadline=None)
@given(st.sampled_from(CHUNKED), st.data())
def test_edited_chunk_vectors_read_as_split_and_horner(spec, data):
    # up to three single-character edits of a full or short vector, so that
    # commas between chunks go missing, double up or turn into digits
    comps = data.draw(st.lists(st.integers(0, spec.p - 1), min_size=1, max_size=spec.n + 1))
    body = ",".join(map(str, comps))
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(body)))
        ch = data.draw(st.sampled_from("0123456789,-"))
        body = data.draw(st.sampled_from([body[:i] + ch + body[i:], body[:i] + body[i + 1:],
                                          body[:i] + ch + body[i + 1:]]))
    text = f"[{body}]*x^-3"
    assert full_outcome(parse_laurent, spec, text) == full_outcome(horner_read, spec, text)


@pytest.mark.parametrize("p,c", [(2, 8), (3, 5), (5, 3), (7, 2)])
def test_chunk_table_of_each_characteristic(p, c):
    width, texts, values = _chunk_table(p)
    assert width == c and p**c <= 256 < p ** (c + 1)
    assert len(values) <= sum(p**w for w in range(1, c + 1))
    for w in range(1, c + 1):  # two-way: each text of each width maps back to its value
        assert [values[t] for t in texts[w]] == list(range(p**w))
        assert all(t == digit_text(FieldSpec(p, w), v)[1:-1] for v, t in enumerate(texts[w]))


@pytest.mark.parametrize("spec", [FieldSpec(2), FieldSpec(7), FieldSpec(11, 2), FieldSpec(67, 2)],
                         ids=str)
def test_fields_without_a_text_table_read_every_vector_by_horner(spec):
    # F_p, and p >= 11, whose components may have two digits
    text = "[" + ",".join(["1"] * spec.n) + "]"
    assert spec.read(text) is None
    assert parse_laurent(spec, text)[0].v == horner_fold(spec, [1] * spec.n)
    want = digit_text(spec, spec.q - 1) if spec.n > 1 else str(spec.q - 1)
    assert spec.fmt(spec.q - 1) == want
