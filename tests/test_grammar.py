"""The one-scan Laurent parser against the chunking parser it replaced.

The reference oracle below is the earlier parser: a per-character state
machine splits the text into signed chunks at the signs outside brackets,
each chunk must fully match an anchored term regex, and a helper decodes
the coefficient.  The library scans the text once with a single term
regex; it must accept exactly the same strings and return the same
polynomials in every field.  Also here: the round-trip fuzz targets,
parsing the canonical text form is the identity for Laurent polynomials
and for tower extension elements.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from ramforge.algebra import FieldSpec, LaurentPoly, format_laurent, parse_laurent
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


@pytest.mark.parametrize("text,rest", [
    ("[1,0", "[1,0"),
    ("x+[1]]", "]"),
    ("]x", "]x"),
    ("+", "+"),
    ("x^-3 +", "+"),
    ("x2", "2"),
])
def test_former_bracket_and_empty_term_errors_are_bad_terms(text, rest):
    # the chunking parser said "unbalanced '['", "unbalanced ']'" or "empty
    # term", or quoted the whole chunk; the scan quotes the unparsed rest
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
