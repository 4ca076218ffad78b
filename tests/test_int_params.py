"""Every int parameter of every public callable is read by one reader,
`algebra.require_int`: a float, a bool, a half-integer, a value past
str()'s digit limit or a 5,001-digit power of ten raises TypeError or a
RamforgeError, never a plain ValueError, and never returns."""

import inspect
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import ramforge
from ramforge import (
    CoverData,
    ExtFieldSpec,
    FieldElement,
    FieldSpec,
    Filtration,
    InertiaShape,
    KatoInput,
    action_transform,
    admissible_check,
    admissible_enumerate,
    as_deform,
    as_reduce,
    artin_schreier,
    canonical_modulus,
    contains_progressions,
    ext_as_reduce,
    filtration_to_dict,
    format_ext,
    genus_increment,
    genus_spectrum,
    kato_mu,
    last_lower_jump_increment,
    lower_to_upper,
    minimal_tower_element,
    parse_ext,
    parse_laurent,
    phi,
    psi,
    ram_divisor_degree,
    random_filtration,
    rh_genus,
    spectrum_density,
    tower_jumps,
    tower_plan,
    upper_jumps,
    upper_to_lower,
    validate,
)
from ramforge import grids
from ramforge.algebra import LaurentPoly, format_laurent, require_int, require_prime
from ramforge.errors import (
    CongruenceViolation,
    InconsistentInput,
    InputError,
    InvalidJump,
    InvalidSubgroup,
    NotATower,
    RamforgeError,
)

# the longest numeral int() reads: 2*N has 4,301 digits, past str()'s limit
N = int("9" * 4299 + "7")

# m = 3, one break at 1/3: acting with a = 1 at s = 7 (s = 1 mod 3, s_iota 1) is valid
ACTED = lower_to_upper(InertiaShape(2, 1, 3), [(1, 1)])


def _like(obj, *names):
    """A look-alike of obj: a SimpleNamespace carrying only the attributes named."""
    return SimpleNamespace(**{name: getattr(obj, name) for name in names})


# each public callable with an int parameter: a valid call, as keyword arguments
CALLS = {
    "FieldSpec": (FieldSpec, dict(p=3, n=2)),
    "canonical_modulus": (canonical_modulus, dict(p=3, n=2)),
    "FieldElement": (FieldElement, dict(spec=FieldSpec(3), v=2)),
    "as_deform": (as_deform, dict(f=parse_laurent(FieldSpec(3), "x^-1"), s=5, t0=1)),
    "ExtFieldSpec": (ExtFieldSpec, dict(field=FieldSpec(3), j=2)),
    "InertiaShape": (InertiaShape, dict(p=3, e=2, m=2)),
    "CoverData": (CoverData, dict(group_order=4, g_X=0, branch=())),
    "KatoInput": (KatoInput, dict(n=4, d_K=10, d_k=8, m_w=1)),
    "genus_increment": (genus_increment, dict(group_order=8, p=2, a=1, m=1, sigma=1, s=5)),
    "last_lower_jump_increment": (
        last_lower_jump_increment, dict(p=2, j_e=3, e=2, a=1, m=1, sigma=2, s=5)),
    "genus_spectrum": (genus_spectrum, dict(group_order=4, p=2, a=1, m=1, sigma0=2, g0=1,
                                            s_iota=1, limit=12)),
    "spectrum_density": (spectrum_density, dict(group_order=4, p=2, a=2)),
    "contains_progressions": (contains_progressions,
                              dict(result=genus_spectrum(3, 3, 1, 1, 1, 0, 1, 20), p=3)),
    "action_transform": (action_transform, dict(filt=ACTED, a=1, s=7)),
    "admissible_check": (admissible_check, dict(seq=(1, 2), p=2)),
    "admissible_enumerate": (admissible_enumerate, dict(p=2, e=2, bound=5)),
    "tower_plan": (tower_plan, dict(start_seq=(1,), target_seq=(3,), p=2)),
    "random_filtration": (random_filtration,
                          dict(rng=random.Random(5), p=3, e_max=4, m_max=6)),
}

# result records: the library builds them, a caller only reads them
RESULT_RECORDS = {"ASReduced", "ExtReduced", "LevelStep", "SpectrumResult"}


def _int_params(obj):
    """The parameters of obj annotated int, alone or in a union."""
    params = inspect.signature(obj).parameters.values()
    return [q.name for q in params
            if "int" in str(q.annotation).replace(" ", "").split("|")]


def _exports():
    for name in sorted(vars(ramforge)):
        obj = getattr(ramforge, name)
        if not name.startswith("_") and callable(obj) and not inspect.ismodule(obj):
            yield name, obj


def _hostile(x):
    return {"float": float(x), "bool": True, "half": x + 0.5, "2N": 2 * N, "-2N": -2 * N,
            "10^5000": 10**5000}


PROBES = [(name, param, kind, value)
          for name, (fn, kwargs) in CALLS.items()
          for param in _int_params(fn)
          for kind, value in _hostile(kwargs[param]).items()]


@pytest.mark.parametrize("name", CALLS)
def test_the_valid_call_of_each_table_row_returns(name):
    fn, kwargs = CALLS[name]
    fn(**kwargs)


@pytest.mark.parametrize("name, param, kind, value", PROBES,
                         ids=[f"{n}-{q}-{k}" for n, q, k, _ in PROBES])
def test_every_int_parameter_refuses_hostile_values(name, param, kind, value):
    # a value of the wrong type is a TypeError, an int out of range a RamforgeError
    fn, kwargs = CALLS[name]
    with pytest.raises(TypeError if kind in ("float", "bool", "half") else RamforgeError):
        fn(**{**kwargs, param: value})


@pytest.mark.parametrize("probe, error, message", [
    # composite characteristics used to be read as primes
    (lambda: genus_increment(16, 4, 1, 1, 1, 3), InputError,
     "characteristic must be prime, got 4"),
    (lambda: last_lower_jump_increment(4, 3, 1, 1, 1, 1, 3), InputError,
     "characteristic must be prime, got 4"),
    # a tame order that is not prime to p
    (lambda: genus_increment(8, 2, 1, 2, 1, 3), InputError,
     "tame order 2 must be positive and prime to 2"),
    # the one template, with the bounds each site owns
    (lambda: require_prime(2 * N), InputError, "characteristic p must lie in 0..2^64 - 1"),
    (lambda: InertiaShape(2, -2 * N), InputError, "wild exponent e must lie in 0..2^64"),
    (lambda: InertiaShape(2, 1, 0), InputError, "tame order m must lie in 1..2^64, got 0"),
    (lambda: FieldSpec(2, 0), InputError, "extension degree n must lie in 1..2^64, got 0"),
    (lambda: FieldElement(FieldSpec(2, 64), -2 * N), InputError,
     "int form of an element of F_2^64 must lie in 0..2^64 - 1"),
    (lambda: ExtFieldSpec(FieldSpec(2), 0), InputError,
     "first jump j must lie in 1..2^64, got 0"),
    (lambda: KatoInput(1, 4, 5, 1), InconsistentInput,
     "special degree d_k must lie in 0..4, got 5"),
    (lambda: KatoInput(1, 4, 1, -2 * N), InconsistentInput, "point count m_w must lie in 1..2^64"),
    (lambda: admissible_enumerate(2, 2, -2 * N), InputError, "bound must lie in 1..2^64"),
    (lambda: admissible_enumerate(2, 66, 5), InputError, "length e must lie in 1..65, got 66"),
    (lambda: genus_spectrum(4, 2, 1, 1, 2, 1, 2, 12), InputError, "s_iota must lie in 1..1, got 2"),
    (lambda: spectrum_density(-2 * N, 2, 1), InputError, "group order |G| must lie in 1..2^64"),
    (lambda: action_transform(ACTED, 2, 7), InvalidSubgroup,
     "subgroup exponent a must lie in 1..1, got 2"),
    (lambda: action_transform(ACTED, 1, (3 << 64) + 1), InvalidJump,
     "conductor candidate s must lie in 1..55340232221128654848"),
    (lambda: action_transform(ACTED, 1, 5), CongruenceViolation,
     "conductor 5 is not congruent to 1 mod 3"),
    (lambda: as_deform(parse_laurent(FieldSpec(3), "x^-1"), -2 * N, 1), InvalidJump,
     "target conductor s must lie in 1..2^64"),
    (lambda: random_filtration(random.Random(1), m_max=2**16 + 1), InputError,
     "m_max must lie in 1..65536, got 65537"),
    # the break multiplicity, which no signature names
    (lambda: Filtration(InertiaShape(2, 1), [(Fraction(1), -2 * N)]), InputError,
     "break 1: multiplicity must lie in 1..2^64"),
    (lambda: Filtration(InertiaShape(2, 1), [(Fraction(1), 0)]), InputError,
     "break 1: multiplicity must lie in 1..2^64, got 0"),
    (lambda: Filtration(InertiaShape(2, 1), [(Fraction(1), True)]), TypeError,
     "break 1: multiplicity must be an int, got bool"),
    # the density oracle reads p and its limit before it enumerates
    (lambda: grids.predicted_line_genera(1, 10), InputError,
     "characteristic must be prime, got 1"),
    (lambda: grids.predicted_line_genera(0, 10), InputError,
     "characteristic must be prime, got 0"),
    (lambda: grids.predicted_line_genera(-3, 10), InputError,
     "characteristic p must lie in 0..2^64 - 1, got -3"),
    (lambda: grids.predicted_line_genera(4, 10), InputError,
     "characteristic must be prime, got 4"),
    (lambda: grids.predicted_line_genera(True, 10), TypeError,
     "characteristic p must be an int, got bool"),
    (lambda: grids.predicted_line_genera(3, grids.MAX_DENSITY_GMAX + 1), InputError,
     "limit must lie in 0..100000, got 100001"),
    (lambda: grids.predicted_line_genera(3, 10**12), InputError,
     "limit must lie in 0..100000, got 1000000000000"),
], ids=["genus-increment-p-4", "last-lower-jump-p-4",
        "genus-increment-m-2-at-p-2", "prime-2N", "shape-e-minus-2N",
        "shape-m-0", "field-n-0", "element-minus-2N", "ext-j-0", "kato-d_k-above-d_K",
        "kato-m_w-minus-2N", "admissible-bound-minus-2N",
        "admissible-e-66", "spectrum-s_iota-above-m", "density-G-minus-2N",
        "act-a-above-top", "act-s-above-m-2^64", "act-off-congruence",
        "deform-s-minus-2N", "random-m_max-above-2^16", "multiplicity-minus-2N",
        "multiplicity-0", "multiplicity-bool", "line-genera-p-1", "line-genera-p-0",
        "line-genera-p-minus-3", "line-genera-p-4", "line-genera-p-bool",
        "line-genera-limit-above-cap", "line-genera-limit-10^12"])
def test_int_probes_raise_the_reader_error(probe, error, message):
    with pytest.raises(error) as info:
        probe()
    assert (type(info.value), str(info.value)) == (error, message)


@pytest.mark.parametrize("probe, message", [
    (lambda: psi(3, 1), "filt must be a Filtration, got int"),
    (lambda: phi(3, 1), "filt must be a Filtration, got int"),
    (lambda: validate(3), "filt must be a Filtration, got int"),
    (lambda: upper_to_lower(3), "filt must be a Filtration, got int"),
    (lambda: action_transform(3, 1, 7), "filt must be a Filtration, got int"),
    (lambda: ram_divisor_degree(3), "filt must be a Filtration, got int"),
    (lambda: rh_genus(3), "cd must be a CoverData, got int"),
    (lambda: kato_mu(3), "k must be a KatoInput, got int"),
    (lambda: upper_jumps(3, 5), "ext must be an ExtFieldSpec, got int"),
    (lambda: as_reduce(3), "f must be a LaurentPoly, got int"),
    (lambda: ext_as_reduce(3), "F must be an ExtElement, got int"),
    (lambda: psi(None, 1), "filt must be a Filtration, got NoneType"),
    (lambda: rh_genus(True), "cd must be a CoverData, got bool"),
    (lambda: as_reduce(FieldSpec(3).one), "f must be a LaurentPoly, got FieldElement"),
    (lambda: lower_to_upper(3, []), "shape must be an InertiaShape, got int"),
    (lambda: tower_jumps(3), "F must be an ExtElement, got int"),
    (lambda: as_deform(3, 5, 1), "f must be a LaurentPoly, got int"),
    (lambda: format_laurent(3), "f must be a LaurentPoly, got int"),
    (lambda: format_ext(3), "F must be an ExtElement, got int"),
    (lambda: filtration_to_dict(3), "filt must be a Filtration, got int"),
    (lambda: minimal_tower_element(3), "ext must be an ExtFieldSpec, got int"),
    (lambda: contains_progressions(3, 2), "result must be a SpectrumResult, got int"),
    (lambda: artin_schreier(3), "h must be a LaurentPoly, got int"),
    # the other ring's element, or a field element, has the attribute read first
    (lambda: as_reduce(parse_ext(ExtFieldSpec(FieldSpec(3), 1), "x^-7")),
     "f must be a LaurentPoly, got ExtElement"),
    (lambda: ext_as_reduce(parse_laurent(FieldSpec(3), "x^-7")),
     "F must be an ExtElement, got LaurentPoly"),
    (lambda: artin_schreier(FieldSpec(3, 2).element([1, 2])),
     "h must be a LaurentPoly, got FieldElement"),
    (lambda: as_deform(FieldSpec(3).one, 3, 1), "f must be a LaurentPoly, got FieldElement"),
    (lambda: as_deform(FieldSpec(3).one, 5, 0), "f must be a LaurentPoly, got FieldElement"),
    # an argument that is no Random or dict
    (lambda: random_filtration(3), "rng must be a Random, got int"),
    (lambda: random_filtration(None), "rng must be a Random, got NoneType"),
    (lambda: LaurentPoly(FieldSpec(3), [(1, 1)]), "terms must be a dict, got list"),
    (lambda: LaurentPoly(FieldSpec(3), 3), "terms must be a dict, got int"),
    # a look-alike carrying exactly the attributes the function reads
    (lambda: psi(_like(ACTED, "_knots"), 1), "filt must be a Filtration, got SimpleNamespace"),
    (lambda: phi(_like(ACTED, "_knots"), 1), "filt must be a Filtration, got SimpleNamespace"),
    (lambda: validate(_like(ACTED, "_problems")),
     "filt must be a Filtration, got SimpleNamespace"),
    (lambda: upper_to_lower(_like(ACTED, "_knots", "_values")),
     "filt must be a Filtration, got SimpleNamespace"),
    (lambda: action_transform(_like(ACTED, "_knots", "_values"), 1, 7),
     "filt must be a Filtration, got SimpleNamespace"),
    (lambda: ram_divisor_degree(_like(ACTED, "_problems", "_knots", "_values")),
     "filt must be a Filtration, got SimpleNamespace"),
    (lambda: kato_mu(SimpleNamespace(m_w=1, d_K=3, d_k=1)),
     "k must be a KatoInput, got SimpleNamespace"),
    (lambda: contains_progressions(SimpleNamespace(residues=(1,), increment=2, deformed=(3, 5)), 2),
     "result must be a SpectrumResult, got SimpleNamespace"),
    (lambda: filtration_to_dict(_like(ACTED, "shape", "breaks")),
     "filt must be a Filtration, got SimpleNamespace"),
    (lambda: format_laurent(SimpleNamespace(_ints={-1: 1}, spec=FieldSpec(3))),
     "f must be a LaurentPoly, got SimpleNamespace"),
    (lambda: upper_jumps(SimpleNamespace(p=3, j=1), 7),
     "ext must be an ExtFieldSpec, got SimpleNamespace"),
    (lambda: minimal_tower_element(SimpleNamespace(p=3, j=1)),
     "ext must be an ExtFieldSpec, got SimpleNamespace"),
], ids=["psi", "phi", "validate", "upper_to_lower", "action_transform", "ram_divisor_degree",
        "rh_genus", "kato_mu", "upper_jumps", "as_reduce", "ext_as_reduce", "psi-None",
        "rh_genus-bool", "as_reduce-element", "lower_to_upper", "tower_jumps", "as_deform",
        "format_laurent", "format_ext", "filtration_to_dict", "minimal_tower_element",
        "contains_progressions", "artin_schreier", "as_reduce-ext", "ext_as_reduce-line",
        "artin_schreier-element", "as_deform-element-bad-s", "as_deform-element-zero-t0",
        "random_filtration-int", "random_filtration-None", "LaurentPoly-terms-list",
        "LaurentPoly-terms-int", "psi-look-alike", "phi-look-alike", "validate-look-alike",
        "upper_to_lower-look-alike", "action_transform-look-alike",
        "ram_divisor_degree-look-alike", "kato_mu-look-alike",
        "contains_progressions-look-alike", "filtration_to_dict-look-alike",
        "format_laurent-look-alike", "upper_jumps-look-alike",
        "minimal_tower_element-look-alike"])
def test_a_first_argument_of_another_type_is_a_type_error_naming_it(probe, message):
    # each used to end in AttributeError: 'int' object has no attribute ...,
    # for another library type in a result of the wrong ring or the wrong
    # error, and for a look-alike of the right attributes in a result
    with pytest.raises(TypeError) as info:
        probe()
    assert str(info.value) == message


@pytest.mark.parametrize("probe, message", [
    (lambda: parse_laurent(FieldSpec(3), 3), "text must be a str, got int"),
    (lambda: parse_laurent(FieldSpec(3), None), "text must be a str, got NoneType"),
    (lambda: parse_laurent(FieldSpec(3), b"x"), "text must be a str, got bytes"),
    (lambda: parse_ext(ExtFieldSpec(FieldSpec(3), 1), 3), "text must be a str, got int"),
    (lambda: parse_ext(ExtFieldSpec(FieldSpec(3), 1), b"x ; x"), "text must be a str, got bytes"),
    (lambda: parse_laurent(3, 3), "spec must be a FieldSpec, got int"),
    (lambda: parse_ext(3, None), "ext must be an ExtFieldSpec, got int"),
], ids=["laurent-int", "laurent-None", "laurent-bytes", "ext-int", "ext-bytes",
        "laurent-spec-first", "ext-ext-first"])
def test_a_text_of_another_type_is_a_type_error_naming_it(probe, message):
    # an int or None text used to end in AttributeError: ... no attribute 'split',
    # bytes in a TypeError from str.join; the field argument is checked first
    with pytest.raises(TypeError) as info:
        probe()
    assert str(info.value) == message


def test_an_instance_missing_its_attribute_keeps_the_attribute_error():
    # require_type passes an instance, so the read that follows it raises as before
    for probe in (lambda: psi(Filtration.__new__(Filtration), 1),
                  lambda: rh_genus(object.__new__(CoverData))):
        with pytest.raises(AttributeError):
            probe()


def test_require_int_prints_its_bounds_and_only_a_short_value():
    assert require_int(2**64, "x", 0) == 2**64
    for value, message in [(-1, "x must lie in 0..2^64, got -1"),
                           (-(2**64), "x must lie in 0..2^64, got -18446744073709551616"),
                           (-(2**64) - 1, "x must lie in 0..2^64"),
                           (2**64 + 1, "x must lie in 0..2^64"),
                           (10**5000, "x must lie in 0..2^64")]:
        with pytest.raises(InputError) as info:
            require_int(value, "x", 0)
        assert str(info.value) == message
    with pytest.raises(InvalidJump, match=r"^s must lie in 3\.\.2\^33 - 1, got 2$"):
        require_int(2, "s", 3, 2**33 - 1, InvalidJump)
    for value in (1.0, True, Fraction(1), "1"):
        with pytest.raises(TypeError, match=f"^x must be an int, got {type(value).__name__}$"):
            require_int(value, "x", 0)


def test_every_int_parameter_of_every_export_is_in_the_table():
    # a new export with an int parameter must join CALLS (or be a result record)
    missing = []
    for name, obj in _exports():
        params = _int_params(obj)
        if params and name not in RESULT_RECORDS:
            table = CALLS.get(name)
            if table is None or table[0] is not obj:
                missing.append(name)
            else:
                missing += [f"{name}.{q}" for q in params if q not in table[1]]
    assert missing == []
    assert set(CALLS) <= {name for name, _ in _exports()}
    assert RESULT_RECORDS <= {name for name, _ in _exports()}


def test_the_public_names_are_these():
    # a change to the exports is a visible edit of this tuple
    names = sorted(name for name, obj in vars(ramforge).items()
                   if not name.startswith("_") and not inspect.ismodule(obj))
    assert tuple(names) == (
        "ASReduced", "BranchPoint", "CoverData", "ExtElement", "ExtFieldSpec", "ExtReduced",
        "FieldElement", "FieldSpec", "Filtration", "INFINITY", "InertiaShape", "KatoInput",
        "LaurentPoly", "LevelStep", "SpectrumResult", "UNRAMIFIED", "action_transform",
        "admissible_check", "admissible_enumerate", "artin_schreier", "as_deform", "as_reduce",
        "canonical_modulus", "contains_progressions", "ext_as_reduce", "filtration_from_dict",
        "filtration_to_dict", "format_ext", "format_laurent", "genus_increment",
        "genus_spectrum", "kato_mu", "last_lower_jump_increment", "lower_to_upper",
        "minimal_tower_element", "parse_ext", "parse_laurent", "phi", "psi",
        "ram_divisor_degree", "random_filtration", "rh_genus", "spectrum_density",
        "tower_jumps", "tower_plan", "upper_jumps", "upper_to_lower", "validate")


@pytest.mark.parametrize("probe, error, message", [
    # the grids print their cap parameters only once require_int bounds them
    (lambda: grids.genus_grid(2, 2 * N), InputError, "jmax must lie in 0..10000"),
    (lambda: grids.genus_grid(2, 5.5), TypeError, "jmax must be an int, got float"),
    (lambda: grids.herbrand_roundtrip(2 * N), InputError, "count must lie in 0..2000"),
    (lambda: grids.density_check(2, 2 * N), InputError, "gmax must lie in 0..100000"),
    (lambda: grids.econd_grid(2, 2 * N, 3), InputError, "jmax must lie in -2^64..2^64"),
    (lambda: grids.econd_grid(2, 1, -2 * N), InputError, "smax must lie in -2^64..2^64"),
    (lambda: grids.admissible_count(2, 2 * N, 3), InputError, "e must lie in -2^64..2^64"),
    (lambda: grids.admissible_count(2, 2, 2 * N), InputError, "bound must lie in -2^64..2^64"),
    # Laurent exponents obey the grammar's bound |e| <= 2^64
    (lambda: LaurentPoly(FieldSpec(2), {-(2**70): 1}), InputError,
     "exponent must lie in -2^64..2^64"),
    (lambda: LaurentPoly(FieldSpec(2), {True: 1}), TypeError, "exponent must be an int, got bool"),
    (lambda: LaurentPoly.x_pow(FieldSpec(2), 1.0), TypeError, "exponent must be an int, got float"),
], ids=["genus-grid-jmax-2N", "genus-grid-jmax-float", "roundtrip-count-2N",
        "density-gmax-2N", "econd-jmax-2N", "econd-smax-minus-2N", "admissible-count-e-2N",
        "admissible-count-bound-2N", "exponent-minus-2^70", "exponent-bool", "exponent-float"])
def test_grid_and_exponent_probes_raise_the_reader_error(probe, error, message):
    with pytest.raises(error) as info:
        probe()
    assert (type(info.value), str(info.value)) == (error, message)


def test_exponents_at_the_bound_format_and_parse_back():
    F = FieldSpec(2)
    for e in (-(2**64), 2**64):
        f = LaurentPoly(F, {e: 1})
        assert parse_laurent(F, format_laurent(f)) == f


def test_a_negative_power_of_two_bound_prints_as_a_power():
    for lo, hi, value, message in [
            (-(2**64), 2**64, -(2**64) - 1, "x must lie in -2^64..2^64"),
            (-(2**40), -10, -5, "x must lie in -2^40..-10, got -5"),
            (1 - 2**64, 0, -(2**64), "x must lie in -18446744073709551615..0, got "
             "-18446744073709551616")]:
        with pytest.raises(InputError) as info:
            require_int(value, "x", lo, hi)
        assert str(info.value) == message


def test_a_bool_is_not_an_int_scalar_or_sequence_entry():
    f = parse_laurent(FieldSpec(3), "x^-1")
    assert f * 2 == 2 * f == parse_laurent(FieldSpec(3), "2*x^-1")
    with pytest.raises(TypeError):
        f * True
    with pytest.raises(TypeError):
        True * f
    assert admissible_check([1, 2], 2)
    assert not admissible_check([True, 2], 2)


def test_a_bool_is_not_a_coefficient():
    # an integer coefficient is read by type(c) is int, so a bool is refused everywhere
    F = FieldSpec(3)
    f = parse_laurent(F, "x^-1")
    probes = [lambda: as_deform(f, 5, True), lambda: LaurentPoly(F, {-1: True}),
              lambda: F.scalar(True), lambda: F.element([1, True]), lambda: f.scale(False)]
    for probe in probes:
        with pytest.raises(TypeError, match="^expected an int, got bool$"):
            probe()
    for probe in (lambda: F.one + True, lambda: True * F.one, lambda: F.one - False):
        with pytest.raises(TypeError, match="^unsupported operand type"):
            probe()
    assert as_deform(f, 5, 1) == parse_laurent(F, "x^-5 + x^-1")
    assert F.one + 1 == 1 + F.one == F.scalar(2) and F.one * -1 == F.scalar(2)


@pytest.mark.parametrize("J, error, message", [
    (3.0, TypeError, "second lower jump J must be an int, got float"),
    (True, TypeError, "second lower jump J must be an int, got bool"),
    (2**20000 + 1, NotATower, "second lower jump J must lie in -2^4096..2^4096"),
    (-(2**20000), NotATower, "second lower jump J must lie in -2^4096..2^4096"),
], ids=["float", "bool", "past-the-digit-limit", "far-below"])
def test_upper_jumps_reads_J_with_require_int(J, error, message):
    with pytest.raises(error) as info:
        upper_jumps(ExtFieldSpec(FieldSpec(2), 1), J)
    assert (type(info.value), str(info.value)) == (error, message)


def test_upper_jumps_keeps_its_messages_up_to_2_4096():
    ext = ExtFieldSpec(FieldSpec(2), 1)
    assert upper_jumps(ext, 3) == (1, 2)
    assert upper_jumps(ext, 2**4096 - 3) == (1, 2**4095 - 1)
    with pytest.raises(NotATower, match=f"^lower jump {2**4096} is not congruent to 1 mod 2$"):
        upper_jumps(ext, 2**4096)
    with pytest.raises(RamforgeError, match=f"^second lower jump {-(2**4096)} falls below"):
        upper_jumps(ext, -(2**4096))
