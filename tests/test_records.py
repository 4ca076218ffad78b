"""The immutable records, each built on `algebra._Record`: the nine below,
then `FieldSpec`, `FieldElement` and `Filtration`, whose repr is their own."""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from ramforge import (
    INFINITY,
    UNRAMIFIED,
    ASReduced,
    BranchPoint,
    CoverData,
    ExtElement,
    ExtFieldSpec,
    ExtReduced,
    FieldElement,
    FieldSpec,
    Filtration,
    InertiaShape,
    KatoInput,
    LevelStep,
    SpectrumResult,
    as_reduce,
    parse_ext,
    parse_laurent,
    psi,
)
from ramforge.grids import GridResult

F3 = FieldSpec(3)
E32 = ExtFieldSpec(F3, 2)
BP = BranchPoint(InertiaShape(3, 1), ["2"])

# each record with keyword arguments in field order
RECORDS = [
    (ASReduced, dict(f_reduced=parse_laurent(F3, "x^-1"), conductor=1,
                     substitution=parse_laurent(F3, "x^-2"))),
    (ExtFieldSpec, dict(field=F3, j=2)),
    (ExtReduced, dict(reduced=ExtElement.y(E32), jump=2, substitution=ExtElement.y(E32))),
    (InertiaShape, dict(p=3, e=2, m=2)),
    (LevelStep, dict(level=1, start=2, target=3)),
    (CoverData, dict(group_order=3, g_X=0, branch=(BP,))),
    (KatoInput, dict(n=4, d_K=10, d_k=8, m_w=1)),
    (SpectrumResult, dict(genera=(1, 2), deformed=(2,), increment=3, residues=(1,))),
    (GridResult, dict(name="g", columns=["a"], rows=[{"a": 1}], passed=True,
                      summary="PASS 1/1")),
]


@pytest.mark.parametrize("cls, kwargs", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_compare_print_and_refuse_assignment_by_their_fields(cls, kwargs):
    record = cls(**kwargs)
    values = tuple(kwargs.values())
    assert cls._fields == tuple(kwargs) == tuple(inspect.signature(cls).parameters)
    assert record._values == values
    assert tuple(getattr(record, name) for name in cls._fields) == values
    assert not hasattr(record, "__dict__")
    assert repr(record) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in kwargs.items())})"
    assert record == cls(**kwargs) and record != values
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    # a record that holds a FieldSpec pickles too: the field is rebuilt from (p, n)
    assert pickle.loads(pickle.dumps(record)) == record
    try:
        expected = hash(values)
    except TypeError:  # a field is unhashable: a LaurentPoly, an ExtElement or a list
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    for name in (*cls._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record._values == values


# one field per kernel: mod p, XOR over F_2, Zech tables (q <= 4096), digits
FIELDS = [FieldSpec(7), FieldSpec(2, 8), FieldSpec(5, 2), FieldSpec(67, 2)]


@pytest.mark.parametrize("spec", FIELDS, ids=repr)
def test_fields_and_elements_survive_copy_and_pickle(spec):
    element = FieldElement(spec, spec.q - 2)
    for value in (spec, element):
        assert value._values == tuple(getattr(value, name) for name in value._fields)
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
    twin = pickle.loads(pickle.dumps(element))
    assert twin.spec is not spec  # rebuilt by the constructor, with its own kernels
    assert twin * twin - twin == element * element - element
    assert twin.inverse().pth_root() == element.inverse().pth_root()


def test_fields_and_elements_refuse_assignment_and_keep_eq_hash_and_text():
    F3, F9 = FieldSpec(3), FieldSpec(3, 2)
    e, x = F3.element([2]), F9.element([1, 2])
    for probe in (lambda: setattr(F3, "p", 5), lambda: delattr(F3, "n"),
                  lambda: setattr(F3, "mul", None), lambda: setattr(e, "v", 7),
                  lambda: delattr(e, "spec")):
        with pytest.raises(AttributeError):
            probe()
    assert (repr(F3), F3.q, F3.mul(2, 2), str(e)) == ("F_3", 3, 1, "2")
    assert hash(F9) == hash((3, 2)) and repr(F9) == str(F9) == "F_3^2"
    assert F9 == FieldSpec(3, 2) and F9 != F3 and F9 != (3, 2)
    assert repr(x) == "[1,2] in F_3^2" and str(x) == "[1,2]"
    assert hash(x) == hash((F9, x.v)) and x == FieldElement(FieldSpec(3, 2), x.v)
    assert x != F9.element([1]) and x != x.v and F3.one != FieldSpec(5).one


def test_filtrations_refuse_assignment_and_survive_copy_and_pickle():
    f = Filtration(InertiaShape(2, 1, 1), [(1, 1)])
    assert psi(f, 3) == 5
    for probe in (lambda: setattr(f, "breaks", ()), lambda: delattr(f, "shape"),
                  lambda: setattr(f, "_knots", None)):
        with pytest.raises(AttributeError):
            probe()
    assert f.breaks == ((1, 1),) and psi(f, 3) == 5
    assert repr(f) == "Filtration(p=2, e=1, m=1, breaks=[(1, 1)])"
    # an invalid filtration keeps its findings through the rebuild
    invalid = Filtration(InertiaShape(3, 2, 2), [(Fraction(1, 5), 1)])
    for value in (f, invalid, BP):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
            assert (twin._knots, twin._problems) == (value._knots, value._problems)
    assert len(invalid._problems) == 3
    assert type(BP) is Filtration and BP == Filtration(InertiaShape(3, 1), [(2, 1)])
    assert hash(f) == hash((f.shape, f.breaks)) and f != (f.shape, f.breaks)


def test_records_differ_across_classes_with_equal_values():
    f = parse_laurent(F3, "x^-1")
    assert ASReduced(f, 1, f)._values == ExtReduced(f, 1, f)._values
    assert ASReduced(f, 1, f) != ExtReduced(f, 1, f)


@pytest.mark.parametrize("probe, message", [
    (lambda: ExtFieldSpec(3, 1), "field must be a FieldSpec, got int"),
    (lambda: CoverData(4, 0, [1]), "branch point 1 must be a Filtration, got int"),
    (lambda: CoverData(3, 0, [BP, "2"]), "branch point 2 must be a Filtration, got str"),
], ids=["ext-field-int", "cover-branch-int", "cover-branch-str"])
def test_record_constructors_name_a_parameter_of_the_wrong_type(probe, message):
    with pytest.raises(TypeError) as info:
        probe()
    assert str(info.value) == message


@pytest.mark.parametrize("probe, message", [
    (lambda: FieldElement(3, 1), "spec must be a FieldSpec, got int"),
    (lambda: Filtration(3, []), "shape must be an InertiaShape, got int"),
    (lambda: BranchPoint(3), "shape must be an InertiaShape, got int"),
    (lambda: ExtElement(3, []), "ext must be an ExtFieldSpec, got int"),
    (lambda: parse_laurent(3, "x"), "spec must be a FieldSpec, got int"),
    (lambda: parse_ext(3, "x"), "ext must be an ExtFieldSpec, got int"),
], ids=["field-element", "filtration", "branch-point", "ext-element", "parse-laurent",
        "parse-ext"])
def test_values_and_parsers_name_a_first_argument_of_the_wrong_type(probe, message):
    # each used to end in AttributeError: 'int' object has no attribute 'p' (or 'q')
    with pytest.raises(TypeError) as info:
        probe()
    assert str(info.value) == message


@pytest.mark.parametrize("marker", [INFINITY, UNRAMIFIED], ids=repr)
def test_markers_are_single_instances_through_copy_and_pickle(marker):
    assert copy.copy(marker) is marker
    assert copy.deepcopy(marker) is marker
    assert pickle.loads(pickle.dumps(marker)) is marker
    assert marker == marker and marker != 0 and marker != repr(marker)


def test_a_reduction_to_unramified_equals_its_deep_copy():
    reduced = as_reduce(parse_laurent(F3, "x^-3 + 2*x^-1"))  # h^3 - h for h = x^-1
    assert reduced.conductor is UNRAMIFIED
    assert copy.deepcopy(reduced) == reduced
