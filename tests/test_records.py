"""The record classes behave as frozen dataclasses with the same fields.

Each record is compared with a ``dataclasses`` twin that has its fields:
equality, inequality and hash must agree with the twin's on pairs of
equal and unequal records, and so must repr where the record has no
repr of its own.  Assigning or deleting an attribute must raise
``AttributeError``.  A record builds alike from its fields by position
and by keyword, and a missing, doubled, extra or unknown field raises
``TypeError`` naming the class.
"""

import dataclasses
from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from crosscap.cutting import ComplementReport, ComponentReport  # noqa: E402
from crosscap.homology import HomologyMatrix, Mod2Matrix  # noqa: E402
from crosscap.polygon import SIDE, Event  # noqa: E402
from crosscap.surface import (  # noqa: E402
    CheckResult,
    CurveRecord,
    RegistryReport,
    SurfaceSpec,
    standard_registry,
)
from crosscap.twists import (  # noqa: E402
    Automorphism,
    Certificate,
    CertificateReport,
    KeyConjugationReport,
    TwistGenerator,
    derive_generators,
)
from crosscap.words import CyclicWord, Word  # noqa: E402

texts = st.text(alphabet="abc _", max_size=3)
small_ints = st.integers(-2, 2)


def words(genus):
    letter = st.integers(1, genus).flatmap(lambda i: st.sampled_from((i, -i)))
    return st.lists(letter, max_size=4).map(lambda ls: Word(genus, tuple(ls)))


any_words = st.integers(1, 2).flatmap(words)
cyclic_words = any_words.map(CyclicWord.of)
events = st.builds(
    Event, st.integers(1, 2), st.booleans(), st.sampled_from((1, 2, SIDE - 1))
)
curve_records = st.builds(
    CurveRecord,
    st.sampled_from(("beta", "gamma")),
    any_words,
    st.lists(events, min_size=1, max_size=2).map(tuple),
    st.sampled_from((1, -1)),
)
check_results = st.builds(CheckResult, texts, texts, st.booleans(), texts)


def matrices(cls):
    def square(genus):
        row = st.lists(small_ints, min_size=genus, max_size=genus).map(tuple)
        rows = st.lists(row, min_size=genus, max_size=genus).map(tuple)
        return rows.map(lambda r: cls(genus, r))

    return st.integers(1, 2).flatmap(square)


def automorphisms(genus):
    # unsound images are fine here: only equality and hashing are compared
    images = st.lists(words(genus), min_size=genus, max_size=genus).map(tuple)
    return st.builds(Automorphism, st.just(genus), images)


@lru_cache(maxsize=None)
def genus_four_generators():
    return tuple(derive_generators(standard_registry(SurfaceSpec(4, 1))).values())


def twist_generators():
    pick = st.sampled_from(range(3)).map(lambda i: genus_four_generators()[i])
    return st.builds(
        TwistGenerator,
        st.sampled_from(("a1", "a2")),
        pick.map(lambda g: g.curve),
        pick.map(lambda g: g.auto),
        pick.map(lambda g: g.inverse),
    )


components = st.builds(
    ComponentReport,
    st.sampled_from(("complement", "neighbourhood")),
    small_ints,
    st.integers(0, 2),
    st.booleans(),
)
name_tuples = st.lists(texts, max_size=2).map(tuple)
surface_specs = st.builds(SurfaceSpec, st.integers(2, 3), st.sampled_from((0, 1)))
registry_reports = st.lists(check_results, max_size=2).map(lambda r: RegistryReport(tuple(r)))
key_reports = st.builds(KeyConjugationReport, st.booleans(), st.booleans(), name_tuples)
complement_reports = st.builds(
    ComplementReport,
    st.integers(2, 3),
    st.sampled_from((0, 1)),
    name_tuples,
    st.lists(components, max_size=2).map(tuple),
)

# class, its fields in order, instances, and whether it has a repr of its own
RECORDS = [
    (Word, ("genus", "letters"), any_words, True),
    (CyclicWord, ("genus", "letters"), cyclic_words, True),
    (Event, ("pair", "hit_b", "t"), events, False),
    (SurfaceSpec, ("genus", "boundary"), surface_specs, False),
    (CurveRecord, ("name", "word", "events", "arrow"), curve_records, False),
    (CheckResult, ("check", "subject", "ok", "detail"), check_results, False),
    (RegistryReport, ("results",), registry_reports, False),
    (
        Automorphism,
        ("genus", "images"),
        st.integers(1, 2).flatmap(automorphisms),
        False,
    ),
    (TwistGenerator, ("name", "curve", "auto", "inverse"), twist_generators(), False),
    (
        KeyConjugationReport,
        ("curve_clause_ok", "twist_clause_ok", "diagnostics"),
        key_reports,
        False,
    ),
    (
        Certificate,
        ("target", "allowed", "expression"),
        st.builds(Certificate, texts, name_tuples, texts),
        False,
    ),
    (
        CertificateReport,
        ("target", "ok", "diagnostic"),
        st.builds(CertificateReport, texts, st.booleans(), texts),
        False,
    ),
    (HomologyMatrix, ("genus", "rows"), matrices(HomologyMatrix), False),
    (Mod2Matrix, ("genus", "rows"), matrices(Mod2Matrix), False),
    (
        ComponentReport,
        ("kind", "euler_characteristic", "boundary_circles", "orientable"),
        components,
        False,
    ),
    (
        ComplementReport,
        ("genus", "boundary", "curve_names", "components"),
        complement_reports,
        False,
    ),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


def twin_class(cls, fields):
    twin = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    twin.__qualname__ = cls.__qualname__
    return twin


def values(record, fields):
    return tuple(getattr(record, name) for name in fields)


def rebuilt(record, fields):
    """An equal record, built again from the fields of `record`."""
    return type(record)(*values(record, fields))


def test_every_record_is_listed():
    assert len(RECORDS) == len(set(IDS)) == 16


@pytest.mark.parametrize("cls, fields, instances, own_repr", RECORDS, ids=IDS)
def test_records_compare_hash_and_print_as_their_dataclass_twins(
    cls, fields, instances, own_repr
):
    twin = twin_class(cls, fields)

    @settings(max_examples=60, deadline=None)
    @given(a=instances, b=st.one_of(st.none(), instances))
    def check(a, b):
        b = rebuilt(a, fields) if b is None else b
        ta, tb = twin(*values(a, fields)), twin(*values(b, fields))
        assert (a == b) == (ta == tb)
        assert (a != b) == (ta != tb)
        assert hash(a) == hash(ta)
        assert a == rebuilt(a, fields) and hash(a) == hash(rebuilt(a, fields))
        assert a != ta and ta != a
        assert a.__eq__(values(a, fields)) is NotImplemented
        if not own_repr:
            assert repr(a) == repr(ta)

    check()


@pytest.mark.parametrize("cls, fields, instances, own_repr", RECORDS, ids=IDS)
def test_records_refuse_assignment_and_deletion(cls, fields, instances, own_repr):
    @settings(max_examples=5, deadline=None)
    @given(record=instances)
    def check(record):
        for name in fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(record, name)
            getattr(record, name)

    check()


def keywords(record, fields, start=0):
    """The keyword arguments that build `record` again from ``fields[start:]``."""
    return {name: getattr(record, name) for name in fields[start:]}


@pytest.mark.parametrize("cls, fields, instances, own_repr", RECORDS, ids=IDS)
def test_records_build_alike_by_position_and_by_keyword(cls, fields, instances, own_repr):
    @settings(max_examples=20, deadline=None)
    @given(record=instances)
    def check(record):
        by_keyword = cls(**keywords(record, fields))
        assert by_keyword == cls(*values(record, fields)) == record
        assert hash(by_keyword) == hash(record)
        assert cls(getattr(record, fields[0]), **keywords(record, fields, 1)) == record

    check()


@pytest.mark.parametrize("cls, fields, instances, own_repr", RECORDS, ids=IDS)
def test_records_refuse_missing_doubled_extra_and_unknown_fields(
    cls, fields, instances, own_repr
):
    @settings(max_examples=5, deadline=None)
    @given(record=instances)
    def check(record):
        args = values(record, fields)
        wrong_calls = [
            lambda: cls(**keywords(record, fields, 1)),  # missing
            lambda: cls(*args, **{fields[0]: args[0]}),  # doubled
            lambda: cls(*args, None),  # extra
            lambda: cls(*args, colour=None),  # unknown
        ]
        for call in wrong_calls:
            with pytest.raises(TypeError, match=cls.__name__) as exc:
                call()
            if "__init__" not in vars(cls):
                assert all(name in str(exc.value) for name in fields)

    check()


def test_records_that_only_store_fields_take_the_base_constructor():
    bare = {cls.__name__ for cls, *_ in RECORDS if "__init__" not in vars(cls)}
    assert bare == {
        "TwistGenerator",
        "KeyConjugationReport",
        "Certificate",
        "RegistryReport",
        "ComponentReport",
        "ComplementReport",
    }
    with pytest.raises(TypeError, match=r"^Certificate\(\) takes the fields target, allowed, "):
        Certificate("f", ("a1",))


def test_records_of_different_classes_with_equal_fields_differ():
    assert Word(2, (1, 2)) != CyclicWord(2, (1, 2))
    assert CheckResult("a", "b", True) != CertificateReport("a", "b", True)
