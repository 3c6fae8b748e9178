"""Tests for the six result records: frozen slots, value semantics, repr,
pickling and the import cost they exist to avoid."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from farey import (
    ContinuedFraction,
    DomainError,
    FareySequence,
    FareyTriple,
    Fraction,
    NeighborResult,
    PropertyReport,
    ReductionChain,
    base_triple,
    cf_expand,
    enumerate_farey,
    lift_chain,
    lift_step,
    reduction_chain,
    right_neighbor,
    left_neighbor,
    triple,
    triple_via_cf,
    verify_properties,
)
from farey.triples import _chain_triple
from strats import coprime_pairs

SRC = Path(__file__).resolve().parent.parent / "src"


def _examples():
    """(record, golden repr) for each type, built the way the package does."""
    return [
        (
            triple(5, 39),
            "FareyTriple(left=Fraction(1, 8), center=Fraction(5, 39),"
            " right=Fraction(4, 31), order=39)",
        ),
        (
            reduction_chain(Fraction(5, 39)),
            "ReductionChain(quotients=(7, 1), terminal=4, start=Fraction(5, 39))",
        ),
        (cf_expand(Fraction(9, 25)), "ContinuedFraction(coeffs=(0, 2, 1, 3, 2))"),
        (
            right_neighbor(Fraction(9, 25), 100),
            "NeighborResult(query=Fraction(9, 25), order=100,"
            " neighbor=Fraction(31, 86), steps=3, base=Fraction(4, 11))",
        ),
        (
            enumerate_farey(3),
            "FareySequence(order=3, terms=(Fraction(0, 1), Fraction(1, 3),"
            " Fraction(1, 2), Fraction(2, 3), Fraction(1, 1)))",
        ),
        (
            verify_properties(enumerate_farey(3)),
            "PropertyReport(ok=True, pairs=4, mediants=3, centers=2,"
            " failure=None, index=None)",
        ),
    ]


EXAMPLES = _examples()
IDS = [type(record).__name__ for record, _ in EXAMPLES]
FROZEN = [record for record, _ in EXAMPLES if not isinstance(record, PropertyReport)]


def _fields(record):
    return tuple(getattr(record, name) for name in record._fields)


def _subclass(base, shape):
    """A subclass of ``base`` that adds no field, kept in this module's
    globals so that pickle finds it: "slots" declares ``__slots__ = ()``,
    "dict" declares no ``__slots__`` and so gives its instances a ``__dict__``."""
    name = f"Tagged{base.__name__}{shape.title()}"
    if name not in globals():
        globals()[name] = type(name, (base,), {"__slots__": ()} if shape == "slots" else {})
    return globals()[name]


def _shaped(records, shapes):
    """(record, shape) parameters; the first shape keeps the record's bare id."""
    return [
        pytest.param(r, s, id=type(r).__name__ + ("" if s == shapes[0] else f"-{s}"))
        for s in shapes
        for r in records
    ]


@pytest.mark.parametrize("record, text", EXAMPLES, ids=IDS)
def test_repr_golden(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, _", EXAMPLES, ids=IDS)
def test_equality_by_value(record, _):
    twin = type(record)(*_fields(record))
    assert twin == record
    assert not twin != record
    assert twin is not record


@pytest.mark.parametrize("record, shape", _shaped([r for r, _ in EXAMPLES], ("slots", "dict")))
def test_equality_is_class_sensitive(record, shape):
    Tagged = _subclass(type(record), shape)
    other = Tagged(*_fields(record))
    assert type(other) is Tagged and hasattr(other, "__dict__") == (shape == "dict")
    assert other != record and record != other
    assert record.__eq__(other) is NotImplemented
    # A subclass keeps the parent's fields, as a dataclass subclass would.
    assert repr(other) == repr(record).replace(type(record).__name__, Tagged.__qualname__, 1)
    assert record != _fields(record)
    clones = [pickle.loads(pickle.dumps(other, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in (*clones, copy.copy(other), copy.deepcopy(other)):
        assert type(clone) is Tagged and clone == other and clone != record


@pytest.mark.parametrize("record", FROZEN, ids=[type(r).__name__ for r in FROZEN])
def test_hash_by_value(record):
    twin = type(record)(*_fields(record))
    assert hash(twin) == hash(record)
    assert hash(record) == hash(_fields(record))
    assert len({record, twin}) == 1


@pytest.mark.parametrize("record, shape", _shaped(FROZEN, ("exact", "slots", "dict")))
def test_fields_are_frozen(record, shape):
    if shape != "exact":
        record = _subclass(type(record), shape)(*_fields(record))
    name = record._fields[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is before
    assert getattr(record, "__dict__", {}) == {}


def test_property_report_is_mutable_and_unhashable():
    report = PropertyReport(ok=True)
    assert (report.pairs, report.mediants, report.centers) == (0, 0, 0)
    assert report.failure is None and report.index is None
    report.ok = False
    report.failure = "planted"
    assert report == PropertyReport(False, failure="planted")
    del report.index
    with pytest.raises(AttributeError):
        report.index
    with pytest.raises(TypeError):
        hash(PropertyReport(ok=True))
    with pytest.raises(AttributeError):
        report.extra = 1


@pytest.mark.parametrize("record, _", EXAMPLES, ids=IDS)
def test_pickle_and_copies_round_trip(record, _):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(record, protocol))
        assert type(clone) is type(record) and clone == record
    assert copy.deepcopy(record) == record
    assert copy.copy(record) == record


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_fraction_pickles_at_every_protocol(protocol):
    for x in (Fraction(0, 1), Fraction(5, 39), Fraction(1, 1)):
        clone = pickle.loads(pickle.dumps(x, protocol))
        assert type(clone) is Fraction and clone == x


def test_fraction_unpickling_revalidates():
    rebuild, (num, den) = Fraction(5, 39).__reduce__()
    assert rebuild(num, den) == Fraction(5, 39)
    with pytest.raises(DomainError):
        rebuild(den, num)


def test_unpickling_revalidates():
    # __reduce__ rebuilds through the constructor, so doctored state is caught.
    rebuild, fields = triple(5, 39).__reduce__()
    with pytest.raises(DomainError):
        rebuild(fields[2], fields[1], fields[0], fields[3])


@pytest.mark.parametrize(
    "build",
    [
        lambda: FareyTriple(Fraction(1, 7), Fraction(5, 39), Fraction(4, 31), 39),
        lambda: ReductionChain((7, 0), 4, Fraction(5, 39)),
        lambda: ContinuedFraction((0, 2, 0)),
        lambda: NeighborResult(Fraction(9, 25), 100, Fraction(31, 86), -1, Fraction(4, 11)),
    ],
    ids=["FareyTriple", "ReductionChain", "ContinuedFraction", "NeighborResult"],
)
def test_bad_construction_raises(build):
    with pytest.raises(DomainError):
        build()


def _fresh(x):
    return Fraction(x.num, x.den)


def _assert_same_record(built, twin):
    assert type(built) is type(twin) and built == twin and twin == built
    assert hash(built) == hash(twin)
    assert repr(built) == repr(twin)
    for clone in (pickle.loads(pickle.dumps(built)), copy.deepcopy(built)):
        assert clone == twin and repr(clone) == repr(twin)


@given(coprime_pairs(max_order=10**40), st.integers(0, 10**40))
def test_queries_build_the_records_the_public_constructors_build(pair, extra):
    # Every record is filled as a draft of its class and then given the
    # class itself; each must come out as exactly the public class, equal to
    # the one the validating keyword constructors make from the same fields.
    n, order = pair
    x = Fraction(n, order)
    chain = reduction_chain(x)
    triples = (
        triple(n, order),
        _chain_triple(n, order),
        triple_via_cf(x),
        lift_chain(chain),
        lift_step(triple(n, order), 1 + extra % 7),
        base_triple(order),
    )
    for t in triples:
        twin = FareyTriple(
            left=_fresh(t.left), center=_fresh(t.center), right=_fresh(t.right), order=t.order
        )
        _assert_same_record(t, twin)
    twin = ReductionChain(quotients=chain.quotients, terminal=chain.terminal, start=_fresh(x))
    _assert_same_record(chain, twin)
    cf = cf_expand(x)
    _assert_same_record(cf, ContinuedFraction(coeffs=cf.coeffs))
    seq = enumerate_farey(1 + extra % 12)
    twin = FareySequence(order=seq.order, terms=tuple(map(_fresh, seq.terms)))
    _assert_same_record(seq, twin)
    for query in (right_neighbor, left_neighbor):
        for at in (order, order + extra):
            r = query(x, at)
            twin = NeighborResult(
                query=_fresh(x), order=at, neighbor=_fresh(r.neighbor), steps=r.steps,
                base=_fresh(r.base),
            )
            _assert_same_record(r, twin)


@given(coprime_pairs(max_order=10**40))
def test_from_coprime_is_the_reduced_fraction(pair):
    n, order = pair
    for num, den in ((n, order), (0, 1), (1, 1), (order - n, order)):
        fast = Fraction._from_coprime(num, den)
        assert type(fast) is Fraction
        assert fast == Fraction(num, den) and hash(fast) == hash(Fraction(num, den))
        assert repr(fast) == repr(Fraction(num, den))


def test_keyword_construction():
    t = triple(5, 39)
    assert FareyTriple(left=t.left, center=t.center, right=t.right, order=39) == t
    seq = enumerate_farey(2)
    assert FareySequence(order=2, terms=seq.terms) == seq
    # Every field of every frozen record is a keyword, and none is optional.
    for record in FROZEN:
        fields = dict(zip(record._fields, _fields(record)))
        _assert_same_record(type(record)(**fields), record)
        assert type(record).__match_args__ == record._fields
        for name in fields:
            with pytest.raises(TypeError, match=repr(name)):
                type(record)(**{k: v for k, v in fields.items() if k != name})


@pytest.mark.parametrize(
    "items, build, twin",
    [
        (
            lambda: [7, 1],
            lambda q: ReductionChain(q, 4, Fraction(5, 39)),
            lambda: reduction_chain(Fraction(5, 39)),
        ),
        (lambda: [0, 2], ContinuedFraction, lambda: cf_expand(Fraction(1, 2))),
        (
            lambda: list(enumerate_farey(3)),
            lambda terms: FareySequence(3, terms),
            lambda: enumerate_farey(3),
        ),
    ],
    ids=["ReductionChain", "ContinuedFraction", "FareySequence"],
)
def test_a_list_builds_the_tuple_built_record(items, build, twin):
    # The record keeps its own tuple: equal and hashable like the twin, and
    # deaf to later changes to the caller's list.
    items = items()
    built = build(items)
    _assert_same_record(built, twin())
    items.append(items[0])
    assert built == twin()


def test_cli_import_loads_neither_dataclasses_nor_json():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = (
        "import sys, farey.cli;"
        " print(sorted(m for m in ('dataclasses', 'json') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout == "[]\n"
