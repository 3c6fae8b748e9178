"""Tests for the six result records: frozen slots, value semantics, repr,
pickling and the import cost they exist to avoid."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from farey import (
    ContinuedFraction,
    DomainError,
    FareySequence,
    FareyTriple,
    Fraction,
    NeighborResult,
    PropertyReport,
    ReductionChain,
    cf_expand,
    enumerate_farey,
    reduction_chain,
    right_neighbor,
    triple,
    verify_properties,
)

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


@pytest.mark.parametrize("record, text", EXAMPLES, ids=IDS)
def test_repr_golden(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, _", EXAMPLES, ids=IDS)
def test_equality_by_value(record, _):
    twin = type(record)(*_fields(record))
    assert twin == record
    assert not twin != record
    assert twin is not record


@pytest.mark.parametrize("record, _", EXAMPLES, ids=IDS)
def test_equality_is_class_sensitive(record, _):
    class Tagged(type(record)):
        __slots__ = ()

    other = Tagged(*_fields(record))
    assert other != record and record != other
    assert record.__eq__(other) is NotImplemented
    # A subclass keeps the parent's fields, as a dataclass subclass would.
    assert repr(other) == repr(record).replace(type(record).__name__, Tagged.__qualname__, 1)
    assert record != _fields(record)


@pytest.mark.parametrize("record", FROZEN, ids=[type(r).__name__ for r in FROZEN])
def test_hash_by_value(record):
    twin = type(record)(*_fields(record))
    assert hash(twin) == hash(record)
    assert hash(record) == hash(_fields(record))
    assert len({record, twin}) == 1


@pytest.mark.parametrize("record", FROZEN, ids=[type(r).__name__ for r in FROZEN])
def test_fields_are_frozen(record):
    name = record._fields[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is before


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


def test_keyword_construction():
    t = triple(5, 39)
    assert FareyTriple(left=t.left, center=t.center, right=t.right, order=39) == t
    seq = enumerate_farey(2)
    assert FareySequence(order=2, terms=seq.terms) == seq


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
