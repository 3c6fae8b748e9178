"""The package's public surface, which resolves its names on first use."""

import importlib
import re
import sys
from pathlib import Path

import pytest

import farey
from farey import CapExceededError, DomainError, Fraction


def test_every_public_name_is_the_object_its_submodule_defines():
    for name in farey.__all__:
        value = getattr(farey, name)
        # DEFAULT_CAP, the one public constant, carries no __module__.
        home = getattr(value, "__module__", "farey.errors")
        assert home.startswith("farey."), name
        assert getattr(importlib.import_module(home), name) is value, name


def test_a_resolved_name_stays_bound_in_the_package():
    value = farey.right_neighbor
    assert vars(farey)["right_neighbor"] is value


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from farey import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(farey.__all__)


def test_dir_lists_every_public_name():
    assert set(farey.__all__) <= set(dir(farey))


def test_unknown_attribute_raises_the_standard_error():
    for name in ("farey", "farey.cli"):
        module = importlib.import_module(name)
        with pytest.raises(AttributeError, match=rf"^module '{name}' has no attribute 'nonesuch'$"):
            module.nonesuch


def test_default_cap_is_the_oracles():
    import farey.oracle

    assert farey.DEFAULT_CAP is farey.oracle.DEFAULT_CAP == 10_000_000


_HUGE = 10**5000  # past the interpreter's 4300-digit int-to-str limit


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(call, error, id=name)
        for name, call, error in (
            ("Fraction", lambda: Fraction(-_HUGE, 3), DomainError),
            ("right_neighbor", lambda: farey.right_neighbor(Fraction(1, 3), -_HUGE), DomainError),
            ("left_neighbor", lambda: farey.left_neighbor(Fraction(1, 3), -_HUGE), DomainError),
            (
                "NeighborResult",
                lambda: farey.NeighborResult(
                    Fraction(1, 3), 3, Fraction(1, 2), -_HUGE, Fraction(1, 2)
                ),
                DomainError,
            ),
            ("iterate_farey", lambda: farey.iterate_farey(-_HUGE), DomainError),
            ("enumerate_farey", lambda: farey.enumerate_farey(_HUGE), CapExceededError),
            ("triple_by_scan", lambda: farey.triple_by_scan(1, _HUGE), CapExceededError),
            ("lift_step", lambda: farey.lift_step(farey.triple(1, 3), -_HUGE), DomainError),
            (
                "ReductionChain",
                lambda: farey.ReductionChain((1,), -_HUGE, Fraction(2, 3)),
                DomainError,
            ),
            (
                "FareyTriple",
                lambda: farey.FareyTriple(
                    Fraction(0, 1), Fraction(1, 2), Fraction(1, 1), -_HUGE
                ),
                DomainError,
            ),
            (
                "FareyTriple[order]",
                lambda: farey.FareyTriple(Fraction(0, 1), Fraction(1, 3), Fraction(1, 2), _HUGE),
                DomainError,
            ),
            (
                "FareyTriple[left]",
                lambda: farey.FareyTriple(Fraction(1, _HUGE), Fraction(1, 2), Fraction(1, 1), 2),
                DomainError,
            ),
            (
                "NeighborResult[neighbor]",
                lambda: farey.NeighborResult(
                    Fraction(1, 3), 3, Fraction(1, _HUGE), 0, Fraction(1, 2)
                ),
                DomainError,
            ),
            (
                "right_neighbor[query]",
                lambda: farey.right_neighbor(Fraction(1, _HUGE), 3),
                DomainError,
            ),
            ("ContinuedFraction[0]", lambda: farey.ContinuedFraction((-_HUGE,)), DomainError),
            ("ContinuedFraction[1]", lambda: farey.ContinuedFraction((0, -_HUGE)), DomainError),
        )
    ],
)
def test_an_int_past_the_digit_limit_gets_a_short_package_error(call, error):
    # str() refuses such an int; the message shows its sign and bit length.
    # An order past any cap is refused by the cap, the rest as bad input.
    with pytest.raises(error) as err:
        call()
    assert "int of 1661" in str(err.value)
    assert len(str(err.value)) < 200


def test_a_term_past_the_digit_limit_gets_a_short_property_report():
    # verify_properties reports a failed check instead of raising.
    terms = (Fraction(0, 1), Fraction(1, _HUGE), Fraction(1, 1))
    report = farey.verify_properties(farey.FareySequence(5, terms))
    assert (report.ok, report.index) == (False, 0)
    assert report.failure == "denominator above order 5 in pair 0/1, 1/an int of 16610 bits"


def test_the_python_floor_has_the_digit_limit_the_cli_reads():
    # cli._digit_limit reads sys.get_int_max_str_digits and
    # sys.int_info.default_max_str_digits, which Python has from 3.10.7 on.
    root = Path(__file__).resolve().parent.parent
    pyproject = (root / "pyproject.toml").read_text()
    floor = re.search(r'requires-python = ">=([0-9.]+)"', pyproject).group(1)
    assert tuple(map(int, floor.split("."))) >= (3, 10, 7)
    assert f"Python {floor}+" in (root / "README.md").read_text()
    assert sys.get_int_max_str_digits() >= 0 and sys.int_info.default_max_str_digits == 4300
