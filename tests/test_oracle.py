"""Tests for the enumeration oracle and the defining-property verifier."""

import math

import pytest

from farey import (
    CapExceededError,
    DomainError,
    FareySequence,
    FareyTriple,
    Fraction,
    enumerate_farey,
    iterate_farey,
    triple_by_scan,
    verify_properties,
)
from farey import oracle
from helpers import are_adjacent, sweep, totient_sum

GOLDEN_ROWS = {
    1: "0/1 1/1",
    2: "0/1 1/2 1/1",
    3: "0/1 1/3 1/2 2/3 1/1",
    4: "0/1 1/4 1/3 1/2 2/3 3/4 1/1",
    5: "0/1 1/5 1/4 1/3 2/5 1/2 3/5 2/3 3/4 4/5 1/1",
}


def _terms(order, cap=None):
    return enumerate_farey(order, cap).terms


class TestEnumerate:
    @pytest.mark.parametrize("order", sorted(GOLDEN_ROWS))
    def test_golden_rows(self, order):
        assert " ".join(str(t) for t in _terms(order)) == GOLDEN_ROWS[order]

    def test_row_four_shape(self):
        terms = _terms(4)
        assert len(terms) == 7
        assert [str(t) for t in terms[-3:]] == ["2/3", "3/4", "1/1"]

    def test_rejects_order_zero(self):
        with pytest.raises(DomainError):
            enumerate_farey(0)

    def test_iterate_matches_enumerate(self):
        assert tuple(iterate_farey(30)) == _terms(30)

    def test_sequence_container_protocol(self):
        seq = enumerate_farey(5)
        assert len(seq) == 11
        assert seq[4] == Fraction(2, 5)
        assert list(seq)[0] == Fraction(0, 1)

    @pytest.mark.parametrize("order", [500, 777, 1000])
    def test_length_is_totient_sum_spot_checks(self, order):
        # Exhaustive to 300 runs in the sweep; spot-check larger orders.
        assert len(_terms(order)) == 1 + totient_sum(1, order)

    def test_length_totient_sweep(self):
        assert sweep().complaints("length") == []

    def test_nesting_sweep(self):
        assert sweep().complaints("nesting") == []


class TestCap:
    def test_under_cap_succeeds(self):
        assert len(_terms(5, cap=11)) == 11

    def test_exact_overflow_aborts(self):
        with pytest.raises(CapExceededError):
            enumerate_farey(5, cap=10)

    def test_quick_reject_without_work(self):
        # |F_N| >= N + 1 lets absurd orders fail fast.
        with pytest.raises(CapExceededError):
            enumerate_farey(10**12, cap=10**7)

    def test_none_disables_cap(self):
        assert len(_terms(40, cap=None)) == 1 + totient_sum(1, 40)

    @pytest.mark.parametrize("order", [3, 5, 25, 100])
    def test_boundary_is_the_exact_length(self, order):
        length = len(enumerate_farey(order, None))
        assert len(enumerate_farey(order, length)) == length
        with pytest.raises(CapExceededError, match=f"^F_{order} exceeds the cap of {length - 1} terms$"):
            enumerate_farey(order, length - 1)

    def test_quick_reject_message(self):
        with pytest.raises(CapExceededError, match="^F_25 has at least 26 terms, above the cap of 25$"):
            enumerate_farey(25, cap=25)

    def test_refused_before_the_first_term(self, monkeypatch):
        made, real = [], oracle._recurrence

        def recording(order):
            for term in real(order):
                made.append(term)
                yield term

        monkeypatch.setattr(oracle, "_recurrence", recording)
        with pytest.raises(CapExceededError):
            enumerate_farey(25, cap=199)
        assert made == []

    def test_length_is_counted_only_past_the_trivial_bound(self, monkeypatch):
        # 1 + N(N+1)/2 terms is an upper bound, so a cap above it needs no count.
        def uncounted(order):
            raise AssertionError("counted F_24 under a cap it cannot reach")

        monkeypatch.setattr(oracle, "_farey_length", uncounted)
        assert len(enumerate_farey(24, cap=1 + 24 * 25 // 2)) == 1 + totient_sum(1, 24)


class TestLength:
    def test_matches_the_enumeration_to_300(self):
        for order in range(1, 301):
            assert oracle._farey_length(order) == len(enumerate_farey(order, None)), order

    def test_matches_the_totient_sum_at_10_to_the_4(self):
        assert oracle._farey_length(10**4) == 1 + totient_sum(1, 10**4)


class TestVerifyProperties:
    def test_f5_passes(self):
        report = verify_properties(enumerate_farey(5))
        assert report.ok
        assert report.pairs == 10
        assert report.mediants == 9
        assert report.centers == 4

    def test_f2_neighbor_sums(self):
        report = verify_properties(enumerate_farey(2))
        assert report.ok
        assert report.centers == 1

    def test_f1_has_no_mediants_or_centers(self):
        report = verify_properties(enumerate_farey(1))
        assert (report.ok, report.pairs, report.mediants, report.centers) == (True, 1, 0, 0)

    def test_sweep_passes_everywhere(self):
        assert sweep().complaints("properties") == []

    def test_doctored_missing_interior_term(self):
        terms = [t for t in _terms(5) if t != Fraction(1, 3)]
        report = verify_properties(FareySequence(5, tuple(terms)))
        assert not report.ok
        # The 1/4, 2/5 gap left behind has determinant 3.
        assert report.index == 2
        assert "determinant 3" in report.failure

    def test_doctored_descending_pair(self):
        # 1/6 after 1/5 instead of before it: F_6's adjacent pair 1/6, 1/5
        # swapped, so its determinant is -1.
        terms = list(_terms(5))
        terms.insert(2, Fraction(1, 6))
        report = verify_properties(FareySequence(5, tuple(terms)))
        assert not report.ok
        assert report.index == 1
        assert report.failure == "adjacent pair 1/5, 1/6 has determinant -1, expected 1"

    def test_doctored_missing_first_term(self):
        report = verify_properties(FareySequence(5, _terms(5)[1:]))
        assert not report.ok
        assert "0/1" in report.failure

    def test_doctored_missing_last_term(self):
        report = verify_properties(FareySequence(5, _terms(5)[:-1]))
        assert not report.ok
        assert "1/1" in report.failure

    def test_doctored_foreign_term(self):
        terms = list(_terms(5))
        terms[4] = Fraction(3, 7)  # replaces 2/5; breaks unimodularity
        report = verify_properties(FareySequence(5, tuple(terms)))
        assert not report.ok
        assert "determinant" in report.failure

    def test_doctored_inserted_mediant(self):
        # A mediant insertion keeps every determinant at 1, so only the
        # denominator bound can expose it.
        terms = list(_terms(5))
        terms.insert(4, Fraction(3, 8))  # between 1/3 and 2/5
        report = verify_properties(FareySequence(5, tuple(terms)))
        assert not report.ok
        assert "denominator above order" in report.failure

    def test_doctored_wrong_order_label(self):
        report = verify_properties(FareySequence(6, _terms(5)))
        assert not report.ok

    def test_empty_sequence(self):
        report = verify_properties(FareySequence(5, ()))
        assert not report.ok


class TestScanTriple:
    """triple_by_scan, the oracle's one route to a triple."""

    def test_two_fifths(self):
        t = triple_by_scan(2, 5)
        assert (t.left, t.center, t.right) == (
            Fraction(1, 3),
            Fraction(2, 5),
            Fraction(1, 2),
        )

    def test_one_fourth(self):
        t = triple_by_scan(1, 4)
        assert (t.left, t.center, t.right) == (
            Fraction(0, 1),
            Fraction(1, 4),
            Fraction(1, 3),
        )

    def test_three_fifths(self):
        t = triple_by_scan(3, 5)
        assert (t.left, t.center, t.right) == (
            Fraction(1, 2),
            Fraction(3, 5),
            Fraction(2, 3),
        )

    def test_rejects_reducible(self):
        with pytest.raises(DomainError, match="2/4 not irreducible"):
            triple_by_scan(2, 4)

    def test_rejects_out_of_range_numerator(self):
        with pytest.raises(DomainError):
            triple_by_scan(5, 5)
        with pytest.raises(DomainError):
            triple_by_scan(0, 5)

    def test_rejects_tiny_order(self):
        with pytest.raises(DomainError):
            triple_by_scan(1, 1)

    def test_honors_cap(self):
        with pytest.raises(CapExceededError):
            triple_by_scan(9, 25, cap=10)

    def test_walk_matches_the_enumerated_scan_to_60(self):
        # The whole triple, order included, against the window read off F_order.
        for order in range(2, 61):
            seq = enumerate_farey(order)
            for i in range(1, len(seq) - 1):
                f = seq[i]
                if f.den == order:
                    window = FareyTriple(seq[i - 1], f, seq[i + 1], order)
                    assert triple_by_scan(f.num, order) == window

    def test_windows_are_consecutive_terms(self):
        # Every center of every order up to 60: both neighbours are adjacent
        # to the center in the determinant sense, by an independent checker.
        for order in range(2, 61):
            for n in range(1, order):
                if math.gcd(n, order) != 1:
                    continue
                t = triple_by_scan(n, order)
                assert t.left < t.center < t.right
                assert are_adjacent(t.left, t.center, order)
                assert are_adjacent(t.center, t.right, order)
