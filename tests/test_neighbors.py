"""Tests for successor and predecessor queries at arbitrary order."""

import pytest
from hypothesis import given

from farey import (
    DomainError,
    Fraction,
    NeighborResult,
    are_adjacent,
    base_right_neighbor,
    cross_det,
    enumerate_farey,
    left_neighbor,
    right_neighbor,
    triple_via_cf,
)
from farey.triples import _chain_triple
from helpers import sweep
from strats import coprime_pairs


class TestBaseRightNeighbor:
    def test_worked_example(self):
        assert base_right_neighbor(Fraction(9, 25)) == Fraction(4, 11)

    def test_composite_center(self):
        assert base_right_neighbor(Fraction(5, 39)) == Fraction(4, 31)

    def test_zero(self):
        assert base_right_neighbor(Fraction(0, 1)) == Fraction(1, 1)

    def test_one_has_no_successor(self):
        with pytest.raises(DomainError):
            base_right_neighbor(Fraction(1, 1))

    def test_is_adjacent_at_own_order(self):
        x = Fraction(9, 25)
        assert are_adjacent(x, base_right_neighbor(x), 25)

    @given(coprime_pairs(max_order=10**40))
    def test_agrees_with_both_triple_constructions(self, pair):
        n, order = pair
        x = Fraction(n, order)
        t = _chain_triple(n, order)
        assert base_right_neighbor(x) == t.right == triple_via_cf(x).right
        assert left_neighbor(x, order).base == t.left


class TestRightNeighbor:
    def test_worked_example_high_order(self):
        r = right_neighbor(Fraction(9, 25), 100)
        assert r.neighbor == Fraction(31, 86)
        assert r.steps == 3

    def test_worked_example_own_order(self):
        r = right_neighbor(Fraction(9, 25), 25)
        assert r.neighbor == Fraction(4, 11)
        assert r.steps == 0

    def test_half(self):
        r = right_neighbor(Fraction(1, 2), 5)
        assert r.neighbor == Fraction(3, 5)
        assert r.steps == 2

    def test_zero_start(self):
        r = right_neighbor(Fraction(0, 1), 7)
        assert r.neighbor == Fraction(1, 7)

    def test_one_has_no_successor(self):
        with pytest.raises(DomainError):
            right_neighbor(Fraction(1, 1), 10)

    def test_rejects_order_below_denominator(self):
        with pytest.raises(DomainError, match="not a member"):
            right_neighbor(Fraction(9, 25), 24)

    def test_zero_steps_equals_unified_formula(self):
        x = Fraction(9, 25)
        r = right_neighbor(x, 25)
        base = r.base
        unified = Fraction(0 * x.num + base.num, 0 * x.den + base.den)
        assert r.neighbor == unified == base

    def test_steps_formula(self):
        x = Fraction(9, 25)
        for order in range(25, 201):
            r = right_neighbor(x, order)
            assert r.steps == (order - r.base.den) // x.den


class TestLeftNeighbor:
    def test_worked_example(self):
        r = left_neighbor(Fraction(9, 25), 25)
        assert r.neighbor == Fraction(5, 14)

    def test_half(self):
        r = left_neighbor(Fraction(1, 2), 5)
        assert r.neighbor == Fraction(2, 5)

    def test_one_end(self):
        r = left_neighbor(Fraction(1, 1), 7)
        assert r.neighbor == Fraction(6, 7)

    def test_zero_has_no_predecessor(self):
        with pytest.raises(DomainError):
            left_neighbor(Fraction(0, 1), 10)

    def test_rejects_order_below_denominator(self):
        with pytest.raises(DomainError, match="not a member"):
            left_neighbor(Fraction(9, 25), 24)

    def test_mirror_of_right_on_complement(self):
        x = Fraction(9, 25)
        for order in (25, 40, 100, 173):
            fwd = right_neighbor(x.complement(), order)
            back = left_neighbor(x, order)
            assert back.neighbor == fwd.neighbor.complement()
            assert back.steps == fwd.steps


class TestResultType:
    def test_rejects_non_adjacent(self):
        with pytest.raises(DomainError):
            NeighborResult(
                query=Fraction(1, 3),
                order=10,
                neighbor=Fraction(2, 3),
                steps=0,
                base=Fraction(2, 3),
            )

    def test_rejects_denominator_above_order(self):
        with pytest.raises(DomainError):
            NeighborResult(
                query=Fraction(9, 25),
                order=10,
                neighbor=Fraction(4, 11),
                steps=0,
                base=Fraction(4, 11),
            )

    def test_rejects_negative_steps(self):
        with pytest.raises(DomainError):
            NeighborResult(
                query=Fraction(9, 25),
                order=25,
                neighbor=Fraction(4, 11),
                steps=-1,
                base=Fraction(4, 11),
            )

    def test_rejects_stale_neighbor(self):
        # 4/11 and 9/25 are adjacent at 25 but not at 36, where 13/36 sits
        # between them.
        with pytest.raises(DomainError):
            NeighborResult(
                query=Fraction(9, 25),
                order=36,
                neighbor=Fraction(4, 11),
                steps=0,
                base=Fraction(4, 11),
            )


class TestAgainstOracle:
    def test_range_sweep_for_worked_query(self):
        x = Fraction(9, 25)
        for order in range(25, 201):
            terms = enumerate_farey(order).terms
            at = terms.index(x)
            r = right_neighbor(x, order)
            l = left_neighbor(x, order)
            assert r.neighbor == terms[at + 1]
            assert l.neighbor == terms[at - 1]

    def test_base_denominator_constant_across_range(self):
        # Successors of a fixed query change only when the order crosses a
        # multiple of the query denominator past the base denominator.
        x = Fraction(9, 25)
        seen = {}
        for order in range(25, 201):
            r = right_neighbor(x, order)
            seen.setdefault(r.steps, set()).add(r.neighbor)
            assert r.base == Fraction(4, 11)
        assert all(len(v) == 1 for v in seen.values())
        assert sorted(seen) == list(range(len(seen)))

    def test_every_term_to_sixty(self):
        # neighbor, base and steps of both queries, for every term of F_2..F_60
        # at its own order and 7 above, read off enumerated sequences.
        terms = {m: enumerate_farey(m).terms for m in range(1, 68)}
        where = {m: {t: i for i, t in enumerate(seq)} for m, seq in terms.items()}
        for m in range(2, 61):
            for x in terms[m]:
                own, at_own = terms[x.den], where[x.den][x]
                for order in (m, m + 7):
                    seq, at = terms[order], where[order][x]
                    if x.num < x.den:
                        r = right_neighbor(x, order)
                        base = own[at_own + 1]
                        assert (r.neighbor, r.base) == (seq[at + 1], base)
                        assert r.steps * x.den == r.neighbor.den - base.den
                    if x.num > 0:
                        l = left_neighbor(x, order)
                        base = own[at_own - 1]
                        assert (l.neighbor, l.base) == (seq[at - 1], base)
                        assert l.steps * x.den == l.neighbor.den - base.den

    def test_walk_sweep(self):
        assert sweep().complaints("walk") == []

    def test_pair_sweep(self):
        assert sweep().complaints("pairs") == []


class TestProperties:
    @given(coprime_pairs(max_order=10**4))
    def test_right_neighbor_is_adjacent_and_greater(self, pair):
        n, order = pair
        x = Fraction(n, order)
        r = right_neighbor(x, order)
        assert x < r.neighbor
        assert are_adjacent(x, r.neighbor, order)
        assert cross_det(x, r.neighbor) == 1

    @given(coprime_pairs(max_order=10**4))
    def test_left_neighbor_is_adjacent_and_smaller(self, pair):
        n, order = pair
        x = Fraction(n, order)
        l = left_neighbor(x, order)
        assert l.neighbor < x
        assert are_adjacent(l.neighbor, x, order)
        assert cross_det(l.neighbor, x) == 1

    @given(coprime_pairs(max_order=10**4))
    def test_neighbors_at_twice_the_order(self, pair):
        n, order = pair
        x = Fraction(n, order)
        r = right_neighbor(x, 2 * order)
        l = left_neighbor(x, 2 * order)
        assert l.neighbor < x < r.neighbor
        assert are_adjacent(x, r.neighbor, 2 * order)
        assert are_adjacent(l.neighbor, x, 2 * order)
