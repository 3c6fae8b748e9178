"""Tests for successor and predecessor queries at arbitrary order."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from farey import (
    DomainError,
    Fraction,
    NeighborResult,
    base_right_neighbor,
    cross_det,
    enumerate_farey,
    left_neighbor,
    right_neighbor,
    triple_via_cf,
)
from farey import neighbors
from farey.triples import _chain_triple
from helpers import are_adjacent, sweep
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


    def test_rejects_query_outside_the_order(self):
        # 1/4 and 1/3 are unimodular, but 1/4 is not a term of F_3.
        with pytest.raises(DomainError, match="not a member"):
            NeighborResult(Fraction(1, 4), 3, Fraction(1, 3), 0, Fraction(1, 3))

    def test_accepts_either_side(self):
        # The record has no side field: a successor and a predecessor both fit.
        x = Fraction(9, 25)
        for neighbor in (Fraction(4, 11), Fraction(5, 14)):
            assert NeighborResult(x, 25, neighbor, 0, neighbor).neighbor == neighbor

    def test_refuses_steps_and_base_the_neighbor_does_not_fix(self):
        # 2/5 follows 1/3 at order 5 one rung above the base 1/2: (1*1 + 1)/(1*3 + 2).
        with pytest.raises(DomainError, match="^step count must be 1, got 7$"):
            NeighborResult(Fraction(1, 3), 5, Fraction(2, 5), 7, Fraction(0, 1))
        with pytest.raises(DomainError, match="^base of 1/3 must be 1/2$"):
            NeighborResult(Fraction(1, 3), 5, Fraction(2, 5), 1, Fraction(0, 1))
        r = NeighborResult(Fraction(1, 3), 5, Fraction(2, 5), 1, Fraction(1, 2))
        assert (r.steps, r.base) == (1, Fraction(1, 2))

    def test_steps_and_base_are_derived_and_read_only(self):
        assert NeighborResult.__slots__ == ("query", "order", "neighbor")
        r = right_neighbor(Fraction(9, 25), 100)
        for name in ("steps", "base"):
            with pytest.raises(AttributeError):
                setattr(r, name, getattr(r, name))
            with pytest.raises(AttributeError):
                delattr(r, name)
        assert (r.steps, r.base) == (3, Fraction(4, 11))

    def test_wrong_sign_inverse_is_caught_at_the_boundary(self, monkeypatch):
        # d = n^(-1) mod N instead of N - n^(-1) gives the neighbor on the
        # other side; it passes every check but the side, which must refuse it.
        def wrong_sign(a, b):
            if a == 0:
                return 1, 1
            d = pow(a, -1, b)
            return (1 + a * d) // b, d

        monkeypatch.setattr(neighbors, "_base_successor", wrong_sign)
        for text, order in (("5/39", 39), ("9/25", 100), ("9/25", 25)):
            x = Fraction.parse(text)
            with pytest.raises(DomainError, match="not the successor"):
                right_neighbor(x, order)
            with pytest.raises(DomainError, match="not the predecessor"):
                left_neighbor(x, order)


@st.composite
def _queried_terms(draw):
    """(x, order, query): x a term of F_order, at orders to 60 and near 10^12
    and 10^100, with a neighbor query that x has."""
    top = draw(st.sampled_from([60, 10**12, 10**100]))
    order = draw(st.integers(1 if top == 60 else top // 10, top))
    den = draw(st.integers(1, order))
    x = Fraction(draw(st.integers(0, den)), den)
    queries = [q for q, end in ((right_neighbor, x.den), (left_neighbor, 0)) if x.num != end]
    return x, order, draw(st.sampled_from(queries))


class TestDerivedFields:
    @given(_queried_terms(), st.integers(-2, 2), st.integers(0, 5))
    def test_the_constructor_accepts_exactly_the_derived_steps_and_base(self, case, shift, pick):
        x, order, query = case
        r = query(x, order)
        assert r.steps == (order - r.base.den) // x.den
        steps = r.steps + shift
        base = (
            r.base,
            r.neighbor,
            x,
            Fraction(r.base.num + x.num, r.base.den + x.den),
            Fraction(0, 1) if r.base.num else Fraction(1, 1),
            (r.base.num, r.base.den),
        )[pick]
        if (steps, base) == (r.steps, r.base):
            assert NeighborResult(x, order, r.neighbor, steps, base) == r
        else:
            with pytest.raises(DomainError):
                NeighborResult(x, order, r.neighbor, steps, base)

    @given(_queried_terms())
    def test_every_query_record_pickles_and_copies(self, case):
        x, order, query = case
        r = query(x, order)
        clones = [pickle.loads(pickle.dumps(r, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in (*clones, copy.copy(r), copy.deepcopy(r)):
            assert type(clone) is NeighborResult and clone == r
            assert (clone.steps, clone.base) == (r.steps, r.base)


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
