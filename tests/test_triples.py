"""Tests for triple construction: adjacency, reduction chains, lifting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from farey import (
    DomainError,
    FareyTriple,
    Fraction,
    ReductionChain,
    are_adjacent,
    base_triple,
    cross_det,
    lift_chain,
    lift_step,
    mediant,
    reduction_chain,
    triple,
    triple_by_scan,
    triple_via_cf,
)
from farey import triples
from helpers import sweep
from strats import coprime_pairs, farey_triples


def _f(text):
    return Fraction.parse(text)


class TestAreAdjacent:
    def test_consecutive_in_f5(self):
        assert are_adjacent(_f("1/3"), _f("2/5"), 5)

    def test_separated_in_f8(self):
        # 3/8 sits between them once denominator sums stop exceeding the order.
        assert not are_adjacent(_f("1/3"), _f("2/5"), 8)

    def test_endpoints_of_f1(self):
        assert are_adjacent(_f("0/1"), _f("1/1"), 1)

    def test_rejects_misordered_input(self):
        with pytest.raises(DomainError):
            are_adjacent(_f("2/5"), _f("1/3"), 5)
        with pytest.raises(DomainError):
            are_adjacent(_f("1/2"), _f("1/2"), 5)

    def test_non_unimodular_pair(self):
        assert not are_adjacent(_f("1/3"), _f("3/4"), 4)

    def test_agrees_with_enumeration(self):
        assert sweep().complaints("adjacency") == []


class TestFareyTripleValidation:
    def test_accepts_golden(self):
        t = FareyTriple(_f("1/8"), _f("5/39"), _f("4/31"), 39)
        assert t.center == _f("5/39")

    def test_rejects_bad_left_pair(self):
        with pytest.raises(DomainError, match="unimodular"):
            FareyTriple(_f("1/9"), _f("5/39"), _f("4/31"), 39)

    def test_rejects_bad_right_pair(self):
        with pytest.raises(DomainError, match="unimodular"):
            FareyTriple(_f("1/8"), _f("5/39"), _f("4/33"), 39)

    def test_rejects_center_denominator_mismatch(self):
        with pytest.raises(DomainError):
            FareyTriple(_f("1/8"), _f("5/39"), _f("4/31"), 40)

    def test_rejects_zero_center(self):
        with pytest.raises(DomainError):
            FareyTriple(_f("0/1"), _f("0/1"), _f("1/1"), 1)

    def test_rejects_outer_denominator_at_order(self):
        # 1/2, 2/3, 1/1 are consecutive in F_3 but 2/3 is not a valid center
        # for order 2's worth of outer terms; force the den >= order branch.
        with pytest.raises(DomainError, match="smaller than the order"):
            FareyTriple(_f("1/3"), _f("1/2"), _f("2/3"), 2)

    @given(farey_triples())
    def test_sum_identities_follow(self, t):
        # Consequences of the checked invariants, not separately enforced.
        assert mediant(t.left, t.right) == t.center
        assert t.left.num + t.right.num == t.center.num
        assert t.left.den + t.right.den == t.order


class TestReductionChain:
    def test_golden_five_thirty_ninths(self):
        chain = reduction_chain(_f("5/39"))
        assert chain.quotients == (7, 1)
        assert chain.terminal == 4

    def test_golden_nine_twenty_fifths(self):
        chain = reduction_chain(_f("9/25"))
        assert chain.quotients == (2, 1, 3)
        assert chain.terminal == 2

    def test_numerator_one_is_empty(self):
        chain = reduction_chain(_f("1/7"))
        assert chain.quotients == ()
        assert chain.terminal == 7

    def test_near_one_center(self):
        # n = N - 1 starts with quotient 1 and needs no special case.
        chain = reduction_chain(_f("16/25"))
        assert chain.quotients == (1, 1, 1, 3)
        assert chain.terminal == 2

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            reduction_chain(_f("0/1"))

    def test_rejects_one(self):
        with pytest.raises(DomainError):
            reduction_chain(_f("1/1"))

    def test_type_rejects_nonpositive_quotients(self):
        with pytest.raises(DomainError):
            ReductionChain((0, 2), 3, _f("2/7"))

    def test_type_rejects_small_terminal(self):
        with pytest.raises(DomainError):
            ReductionChain((), 1, _f("1/1"))

    def test_type_ties_empty_chain_to_numerator_one(self):
        with pytest.raises(DomainError):
            ReductionChain((), 5, _f("2/5"))
        with pytest.raises(DomainError):
            ReductionChain((2,), 5, _f("1/5"))
        with pytest.raises(DomainError):
            ReductionChain((), 6, _f("1/5"))

    @given(coprime_pairs(max_order=10**6))
    def test_replay_reproduces_chain(self, pair):
        # Simulate the reduction independently and require an exact match.
        n, order = pair
        chain = reduction_chain(Fraction(n, order))
        seen = []
        a, b = n, order
        while a > 1:
            q = b // a
            seen.append(q)
            a, b = b - q * a, a
        assert tuple(seen) == chain.quotients
        assert b == chain.terminal

    def test_bound_sweep(self):
        assert sweep().complaints("chain-bound") == []

    def test_fibonacci_worst_case_is_long_but_bounded(self):
        a, b = 1, 2
        for _ in range(28):
            a, b = b, a + b
        chain = reduction_chain(Fraction(a, b))
        assert len(chain.quotients) == 28
        assert all(q == 1 for q in chain.quotients)
        assert chain.terminal == 2


class TestBaseTriple:
    def test_order_four(self):
        t = base_triple(4)
        assert (t.left, t.center, t.right) == (_f("0/1"), _f("1/4"), _f("1/3"))

    def test_order_two_right_endpoint(self):
        t = base_triple(2)
        assert (t.left, t.center, t.right) == (_f("0/1"), _f("1/2"), _f("1/1"))

    def test_order_thirty_nine(self):
        t = base_triple(39)
        assert (t.left, t.center, t.right) == (_f("0/1"), _f("1/39"), _f("1/38"))

    def test_rejects_below_two(self):
        with pytest.raises(DomainError):
            base_triple(1)


class TestLiftStep:
    def test_quotient_one(self):
        lifted = lift_step(base_triple(4), 1)
        assert (lifted.left, lifted.center, lifted.right) == (
            _f("3/4"),
            _f("4/5"),
            _f("1/1"),
        )
        assert lifted.order == 5

    def test_quotient_seven_from_base(self):
        lifted = lift_step(base_triple(4), 7)
        assert (lifted.left, lifted.center, lifted.right) == (
            _f("3/22"),
            _f("4/29"),
            _f("1/7"),
        )
        assert lifted.order == 29

    def test_quotient_seven_from_composite(self):
        start = FareyTriple(_f("3/4"), _f("4/5"), _f("1/1"), 5)
        lifted = lift_step(start, 7)
        assert (lifted.left, lifted.center, lifted.right) == (
            _f("1/8"),
            _f("5/39"),
            _f("4/31"),
        )
        assert lifted.order == 39

    def test_rejects_zero_quotient(self):
        with pytest.raises(DomainError):
            lift_step(base_triple(4), 0)

    @given(farey_triples(), st.integers(min_value=1, max_value=10**6))
    def test_preserves_validity_and_reverses(self, t, q):
        lifted = lift_step(t, q)
        # Construction already revalidates invariants; check the geometry.
        assert cross_det(lifted.left, lifted.center) == 1
        assert cross_det(lifted.center, lifted.right) == 1
        assert lifted.order == q * t.center.den + t.center.num
        assert lifted.left.num == t.right.den
        assert lifted.right.num == t.left.den

    @given(farey_triples(), st.integers(min_value=1, max_value=10**6))
    def test_lifted_center_chain_starts_with_quotient(self, t, q):
        # Reducing the lifted center peels off exactly the quotient applied,
        # then continues with the original center's chain.
        lifted = lift_step(t, q)
        inner = reduction_chain(t.center)
        outer = reduction_chain(lifted.center)
        assert outer.quotients == (q,) + inner.quotients
        assert outer.terminal == inner.terminal


class TestLiftChain:
    def test_five_thirty_ninths(self):
        t = lift_chain(reduction_chain(_f("5/39")))
        assert (t.left, t.center, t.right) == (_f("1/8"), _f("5/39"), _f("4/31"))
        assert t.order == 39

    def test_nine_twenty_fifths_odd_parity(self):
        t = lift_chain(reduction_chain(_f("9/25")))
        assert (t.left, t.center, t.right) == (_f("5/14"), _f("9/25"), _f("4/11"))

    def test_empty_chain_returns_base(self):
        t = lift_chain(reduction_chain(_f("1/7")))
        assert (t.left, t.center, t.right) == (_f("0/1"), _f("1/7"), _f("1/6"))


class TestTriple:
    def test_worked_composite_example(self):
        t = triple(5, 39)
        assert (t.left, t.center, t.right) == (_f("1/8"), _f("5/39"), _f("4/31"))

    def test_worked_odd_parity_example(self):
        t = triple(9, 25)
        assert (t.left, t.center, t.right) == (_f("5/14"), _f("9/25"), _f("4/11"))

    def test_against_oracle_spot(self):
        t = triple(7, 17)
        s = triple_by_scan(7, 17)
        assert (t.left, t.center, t.right) == (s.left, s.center, s.right)

    def test_rejects_reducible(self):
        with pytest.raises(DomainError, match="2/4 not irreducible"):
            triple(2, 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            triple(0, 5)
        with pytest.raises(DomainError):
            triple(5, 5)
        with pytest.raises(DomainError):
            triple(1, 1)

    def test_oracle_agreement_sweep(self):
        assert sweep().complaints("triple-chain") == []

    def test_inverse_oracle_agreement_sweep(self):
        assert sweep().complaints("triple-inverse") == []

    def test_swapped_lift_is_caught_at_the_boundary(self, monkeypatch):
        # The int kernel is unchecked; the one FareyTriple built from its
        # output must still reject a wrong answer.
        real = triples._lift

        def swapped(quotients, terminal):
            a, b, c, d = real(quotients, terminal)
            return c, d, a, b

        monkeypatch.setattr(triples, "_lift", swapped)
        with pytest.raises(DomainError):
            triples._chain_triple(5, 39)
        with pytest.raises(DomainError):
            lift_chain(reduction_chain(_f("9/25")))

    def test_wrong_sign_inverse_is_caught_at_the_boundary(self, monkeypatch):
        # d = n^(-1) mod N instead of N - n^(-1) swaps the two neighbors;
        # the FareyTriple check must reject the answer, not return it.
        def wrong_sign(a, b):
            d = pow(a, -1, b)
            return (1 + a * d) // b, d

        monkeypatch.setattr(triples, "_base_successor", wrong_sign)
        for n, order in ((5, 39), (9, 25), (2, 3)):
            with pytest.raises(DomainError):
                triple(n, order)

    @given(coprime_pairs(max_order=10**40))
    def test_inverse_matches_chain_and_cf(self, pair):
        n, order = pair
        t = triple(n, order)
        assert t == triples._chain_triple(n, order) == triple_via_cf(Fraction(n, order))

    @given(coprime_pairs(max_order=10**6))
    def test_center_and_shape_at_scale(self, pair):
        n, order = pair
        t = triple(n, order)
        assert t.center == Fraction(n, order)
        assert t.order == order
        assert t.left < t.center < t.right
