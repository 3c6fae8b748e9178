"""Tests for triple construction: adjacency, reduction chains, lifting."""

import traceback

import pytest
from hypothesis import given
from hypothesis import strategies as st

from farey import (
    DomainError,
    FareyTriple,
    Fraction,
    ReductionChain,
    base_triple,
    cf_evaluate,
    cf_of_chain,
    cross_det,
    left_neighbor,
    lift_chain,
    lift_step,
    mediant,
    reduction_chain,
    right_neighbor,
    triple,
    triple_by_scan,
    triple_via_cf,
)
from farey import cli, fraction, triples
from farey.oracle import iterate_farey
from helpers import are_adjacent, sweep
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

    def test_accepts_what_the_five_earlier_checks_accept(self):
        # The reference adds order >= 1 and a center numerator >= 1 to the
        # constructor's checks; for Fraction fields the center denominator
        # and the two determinants imply both.  Every triple of terms of
        # F_8, at every order from -1 to 9, gets the same verdict from both.
        def five_checks(left, center, right, order):
            return (
                order >= 1
                and center.den == order
                and center.num >= 1
                and center.num * left.den - left.num * order == 1
                and right.num * order - center.num * right.den == 1
                and left.den < order
                and right.den < order
            )

        terms = list(iterate_farey(8))
        for order in range(-1, 10):
            for left in terms:
                for center in terms:
                    for right in terms:
                        try:
                            FareyTriple(left, center, right, order)
                            accepted = True
                        except DomainError:
                            accepted = False
                        assert accepted == five_checks(left, center, right, order)

    @given(farey_triples())
    def test_sum_identities_follow(self, t):
        # Consequences of the checked invariants, not separately enforced.
        assert mediant(t.left, t.right) == t.center
        assert t.left.num + t.right.num == t.center.num
        assert t.left.den + t.right.den == t.order


@st.composite
def _chain_candidates(draw):
    """(start, quotients, terminal): an interior term of F_N, at N up to 60
    and near 10^12 and 10^100, with its own chain or one edited by a
    quotient +-1, the terminal +-1, or a quotient appended or dropped."""
    top = draw(st.sampled_from([60, 10**12, 10**100]))
    order = draw(st.integers(2 if top == 60 else top // 10, top))
    den = draw(st.integers(2, order))
    start = Fraction(draw(st.integers(1, den - 1)), den)
    chain = reduction_chain(start)
    quotients, terminal = list(chain.quotients), chain.terminal
    edit = draw(st.sampled_from(["none", "quotient", "terminal", "append", "drop"]))
    delta = draw(st.sampled_from([-1, 1]))
    if edit == "terminal":
        terminal += delta
    elif edit == "append":
        quotients.append(draw(st.integers(1, 9)))
    elif quotients and edit == "quotient":
        quotients[draw(st.integers(0, len(quotients) - 1))] += delta
    elif quotients and edit == "drop":
        del quotients[draw(st.integers(0, len(quotients) - 1))]
    return start, tuple(quotients), terminal


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

    def test_type_rejects_a_chain_of_another_start(self):
        # (7,) ending at 4 is the chain of 4/29, not of 5/39.
        with pytest.raises(DomainError, match="^quotients ending at terminal 4 .* of 5/39$"):
            ReductionChain((7,), 4, _f("5/39"))
        assert reduction_chain(_f("4/29")) == ReductionChain((7,), 4, _f("4/29"))

    @given(_chain_candidates())
    def test_type_accepts_exactly_the_reduction_chain(self, case):
        start, quotients, terminal = case
        chain = reduction_chain(start)
        if (quotients, terminal) != (chain.quotients, chain.terminal):
            with pytest.raises(DomainError):
                ReductionChain(quotients, terminal, start)
            return
        built = ReductionChain(list(quotients), terminal, start)
        assert built == chain
        assert lift_chain(built).center == built.start
        assert cf_evaluate(cf_of_chain(built)) == built.start

    def test_reduction_chain_runs_euclid_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(triples, "_chain_of", lambda x: calls.append(x) or fraction._chain_of(x))
        assert reduction_chain(_f("5/39")).quotients == (7, 1)
        assert calls == [_f("5/39")]

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


@st.composite
def _reducible_pairs(draw, max_order: int = 10**40):
    """(g*a, g*b) with g >= 2 and 1 <= a < b, so 1 <= n < order <= max_order."""
    b = draw(st.integers(min_value=2, max_value=max_order // 2))
    g = draw(st.integers(min_value=2, max_value=max_order // b))
    a = draw(st.integers(min_value=1, max_value=b - 1))
    return g * a, g * b


class TestIrreducibility:
    """Every route refuses a reducible center with one message, each from its
    own arithmetic: ``triple`` from its modular inverse, the chain and cf
    routes from Euclid's remainder reaching 0, and the oracle from the
    denominator of the first term its walk finds at or past the center."""

    ROUTES = ("inverse", "chain", "cf")
    RANGE_CASES = [
        (0, 6, "numerator must satisfy 1 <= n < 6, got 0"),
        (6, 6, "numerator must satisfy 1 <= n < 6, got 6"),
        (1, 1, "order must be >= 2, got 1"),
        (0, 1, "order must be >= 2, got 1"),
    ]

    @given(_reducible_pairs())
    def test_every_route_names_a_reducible_center(self, pair):
        n, order = pair
        for method in self.ROUTES:
            with pytest.raises(DomainError) as err:
                cli._triple_by_method(n, order, method, None)
            assert str(err.value) == f"{n}/{order} not irreducible"

    @given(_reducible_pairs(max_order=300))
    def test_the_oracle_names_a_reducible_center(self, pair):
        n, order = pair
        with pytest.raises(DomainError) as err:
            cli._triple_by_method(n, order, "oracle", None)
        assert str(err.value) == f"{n}/{order} not irreducible"

    @pytest.mark.parametrize("n, order, message", RANGE_CASES)
    def test_out_of_range_gets_the_range_message(self, n, order, message):
        for method in self.ROUTES:
            with pytest.raises(DomainError) as err:
                cli._triple_by_method(n, order, method, None)
            assert str(err.value) == message

    @pytest.mark.parametrize("n, order, message", RANGE_CASES)
    def test_the_oracle_gets_the_range_message(self, n, order, message):
        with pytest.raises(DomainError) as err:
            cli._triple_by_method(n, order, "oracle", None)
        assert str(err.value) == message

    def test_no_route_runs_a_gcd(self, monkeypatch):
        expected = (_f("1/8"), _f("5/39"), _f("4/31"))  # Fraction() runs a gcd
        x, chain, base = _f("9/25"), reduction_chain(_f("5/39")), triple(5, 39)
        steps = [
            lambda: right_neighbor(x, 100),
            lambda: left_neighbor(x, 100),
            lambda: lift_step(base, 2),
            lambda: base_triple(39),
            lambda: lift_chain(chain),
        ]
        want = [step() for step in steps]

        def no_gcd(a, b):
            raise AssertionError("gcd called")

        monkeypatch.setattr(triples, "gcd", no_gcd, raising=False)
        monkeypatch.setattr(fraction, "gcd", no_gcd)
        for method in ("inverse", "chain", "cf", "oracle"):
            t = cli._triple_by_method(5, 39, method, None)
            assert (t.left, t.center, t.right) == expected
            with pytest.raises(DomainError) as err:
                cli._triple_by_method(2, 4, method, None)
            assert str(err.value) == "2/4 not irreducible"
        assert [step() for step in steps] == want

    def test_ints_past_the_digit_limit_get_a_domain_error(self):
        # str() refuses an int of more than 4300 digits; the message shows
        # such an int by its sign and bit length instead.
        big = 2 * 10**5000
        cases = [
            (big, 2 * big, "an int of 16611 bits/an int of 16612 bits not irreducible"),
            (2 * big, big, "numerator must satisfy 1 <= n < an int of 16611 bits,"
                           " got an int of 16612 bits"),
            (1, -big, "order must be >= 2, got a negative int of 16611 bits"),
        ]
        for n, order, message in cases:
            for method in self.ROUTES:
                with pytest.raises(DomainError) as err:
                    cli._triple_by_method(n, order, method, None)
                assert str(err.value) == message
        with pytest.raises(DomainError) as err:
            cli._triple_by_method(big, 7, "oracle", None)
        assert str(err.value) == "numerator must satisfy 1 <= n < 7, got an int of 16611 bits"
        with pytest.raises(DomainError) as err:
            base_triple(-big)
        assert str(err.value) == "order must be >= 2, got a negative int of 16611 bits"

    def test_the_refusal_hides_the_inverse_error(self):
        with pytest.raises(DomainError) as err:
            triple(2, 4)
        shown = "".join(traceback.format_exception(err.value))
        assert "2/4 not irreducible" in shown
        assert "ValueError" not in shown
