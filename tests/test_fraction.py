"""Unit and property tests for the fraction value type."""

import fractions
import random
from decimal import Decimal, localcontext
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from farey import DomainError, Fraction, cross_det, mediant
from farey.fraction import _euclid
from strats import adjacent_pairs, unit_fractions


class TestConstruction:
    def test_reduces(self):
        f = Fraction(10, 25)
        assert (f.num, f.den) == (2, 5)

    def test_zero_normalizes(self):
        assert Fraction(0, 7) == Fraction(0, 1)

    def test_one_normalizes(self):
        assert Fraction(7, 7) == Fraction(1, 1)

    def test_already_reduced(self):
        f = Fraction(5, 39)
        assert (f.num, f.den) == (5, 39)

    def test_rejects_zero_denominator(self):
        with pytest.raises(DomainError):
            Fraction(1, 0)

    def test_rejects_negative_numerator(self):
        with pytest.raises(DomainError):
            Fraction(-1, 2)

    def test_rejects_above_one(self):
        with pytest.raises(DomainError):
            Fraction(3, 2)

    @given(unit_fractions())
    def test_always_reduced(self, f):
        assert gcd(f.num, f.den) == 1
        assert 0 <= f.num <= f.den

    @given(unit_fractions(max_den=1000), st.integers(min_value=1, max_value=1000))
    def test_scaling_is_identity(self, f, k):
        assert Fraction(k * f.num, k * f.den) == f


class TestParseAndRender:
    def test_str(self):
        assert str(Fraction(5, 39)) == "5/39"

    def test_repr(self):
        assert repr(Fraction(5, 39)) == "Fraction(5, 39)"

    def test_parse(self):
        assert Fraction.parse("5/39") == Fraction(5, 39)

    def test_parse_reduces(self):
        assert Fraction.parse("10/25") == Fraction(2, 5)

    @pytest.mark.parametrize("text", ["", "5", "5/", "/39", "a/b", "1/2/3", "1.5/2"])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(DomainError):
            Fraction.parse(text)

    def test_parse_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            Fraction.parse("3/2")

    @given(unit_fractions())
    def test_round_trip(self, f):
        assert Fraction.parse(str(f)) == f


class TestOrderingAndHash:
    def test_less(self):
        assert Fraction(1, 3) < Fraction(2, 5)

    def test_equal(self):
        assert Fraction(1, 2) == Fraction(1, 2)

    def test_greater(self):
        assert Fraction(4, 5) > Fraction(3, 4)

    def test_hash_follows_equality(self):
        assert hash(Fraction(10, 25)) == hash(Fraction(2, 5))

    def test_total_order_matches_exact_rationals(self):
        # 10^4 random pairs against the standard library's exact rationals.
        rng = random.Random("ordering-oracle")
        for _ in range(10_000):
            a = Fraction(*_random_pair(rng))
            b = Fraction(*_random_pair(rng))
            exact_a = fractions.Fraction(a.num, a.den)
            exact_b = fractions.Fraction(b.num, b.den)
            assert (a < b) == (exact_a < exact_b)
            assert (a <= b) == (exact_a <= exact_b)
            assert (a > b) == (exact_a > exact_b)
            assert (a >= b) == (exact_a >= exact_b)
            assert (a == b) == (exact_a == exact_b)

    # Small denominators, so that equal pairs are drawn too.
    @given(unit_fractions(max_den=20), unit_fractions(max_den=20))
    def test_not_equal_is_the_negation_of_equal(self, x, y):
        assert (x != y) is not (x == y)

    @pytest.mark.parametrize("other", [(1, 2), "1/2", 0], ids=repr)
    def test_never_equal_to_other_types(self, other):
        assert (Fraction(1, 2) != other) is True
        assert (Fraction(1, 2) == other) is False

    @given(unit_fractions(), unit_fractions())
    def test_cross_det_sign_is_the_order(self, x, y):
        d = cross_det(x, y)
        assert (d > 0) == (x < y)
        assert (d == 0) == (x == y)


def _random_pair(rng):
    den = rng.randrange(1, 500)
    return rng.randrange(0, den + 1), den


class TestCrossDet:
    def test_consecutive_pair(self):
        assert cross_det(Fraction(1, 2), Fraction(2, 3)) == 1

    def test_endpoints(self):
        assert cross_det(Fraction(0, 1), Fraction(1, 1)) == 1

    def test_wide_pair(self):
        assert cross_det(Fraction(1, 3), Fraction(3, 4)) == 5

    @given(unit_fractions(), unit_fractions())
    def test_antisymmetry(self, x, y):
        assert cross_det(x, y) == -cross_det(y, x)


class TestMediant:
    def test_between_thirds_and_half(self):
        assert mediant(Fraction(1, 3), Fraction(1, 2)) == Fraction(2, 5)

    def test_endpoints(self):
        assert mediant(Fraction(0, 1), Fraction(1, 1)) == Fraction(1, 2)

    def test_outer_terms_of_triple(self):
        assert mediant(Fraction(1, 8), Fraction(4, 31)) == Fraction(5, 39)

    @given(adjacent_pairs())
    def test_unimodular_mediant_needs_no_reduction(self, pair):
        x, y = pair
        m = mediant(x, y)
        assert (m.num, m.den) == (x.num + y.num, x.den + y.den)
        assert cross_det(x, m) == 1
        assert cross_det(m, y) == 1

    @given(unit_fractions(), unit_fractions())
    def test_mediant_sits_between(self, x, y):
        lo, hi = (x, y) if x <= y else (y, x)
        m = mediant(lo, hi)
        assert lo <= m <= hi


class TestComplement:
    def test_value(self):
        assert Fraction(9, 25).complement() == Fraction(16, 25)

    def test_endpoints(self):
        assert Fraction(0, 1).complement() == Fraction(1, 1)
        assert Fraction(1, 1).complement() == Fraction(0, 1)

    @given(unit_fractions())
    def test_involution(self, f):
        assert f.complement().complement() == f


class TestChainLengthLaw:
    # Porter's theorem (Knuth, TAOCP vol. 2, 4.5.3): over 1 <= n < p,
    # Euclid's algorithm on p and n averages (12 ln 2/pi^2) ln p + C_P - 1
    # divisions, up to O(p^(-1/6+eps)).  _euclid stops at numerator 1, one
    # division before remainder 0, so its mean length is one less.
    PI = Decimal("3.14159265358979323846264338328")
    PORTER = Decimal("1.4670780794")

    @pytest.mark.parametrize("p", [10_007, 100_003])
    def test_mean_chain_length_at_a_prime(self, p):
        total = sum(len(_euclid(n, p)[0]) for n in range(1, p))
        with localcontext() as ctx:
            ctx.prec = 28
            law = 12 * Decimal(2).ln() / self.PI**2 * Decimal(p).ln() + self.PORTER - 2
            assert abs(Decimal(total) / (p - 1) - law) < Decimal("0.005")
