import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reglab.errors import ConstantTermNotOne, ZeroConstantTerm
from reglab.exact_series import (
    ExponentParam,
    TruncatedQSeries,
    a_coeffs,
    b_coeffs,
    chi3,
    eisenstein_q_expansion,
    formal_alpha,
    series_inverse,
    series_mul,
    series_pow_rational,
)
from reglab.weierstrass import Polynomial

F = Fraction


def ser(valuation, coeffs, order):
    return TruncatedQSeries(valuation, [F(c) for c in coeffs], order)


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def unit_series(draw, max_order=10):
    order = draw(st.integers(min_value=2, max_value=max_order))
    tail = draw(st.lists(rationals, min_size=order - 1, max_size=order - 1))
    return TruncatedQSeries(0, [F(1)] + tail, order)


class TestSeriesBasics:
    def test_mul_identity(self):
        f = ser(1, [1, 3], 3)
        one = TruncatedQSeries.one(3)
        assert series_mul(f, one).coefficients == (F(1), F(3))

    def test_mul_difference_of_squares(self):
        f = ser(0, [1, -9, 0], 3)
        g = ser(0, [1, 9, 0], 3)
        assert series_mul(f, g) == ser(0, [1, 0, -81], 3)

    def test_mul_valuations_add(self):
        f = ser(1, [1, 2], 3)
        g = ser(2, [5], 3)
        prod = series_mul(f, g)
        assert prod.valuation == 3
        assert prod.coefficient(3) == 5

    def test_inverse_of_one(self):
        one = TruncatedQSeries.one(5)
        assert series_inverse(one) == one

    def test_inverse_geometric(self):
        f = ser(0, [1, -1, 0, 0], 4)
        assert series_inverse(f) == ser(0, [1, 1, 1, 1], 4)

    def test_inverse_roundtrip(self):
        f = ser(0, [2, 5, -3, F(1, 7)], 4)
        assert series_mul(f, series_inverse(f)) == TruncatedQSeries.one(4)

    def test_inverse_rejects_zero_constant(self):
        with pytest.raises(ZeroConstantTerm):
            series_inverse(ser(1, [1, 1], 3))

    def test_pow_zero(self):
        f = ser(0, [1, 1], 2)
        assert series_pow_rational(f, 0) == TruncatedQSeries.one(2)

    def test_pow_binomial_half(self):
        f = ser(0, [1, 1, 0], 3)
        assert series_pow_rational(f, F(1, 2)) == ser(0, [1, F(1, 2), F(-1, 8)], 3)

    def test_pow_rejects_nonunit(self):
        with pytest.raises(ConstantTermNotOne):
            series_pow_rational(ser(0, [2, 1], 2), F(1, 2))
        with pytest.raises(ConstantTermNotOne):
            series_pow_rational(ser(1, [1], 2), F(1, 2))

    @given(unit_series(), rationals, rationals)
    @settings(max_examples=60, deadline=None)
    def test_pow_exponent_additivity(self, f, r, s):
        lhs = series_mul(series_pow_rational(f, r), series_pow_rational(f, s))
        assert lhs == series_pow_rational(f, r + s)

    @given(unit_series(max_order=8))
    @settings(max_examples=40, deadline=None)
    def test_pow_minus_one_matches_inverse(self, f):
        assert series_pow_rational(f, -1) == series_inverse(f)


class TestEisenstein:
    def test_chi3_periodic(self):
        assert [chi3(n) for n in range(7)] == [0, 1, -1, 0, 1, -1, 0]

    def test_e3a_head(self):
        assert eisenstein_q_expansion("E3a", 5) == ser(0, [1, -9, 27, -9, -117], 5)

    def test_e3b_head(self):
        assert eisenstein_q_expansion("E3b", 5) == ser(1, [1, 3, 9, 13], 5)

    def test_e3b_leading_term(self):
        assert eisenstein_q_expansion("E3b", 2).coefficient(1) == 1

    def test_prime_coefficients_of_e3b(self):
        # multiplicativity: coefficient at a prime p is chi3(p) + p^2
        e3b = eisenstein_q_expansion("E3b", 100)
        primes = [p for p in range(2, 100) if all(p % d for d in range(2, p))]
        for p in primes:
            assert e3b.coefficient(p) == chi3(p) + p * p

    def test_product_head(self):
        e3a = eisenstein_q_expansion("E3a", 3)
        e3b = eisenstein_q_expansion("E3b", 3)
        assert series_mul(e3a, e3b) == ser(1, [1, -6], 3)

    def test_denominator_inverse_head(self):
        e3a = eisenstein_q_expansion("E3a", 2)
        e3b = eisenstein_q_expansion("E3b", 2)
        assert series_inverse(e3a + 27 * e3b) == ser(0, [1, -18], 2)

    def test_cubic_theta_identity(self):
        # E3a + 27 E3b = a(q)^3 with the Borweins' a(q) = sum over m, n of q^(m^2 + mn + n^2)
        N = 200
        r = math.isqrt(N) + 1
        theta = [0] * N
        for m in range(-2 * r, 2 * r + 1):
            for n in range(-2 * r, 2 * r + 1):
                if m * m + m * n + n * n < N:
                    theta[m * m + m * n + n * n] += 1
        a = ser(0, theta, N)
        lhs = eisenstein_q_expansion("E3a", N) + 27 * eisenstein_q_expansion("E3b", N)
        assert lhs == series_mul(series_mul(a, a), a)

    def test_integer_coefficients(self):
        for kind in ("E3a", "E3b"):
            f = eisenstein_q_expansion(kind, 40)
            assert all(c.denominator == 1 for c in f.coefficients)


class TestCoefficientFamilies:
    def test_a_series_low_terms_formal(self):
        a = a_coeffs(formal_alpha(), 4)
        assert a.valuation == 1
        assert a.coefficient(1) == 1
        assert a.coefficient(2) == Polynomial([3, -27])
        assert a.coefficient(3) == Polynomial([9, F(-81, 2), F(729, 2)])

    def test_b_series_low_terms_formal(self):
        b = b_coeffs(formal_alpha(), 3)
        assert b.valuation == 0
        assert b.coefficient(0) == 1
        assert b.coefficient(1) == Polynomial([-9, -15])
        assert b.coefficient(2) == Polynomial([27, F(387, 2), F(225, 2)])

    def test_a_at_zero_is_e3b(self):
        assert a_coeffs(0, 12) == eisenstein_q_expansion("E3b", 12)

    def test_b_at_zero_is_e3a(self):
        assert b_coeffs(0, 12) == eisenstein_q_expansion("E3a", 12)

    def test_exponent_param_validation(self):
        assert ExponentParam.from_lj(5, 2).value == F(2, 5)
        with pytest.raises(ValueError):
            ExponentParam(F(7, 5))
        with pytest.raises(ValueError):
            ExponentParam.from_lj(5, 5)

    @given(st.sampled_from([(5, j) for j in range(1, 5)] + [(7, j) for j in range(1, 7)]),
           st.integers(min_value=4, max_value=24))
    @settings(max_examples=25, deadline=None)
    def test_formal_specialization_commutes(self, lj, N):
        l, j = lj
        alpha = F(j, l)
        assert a_coeffs(formal_alpha(), N).specialize(alpha) == a_coeffs(alpha, N)
        assert b_coeffs(formal_alpha(), N).specialize(alpha) == b_coeffs(alpha, N)

    def test_formal_specialization_deep(self):
        alpha = F(3, 7)
        assert a_coeffs(formal_alpha(), 64).specialize(alpha) == a_coeffs(alpha, 64)

    def test_formal_degree_bound(self):
        a = a_coeffs(formal_alpha(), 10)
        for n in range(1, 10):
            c = a.coefficient(n)
            if isinstance(c, Polynomial):
                assert c.degree <= n - 1

    def test_lowest_terms(self):
        a = a_coeffs(F(2, 5), 20)
        for c in a.coefficients:
            assert c == F(c.numerator, c.denominator)
            assert c.denominator > 0


class TestFormalAlpha:
    def test_trim_and_degree(self):
        p = Polynomial([1, 2, 0, 0])
        assert p.degree == 1

    def test_eval(self):
        p = Polynomial([9, F(-81, 2), F(729, 2)])
        assert p(F(1, 5)) == 9 - F(81, 10) + F(729, 50)

    def test_arithmetic(self):
        a = formal_alpha()
        assert (3 - 27 * a) == Polynomial([3, -27])
        assert a * a == Polynomial([0, 0, 1])
        assert (a + 1) - a == 1

    def test_constant_hashes_like_its_value(self):
        # a constant compares equal to its value, so sets and series hashes must agree
        assert hash(Polynomial([5])) == hash(F(5))
        assert hash(Polynomial([])) == hash(0)
        assert len({Polynomial([5]), F(5)}) == 1
        assert hash(ser(0, [5], 1)) == hash(TruncatedQSeries(0, [Polynomial([5])], 1))


def _generic_a(alpha, N):
    e3a = eisenstein_q_expansion("E3a", N)
    e3b = eisenstein_q_expansion("E3b", N)
    base = series_mul(e3a, series_inverse(e3a + 27 * e3b))
    return series_mul(e3b, series_pow_rational(base, alpha))


def _generic_b(alpha, N):
    e3a = eisenstein_q_expansion("E3a", N + 1)
    e3b = eisenstein_q_expansion("E3b", N + 1)
    base = series_mul(e3b.shift(-1), series_inverse(e3a + 27 * e3b))
    return series_mul(e3a.truncate(N), series_pow_rational(base.truncate(N), alpha))


@st.composite
def admissible_lj(draw):
    l = draw(st.sampled_from([l for l in range(5, 26) if l % 2 and l % 3]))
    return l, draw(st.integers(min_value=1, max_value=l - 1))


class TestIntegerKernel:
    """a_coeffs/b_coeffs at rational alpha against the generic Fraction composition."""

    @given(admissible_lj(), st.integers(min_value=2, max_value=60))
    @settings(max_examples=25, deadline=None)
    def test_matches_generic_composition(self, lj, N):
        alpha = F(lj[1], lj[0])
        assert a_coeffs(alpha, N) == _generic_a(alpha, N)
        assert b_coeffs(alpha, N) == _generic_b(alpha, N)

    def test_extension_matches_fresh_build(self):
        # a shorter request after a longer one, then a longer one again
        alpha = F(4, 17)
        for N in (30, 12, 47):
            a, b = a_coeffs(alpha, N), b_coeffs(alpha, N)
            assert a == _generic_a(alpha, N) and a.valuation == 1
            assert b == _generic_b(alpha, N) and b.valuation == 0
            assert a.truncation_order == b.truncation_order == N

    def test_integer_and_exponent_param_alpha(self):
        assert a_coeffs(ExponentParam(F(2, 7)), 20) == _generic_a(F(2, 7), 20)
        assert b_coeffs(-2, 15) == _generic_b(F(-2), 15)
