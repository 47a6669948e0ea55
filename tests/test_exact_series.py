import ast
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reglab.integer_kernel as integer_kernel
from reglab.exact_series import a_coeffs, b_coeffs, formal_alpha
from reglab.integer_kernel import chi3
from reglab.weierstrass import Polynomial
from series_reference import (
    ConstantTermNotOne,
    TruncatedQSeries,
    ZeroConstantTerm,
    eisenstein,
    series,
    series_inverse,
    series_mul,
    series_pow_rational,
)

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
        assert eisenstein("E3a", 5) == ser(0, [1, -9, 27, -9, -117], 5)

    def test_e3b_head(self):
        assert eisenstein("E3b", 5) == ser(1, [1, 3, 9, 13], 5)

    def test_e3b_leading_term(self):
        assert eisenstein("E3b", 2).coefficient(1) == 1

    def test_prime_coefficients_of_e3b(self):
        # multiplicativity: coefficient at a prime p is chi3(p) + p^2
        e3b = eisenstein("E3b", 100)
        primes = [p for p in range(2, 100) if all(p % d for d in range(2, p))]
        for p in primes:
            assert e3b.coefficient(p) == chi3(p) + p * p

    def test_product_head(self):
        e3a = eisenstein("E3a", 3)
        e3b = eisenstein("E3b", 3)
        assert series_mul(e3a, e3b) == ser(1, [1, -6], 3)

    def test_denominator_inverse_head(self):
        e3a = eisenstein("E3a", 2)
        e3b = eisenstein("E3b", 2)
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
        lhs = eisenstein("E3a", N) + 27 * eisenstein("E3b", N)
        assert lhs == series_mul(series_mul(a, a), a)

    def test_integer_coefficients(self):
        for kind in ("E3a", "E3b"):
            f = eisenstein(kind, 40)
            assert all(c.denominator == 1 for c in f.coefficients)


class TestCoefficientFamilies:
    def test_a_series_low_terms_formal(self):
        a = series(a_coeffs(formal_alpha(), 4))
        assert a.valuation == 1
        assert a.coefficient(1) == 1
        assert a.coefficient(2) == Polynomial([3, -27])
        assert a.coefficient(3) == Polynomial([9, F(-81, 2), F(729, 2)])

    def test_b_series_low_terms_formal(self):
        b = series(b_coeffs(formal_alpha(), 3))
        assert b.valuation == 0
        assert b.coefficient(0) == 1
        assert b.coefficient(1) == Polynomial([-9, -15])
        assert b.coefficient(2) == Polynomial([27, F(387, 2), F(225, 2)])

    def test_a_at_zero_is_e3b(self):
        assert series(a_coeffs(0, 12)) == eisenstein("E3b", 12)

    def test_b_at_zero_is_e3a(self):
        assert series(b_coeffs(0, 12)) == eisenstein("E3a", 12)

    @given(st.sampled_from([(5, j) for j in range(1, 5)] + [(7, j) for j in range(1, 7)]),
           st.integers(min_value=4, max_value=24))
    @settings(max_examples=25, deadline=None)
    def test_formal_specialization_commutes(self, lj, N):
        l, j = lj
        alpha = F(j, l)
        assert series(a_coeffs(formal_alpha(), N)).specialize(alpha) == series(a_coeffs(alpha, N))
        assert series(b_coeffs(formal_alpha(), N)).specialize(alpha) == series(b_coeffs(alpha, N))

    def test_formal_specialization_deep(self):
        alpha = F(3, 7)
        assert series(a_coeffs(formal_alpha(), 64)).specialize(alpha) == series(a_coeffs(alpha, 64))

    def test_formal_degree_bound(self):
        a = series(a_coeffs(formal_alpha(), 10))
        for n in range(1, 10):
            c = a.coefficient(n)
            if isinstance(c, Polynomial):
                assert c.degree <= n - 1

    def test_lowest_terms(self):
        a = series(a_coeffs(F(2, 5), 20))
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


@lru_cache(maxsize=None)
def _generic_bases(N):
    """(factor, power base) of the a- and b-series over Fractions at order N."""
    e3a = eisenstein("E3a", N + 1)
    e3b = eisenstein("E3b", N + 1)
    inv = series_inverse(e3a + 27 * e3b)
    return {"a": (e3b.truncate(N), series_mul(e3a, inv).truncate(N)),
            "b": (e3a.truncate(N), series_mul(e3b.shift(-1), inv))}


def _generic_a(alpha, N):
    factor, base = _generic_bases(N)["a"]
    return series_mul(factor, series_pow_rational(base, alpha))


def _generic_b(alpha, N):
    factor, base = _generic_bases(N)["b"]
    return series_mul(factor, series_pow_rational(base, alpha))


def _least_scale(den, n):
    """den^n prod_{p | den} p^(v_p(n!)), with v_p(n!) counted factor by factor."""
    scale = den ** n
    for p in (p for p in range(2, den + 1) if den % p == 0 and all(p % d for d in range(2, p))):
        for i in range(1, n + 1):
            while i % p == 0:
                i //= p
                scale *= p
    return scale


@st.composite
def admissible_lj(draw):
    l = draw(st.sampled_from([l for l in range(5, 26) if l % 2 and l % 3]))
    return l, draw(st.integers(min_value=1, max_value=l - 1))


@st.composite
def kernel_inputs(draw):
    """A j/l from admissible_lj with N <= 60, or the formal alpha with N <= 10."""
    if draw(st.booleans()):
        return formal_alpha(), draw(st.integers(min_value=2, max_value=10))
    l, j = draw(admissible_lj())
    return F(j, l), draw(st.integers(min_value=2, max_value=60))


class TestIntegerKernel:
    """a_coeffs/b_coeffs, one recurrence for rational and formal alpha, against
    the generic Fraction composition."""

    @given(kernel_inputs())
    @example((formal_alpha(), 10))
    @example((F(1, 25), 60))  # g(25) = g(50) = 25 in the Horner multiplier
    @example((F(1, 35), 60))  # two primes, and g(49) = 49
    @settings(max_examples=25, deadline=None)
    def test_matches_generic_composition(self, inputs):
        alpha, N = inputs
        assert series(a_coeffs(alpha, N)) == _generic_a(alpha, N)
        assert series(b_coeffs(alpha, N)) == _generic_b(alpha, N)

    @pytest.mark.parametrize("l", [l for l in range(5, 50) if l % 2 and l % 3])
    def test_den_2n_y_n_is_an_integer(self, l):
        # _ScaledPower's integrality proof, checked on the composition, which does
        # not use it: the least scale l^n prod_{p | l} p^(v_p(n!)) times y_n is an
        # integer for y_n = a_(n+1) and y_n = b_n, and the scale divides l^(2n);
        # at l = 25, 35 and 49, a p | l divides n! for some n < 40
        N = 40
        scales = [_least_scale(l, n) for n in range(N)]
        assert all(l ** (2 * n) % s == 0 for n, s in enumerate(scales))
        assert scales == [integer_kernel._ScaledPower(1, l, "a", None).scale(n) for n in range(N)]
        for j in range(1, l):
            if math.gcd(j, l) > 1:
                continue
            a, b = _generic_a(F(j, l), N), _generic_b(F(j, l), N)
            for y in ([a.coefficient(n + 1) for n in range(N - 1)],
                      [b.coefficient(n) for n in range(N)]):
                assert all((c * s).denominator == 1 for c, s in zip(y, scales))

    def test_extension_matches_fresh_build(self, monkeypatch):
        # on a fresh store: the lists grow 20 -> 60 -> 90, with a shorter
        # request after a longer one
        monkeypatch.setattr(integer_kernel, "_STORE", integer_kernel._Store())
        alpha = F(4, 17)
        for N in (20, 12, 60, 90):
            a, b = series(a_coeffs(alpha, N)), series(b_coeffs(alpha, N))
            assert a == _generic_a(alpha, N) and a.valuation == 1
            assert b == _generic_b(alpha, N) and b.valuation == 0
            assert a.truncation_order == b.truncation_order == N

    def test_integer_alpha(self):
        assert series(b_coeffs(-2, 15)) == _generic_b(F(-2), 15)

    def test_shared_C_and_per_kind_A_B(self):
        # the reference over Fractions: u = E3a, v = E3b/q, D = E3a + 27 E3b,
        # W = v theta u - u theta v, and the lists as _IntegerBases defines them
        N = 90
        theta = lambda s: TruncatedQSeries(
            0, [n * s.coefficient(n) for n in range(s.truncation_order)], s.truncation_order)
        e3b = eisenstein("E3b", N + 1)
        u, v = eisenstein("E3a", N), e3b.shift(-1)
        D = u + 27 * e3b.truncate(N)
        W = series_mul(v, theta(u)) - series_mul(u, theta(v))
        C_ref = series_mul(series_mul(u, v), D)
        ref = {"a": (series_mul(series_mul(D, u), theta(v)),
                     27 * series_mul(v, W - series_mul(u, v)).shift(1).truncate(N)),
               "b": (series_mul(series_mul(D, v), theta(u)),
                     -series_mul(u, W + 27 * series_mul(v, v).shift(1).truncate(N)))}
        # the identity they come from: C theta e~ = A e~ and C theta f = B f,
        # so C theta y = (A + alpha B) y for y = e~ f**alpha
        inv = series_inverse(D)
        tilde_and_base = {"a": (v, series_mul(u, inv)), "b": (u, series_mul(v, inv))}
        bases = integer_kernel._IntegerBases()
        for n in (20, 60, 90):  # the lists grow
            kinds = bases.extend(n).kinds
            assert kinds["a"][0] is kinds["b"][0]
            for kind in ("a", "b"):
                C, A, B = kinds[kind]
                assert C == [C_ref.coefficient(k) for k in range(n)]
                assert A == [ref[kind][0].coefficient(k) for k in range(n)]
                assert B == [ref[kind][1].coefficient(k) for k in range(n)]
                Cs, As, Bs = (TruncatedQSeries(0, x, n) for x in (C, A, B))
                e, f = (s.truncate(n) for s in tilde_and_base[kind])
                assert series_mul(Cs, theta(e)) == series_mul(As, e)
                assert series_mul(Cs, theta(f)) == series_mul(Bs, f)

    def test_list_entries_fit_in_64_bits(self):
        # the speed of _ScaledPower.scaled rests on this: each Horner step
        # multiplies a big Y_m by a small list entry
        bases = integer_kernel._IntegerBases().extend(400)
        for kind in ("a", "b"):
            assert all(abs(x) < 2 ** 64 for x in (e for lst in bases.kinds[kind] for e in lst))

    def test_scaled_rejects_negative_N(self):
        # Y[:N] would silently drop the last -N entries
        power = integer_kernel._ScaledPower(1, 5, "a", integer_kernel._IntegerBases())
        assert len(power.scaled(5)) == 5 and power.scaled(0) == []
        with pytest.raises(ValueError):
            power.scaled(-1)


def test_reference_is_independent_of_the_kernel():
    # series_reference is the Fraction composition the kernel's integers are
    # checked against, so it must not reach the kernel or read its results
    tree = ast.parse((Path(__file__).parent / "series_reference.py").read_text())
    forbidden = {"scaled_power", "_ScaledPower", "_IntegerBases", "reglab.exact_series",
                 "exact_series"}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used.add(node.module)
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert "reglab.integer_kernel" in used  # the walk sees the imports
    assert not used & forbidden
