import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpf_reference import as_mpf, from_mpf

import reglab.hypergeometric as hypergeometric
from reglab.bigreal import GUARD, agreement_digits, digits_of_bits, exp, fixed_constants
from reglab.bigreal_periods import eval_IJ
from reglab.errors import UnsupportedL
from reglab.hypergeometric import period_table

ADMISSIBLE_L = [l for l in range(5, 26) if math.gcd(l, 6) == 1]
ADMISSIBLE_L_49 = [l for l in range(5, 50) if math.gcd(l, 6) == 1]
SERIES_ROUTE_CASES = [pytest.param(l, j, 340, "1e-100", id=f"{l}-{j}")
                      for l, j in ((5, 1), (7, 3), (11, 4), (13, 12))]
SERIES_ROUTE_CASES += [pytest.param(5, j, 1000, "1e-300", id=f"5-{j}-1000bits") for j in (1, 4)]
# j/l reduces to den 125, 25, 5, 125 at l = 125, to 7 and 49 at l = 49, and to 35, 7 and 5 at l = 35
DEN_CELLS = [pytest.param(l, js, p, id=f"{l}-{p}bits")
             for l, js, p in ((125, (1, 5, 25, 124), 128), (49, (7, 48), 128),
                              (35, (1, 5, 7), 128), (125, (1, 25), 340),
                              (499, (1, 498), 128))]


def rel(a, b):
    return abs(a - b) / abs(b)


def _reference(l, j, p):
    """(I(j), J(j)) as mpfs from the closed forms in mpmath, at p + 32 bits with N = p + 8 terms.

    I from Gamma values.  J's upper piece is the O(N^2) double sum
    sum_m beta_m S_m over n + m < N, with S_m = sum_n c_n (k_n + ln 2 +
    1/(n+m+1)) w_(n+m) built from int_0^(1/2) v^M (k - ln v) dv term by term:
    an algorithm independent of the moment recurrences of period_table.
    """
    N = p + 8
    with mp.workprec(p + 32):
        third = mp.mpf(1) / 3
        c, k = [mp.mpf(1)], [3 * mp.ln(3)]
        for n in range(N - 1):
            c.append(c[n] * (n + third) * (n + 1 - third) / (n + 1) ** 2)
            k.append(k[n] + mp.mpf(2) / (n + 1) - 1 / (n + third) - 1 / (n + 1 - third))
        w = [mp.ldexp(mp.mpf(1) / (M + 1), -(M + 1)) for M in range(N)]
        ln2 = mp.ln(2)
        ck = [cn * (kn + ln2) for cn, kn in zip(c, k)]
        w1 = [wM / (M + 1) for M, wM in enumerate(w)]
        S = [mp.fdot(ck[:N - m], w[m:]) + mp.fdot(c[:N - m], w1[m:]) for m in range(N)]
        a = mp.mpf(j) / l
        I = mp.gamma(a) ** 2 / (27 * mp.gamma(a + third) * mp.gamma(a + 1 - third))
        lower = mp.power(2, -a) * mp.fdot([mp.ldexp(cn, -n) for n, cn in enumerate(c)],
                                          [1 / (n + a) for n in range(N)])
        beta = [mp.mpf(1)]
        for m in range(N - 1):
            beta.append(beta[m] * (m + 1 - a) / (m + 1))
        J = 2 * mp.pi / (27 * mp.sqrt(3)) * lower + mp.fdot(beta, S) / 27
    return I, J


def _worst_against_series(l, js, p):
    table = period_table(l, p)
    worst = mp.mpf(0)
    for j in js:
        closed, series = table[j - 1], eval_IJ(l, j, p)
        with mp.workprec(p + 32):
            worst = max(worst, rel(as_mpf(closed.I), as_mpf(series.I)),
                        rel(as_mpf(closed.J), as_mpf(series.J)))
    return worst


class TestPeriodTable:
    @pytest.mark.parametrize("l", ADMISSIBLE_L)
    def test_matches_series_route_64_bits(self, l):
        assert _worst_against_series(l, range(1, l), 64) <= mp.mpf("1e-17")

    @pytest.mark.parametrize("l,j,p,bound", SERIES_ROUTE_CASES)
    def test_matches_series_route_340_bits(self, l, j, p, bound):
        assert _worst_against_series(l, [j], p) <= mp.mpf(bound)

    @pytest.mark.parametrize("l,js,p", DEN_CELLS)
    def test_matches_series_route_at_prime_power_and_composite_den(self, l, js, p):
        # the series route's scale and Horner multiplier at den a prime power or
        # a product of primes: both routes agree to every certified digit
        table = period_table(l, p)
        for j in js:
            closed, series = table[j - 1], eval_IJ(l, j, p)
            for a, b in ((closed.I, series.I), (closed.J, series.J)):
                cap = min(a.agreement_certificate, b.agreement_certificate)
                assert cap == digits_of_bits(p)
                assert agreement_digits(a, b, cap) == cap

    def test_table_layout(self):
        table = period_table(7, 64)
        assert [(pair.l, pair.j) for pair in table] == [(7, j) for j in range(1, 7)]
        for pair in table:
            assert pair.I.precision == pair.J.precision == 64
            assert pair.I.agreement_certificate == pair.J.agreement_certificate == 19
            assert as_mpf(pair.I) > 0 and as_mpf(pair.J) > 0

    def test_rejects_bad_l(self, monkeypatch):
        # checked before any sum: l = 0 and l = -5 have no j for a check inside the j loop
        def not_called(N, w):
            raise AssertionError("_shared ran before l was checked")

        monkeypatch.setattr(hypergeometric, "_shared", not_called)
        for l in (0, -5, 4, 9):
            with pytest.raises(UnsupportedL):
                period_table(l, 64)

    @pytest.mark.parametrize("j,l", ((1, 49), (2, 5), (48, 49)))
    def test_moment_recurrences_match_mpmath(self, j, l):
        # the module docstring's rounding bounds in units of 2^-w: I_n within
        # 5/a + 2n + 5, and L_n within 3n + 42 once the cut of L_0 at m < N,
        # which L_n inherits times prod_(k<=n) k/(k+a), is taken off
        p = 200
        N, w = p + 8, p + GUARD
        k = fixed_constants(w)
        beta = hypergeometric._binomial_series(j, l, N, w)
        two_a = exp(-(j * k.ln2) // l, w)
        moments = list(hypergeometric._moments(j, l, beta, two_a, k.ln2, w))
        assert len(moments) == N
        with mp.workprec(w + 32):
            a = mp.mpf(j) / l

            def L(n):
                return mp.quad(lambda v: v ** n * (1 - v) ** (a - 1) * -mp.log(v), [0, 0.25, 0.5])

            cut = L(0) - mp.fsum(mp.rf(1 - a, m) / mp.factorial(m) * (mp.ln(2) + mp.mpf(1) / (m + 1))
                                 / ((m + 1) * mp.mpf(2) ** (m + 1)) for m in range(N))
            assert 0 < cut < mp.ldexp(1, -N) / (N + 1)
            for n in (0, 1, 7, N - 1):
                inherited = cut * mp.fprod(kk / (kk + a) for kk in range(1, n + 1))
                got_I, got_L = moments[n]
                assert abs(got_I - mp.ldexp(mp.betainc(n + 1, a, 0, 0.5), w)) < 5 * l / j + 2 * n + 5
                assert abs(got_L - mp.ldexp(L(n) - inherited, w)) < 3 * n + 42

    @given(l=st.sampled_from(ADMISSIBLE_L), data=st.data(),
           p=st.integers(min_value=16, max_value=400))
    @settings(max_examples=10, deadline=None)
    def test_certificate_at_most_agreement_with_2p(self, l, data, p):
        j = data.draw(st.integers(min_value=1, max_value=l - 1))
        lo, hi = period_table(l, p)[j - 1], period_table(l, 2 * p)[j - 1]
        assert lo.I.agreement_certificate == digits_of_bits(p)
        with mp.workprec(2 * p + 32):
            for a, b in ((lo.I, hi.I), (lo.J, hi.J)):
                assert a.agreement_certificate <= agreement_digits(a, b, 10 ** 6)

    @given(l=st.sampled_from(ADMISSIBLE_L_49), data=st.data(),
           p=st.integers(min_value=16, max_value=400))
    @settings(max_examples=10, deadline=None)
    def test_matches_the_mpmath_reference(self, l, data, p):
        # the same N = p + 8 terms: J differs only by rounding, I by the
        # truncation of its Beta sums against the Gamma values
        j = data.draw(st.integers(min_value=1, max_value=l - 1))
        pair = period_table(l, p)[j - 1]
        ref = _reference(l, j, p)
        with mp.workprec(2 * p + 64):
            for got, want in zip((pair.I, pair.J), ref):
                assert rel(as_mpf(got), want) < mp.ldexp(1, -(p + 8))
            for got, want in zip((pair.I, pair.J), _reference(l, j, 2 * p)):
                assert got.agreement_certificate <= agreement_digits(got, from_mpf(want), 10 ** 6)
