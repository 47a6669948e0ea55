import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import reglab.hypergeometric as hypergeometric
from reglab.bigreal_periods import _agreement_digits, _digits_of_bits, eval_IJ
from reglab.errors import UnsupportedL
from reglab.hypergeometric import period_table

ADMISSIBLE_L = [l for l in range(5, 26) if math.gcd(l, 6) == 1]


def rel(a, b):
    return abs(a - b) / abs(b)


def _worst_against_series(l, js, p):
    table = period_table(l, p)
    worst = mp.mpf(0)
    for j in js:
        closed, series = table[j - 1], eval_IJ(l, j, p)
        with mp.workprec(p + 32):
            worst = max(worst, rel(closed.I.value, series.I.value),
                        rel(closed.J.value, series.J.value))
    return worst


class TestPeriodTable:
    @pytest.mark.parametrize("l", ADMISSIBLE_L)
    def test_matches_series_route_64_bits(self, l):
        assert _worst_against_series(l, range(1, l), 64) <= mp.mpf("1e-17")

    @pytest.mark.parametrize("l,j", ((5, 1), (7, 3), (11, 4), (13, 12)))
    def test_matches_series_route_340_bits(self, l, j):
        assert _worst_against_series(l, [j], 340) <= mp.mpf("1e-100")

    def test_table_layout(self):
        table = period_table(7, 64)
        assert [(pair.l, pair.j) for pair in table] == [(7, j) for j in range(1, 7)]
        for pair in table:
            assert pair.I.precision == pair.J.precision == 64
            assert pair.I.agreement_certificate == pair.J.agreement_certificate == 19
            assert pair.I.value > 0 and pair.J.value > 0

    def test_rejects_bad_l(self, monkeypatch):
        # checked before any sum: l = 0 and l = -5 have no j for a check inside the j loop
        def not_called(N):
            raise AssertionError("_shared ran before l was checked")

        monkeypatch.setattr(hypergeometric, "_shared", not_called)
        for l in (0, -5, 4, 9):
            with pytest.raises(UnsupportedL):
                period_table(l, 64)

    @given(l=st.sampled_from(ADMISSIBLE_L), data=st.data(),
           p=st.integers(min_value=16, max_value=400))
    @settings(max_examples=10, deadline=None)
    def test_certificate_at_most_agreement_with_2p(self, l, data, p):
        j = data.draw(st.integers(min_value=1, max_value=l - 1))
        lo, hi = period_table(l, p)[j - 1], period_table(l, 2 * p)[j - 1]
        assert lo.I.agreement_certificate == _digits_of_bits(p)
        with mp.workprec(2 * p + 32):
            for a, b in ((lo.I, hi.I), (lo.J, hi.J)):
                assert a.agreement_certificate <= _agreement_digits(a.value, b.value, 10 ** 6)
