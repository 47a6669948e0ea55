import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from reglab import elliptic_oracle
from reglab.bigreal import BigReal
from reglab.bigreal_periods import eval_IJ
from reglab.elliptic_oracle import (
    _inner,
    _rf_zero,
    _to_mpf,
    cubic_roots,
    direct_periods,
    inner_integrals,
)
from reglab.errors import DomainError, RootOrderingFailed, UnsupportedL

# checked in-class below against both the AGM route and a raw quadrature
RF_012 = "1.31102877714605990523241979495"

# root collisions at large l: T = 2^-260, where r3 - r2 ~ 1e-118, and 1 - T ~ 25 * 2^-21
COLLISIONS = [(13, mp.mpf(2) ** -20), (25, 1 - mp.mpf(2) ** -21)]


def rel(a, b):
    return abs(mp.mpf(a) - mp.mpf(b)) / abs(mp.mpf(b))


def cubic(T, x):
    return ((x + 9) * x + 24 * T) * x + 16 * T * T


# the reference for the oracle's _rf_zero: Carlson's R_F by duplication

def _rf_duplication(x, y, z):
    """Classic R_F duplication iteration; returns (value, iteration count)."""
    cutoff = mp.power(mp.eps, mp.mpf(1) / 6)
    iterations = 0
    while True:
        mu = (x + y + z) / 3
        spread = max(abs(x - mu), abs(y - mu), abs(z - mu)) / mu
        if spread < cutoff:
            break
        lam = mp.sqrt(x) * mp.sqrt(y) + mp.sqrt(y) * mp.sqrt(z) + mp.sqrt(z) * mp.sqrt(x)
        x, y, z = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4
        iterations += 1
    X = (mu - x) / mu
    Y = (mu - y) / mu
    Z = -X - Y
    e2 = X * Y - Z * Z
    e3 = X * Y * Z
    value = (1 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44) / mp.sqrt(mu)
    return value, iterations


def carlson_rf(x, y, z, p: int = 64) -> BigReal:
    """Carlson symmetric integral R_F by the duplication algorithm."""
    with mp.workprec(p + 16):
        args = sorted(_to_mpf(v) for v in (x, y, z))
        if args[0] < 0:
            raise DomainError("R_F needs nonnegative arguments")
        if args[1] <= 0:
            raise DomainError("R_F needs at most one zero argument")
        if args[0] == 0:
            value = _rf_zero(args[1], args[2])
        else:
            value, _ = _rf_duplication(*args)
    return BigReal(value, p)


class TestCarlsonRF:
    def test_frozen_value(self):
        v = carlson_rf(0, 1, 2, p=120)
        assert rel(v.value, mp.mpf(RF_012)) < mp.mpf("1e-28")

    def test_frozen_value_against_quadrature(self):
        # R_F(0,1,2) = (1/2) int_0^oo dt / sqrt(t (t+1) (t+2))
        with mp.workprec(120):
            q = mp.quad(lambda t: 0.5 / mp.sqrt(t * (t + 1) * (t + 2)), [0, 1, mp.inf])
            assert rel(q, mp.mpf(RF_012)) < mp.mpf("1e-18")

    def test_equal_arguments(self):
        with mp.workprec(120):
            for a in ("0.25", "1", "3", "17.5"):
                v = carlson_rf(a, a, a, p=96)
                assert rel(v.value, 1 / mp.sqrt(mp.mpf(a))) < mp.mpf("1e-25")

    @given(
        x=st.fractions(min_value="1/8", max_value=8, max_denominator=64),
        y=st.fractions(min_value="1/8", max_value=8, max_denominator=64),
        z=st.fractions(min_value="1/8", max_value=8, max_denominator=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, x, y, z):
        a = carlson_rf(x, y, z, p=80)
        b = carlson_rf(z, x, y, p=80)
        c = carlson_rf(y, x, z, p=80)
        assert a.value == b.value == c.value

    def test_agm_route_matches_duplication(self):
        with mp.workprec(144):
            for y, z in [(1, 2), (3, 7), (mp.mpf("0.01"), 5)]:
                fast = _rf_zero(mp.mpf(y), mp.mpf(z))
                slow, _ = _rf_duplication(mp.mpf(0), mp.mpf(y), mp.mpf(z))
                assert rel(fast, slow) < mp.mpf("1e-30")

    def test_agm_iteration_count_logarithmic(self):
        counts = {}
        for p in (64, 256, 1024):
            with mp.workprec(p):
                a, b = mp.sqrt(mp.mpf(1)), mp.sqrt(mp.mpf(2))
                n = 0
                while abs(a - b) > 4 * mp.eps * abs(a):
                    a, b = (a + b) / 2, mp.sqrt(a * b)
                    n += 1
                counts[p] = n
        assert counts[1024] <= 14
        assert counts[1024] - counts[64] <= 6  # doubling p costs ~1 step

    def test_duplication_iteration_count_linear(self):
        counts = {}
        for p in (80, 272):
            with mp.workprec(p):
                _, n = _rf_duplication(mp.mpf(0), mp.mpf(1), mp.mpf(2))
                counts[p] = n
        assert counts[272] - counts[80] >= 8  # ~p/12 growth
        assert counts[272] >= 18

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            carlson_rf(-1, 1, 2)
        with pytest.raises(DomainError):
            carlson_rf(0, 0, 2)
        with pytest.raises(DomainError):
            carlson_rf(0, 0, 0)


class TestCubicRoots:
    def test_collision_at_right_edge(self):
        r = cubic_roots(1, 1 - mp.mpf(2) ** -20, p=64)
        assert abs(r.r1.value + 4) < mp.mpf("0.01")
        assert abs(r.r2.value + 4) < mp.mpf("0.01")
        assert abs(r.r3.value + 1) < mp.mpf("1e-5")

    def test_collision_at_left_edge(self):
        t = mp.mpf(2) ** -20
        r = cubic_roots(1, t, p=64)
        assert abs(r.r1.value + 9) < mp.mpf("1e-4")
        assert -3 * t < r.r2.value < r.r3.value < 0

    def test_gap_consistency(self):
        for l, t in [(1, "0.5"), (5, "0.9"), (7, "0.001"), (5, "0.999"), *COLLISIONS]:
            r = cubic_roots(l, mp.mpf(t), p=64)
            assert rel(r.gap31.value, r.gap21.value + r.gap32.value) < mp.mpf("1e-12")
            assert r.gap21.value > 0 and r.gap32.value > 0

    def test_residuals_at_half(self):
        p = 64
        r = cubic_roots(1, mp.mpf("0.5"), p=p)
        with mp.workprec(256):
            T = mp.mpf("0.5")
            for root in (r.r1.value, r.r2.value, r.r3.value):
                dP = (3 * root + 18) * root + 24 * T
                bound = mp.mpf(2) ** (-p + 8) * max(1, abs(dP * root))
                assert abs(cubic(T, root)) < bound

    def test_midpoint_signs(self):
        points = [(l, mp.mpf(t)) for l in (1, 5, 7) for t in ("0.05", "0.3", "0.5", "0.7", "0.95")]
        for l, t in points + COLLISIONS:
            r = cubic_roots(l, t, p=64)
            # near t = 0 the midpoint values are O(T^3) beside terms of O(T^2)
            with mp.workprec(160 + 2 * l * max(0, int(-mp.log(t, 2)))):
                T = mp.mpf(t) ** l
                assert cubic(T, (r.r1.value + r.r2.value) / 2) > 0
                assert cubic(T, (r.r2.value + r.r3.value) / 2) < 0

    def test_frozen_gaps_at_collisions(self):
        # (gap21, gap32, gap31) to 30 digits from a Newton/bisection solver at 240 bits
        frozen = {
            13: ("9.00000000000000000000000000000",
                 "4.07022611933834299485453561832e-118",
                 "9.00000000000000000000000000000"),
            25: ("0.0318942994011910674127381586057",
                 "2.98406874479443073378796964608",
                 "3.01596304419562180120070780469"),
        }
        for l, t in COLLISIONS:
            r = cubic_roots(l, t, p=128)
            for got, want in zip((r.gap21, r.gap32, r.gap31), frozen[l]):
                assert rel(got.value, mp.mpf(want)) < mp.mpf("1e-29")

    @given(
        l=st.sampled_from([1, 5, 7]),
        t=st.fractions(min_value="1/1000", max_value="999/1000", max_denominator=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_vieta(self, l, t):
        r = cubic_roots(l, mp.mpf(t.numerator) / t.denominator, p=64)
        with mp.workprec(96):
            T = (mp.mpf(t.numerator) / t.denominator) ** l
            s1 = r.r1.value + r.r2.value + r.r3.value
            s2 = r.r1.value * r.r2.value + r.r1.value * r.r3.value + r.r2.value * r.r3.value
            s3 = r.r1.value * r.r2.value * r.r3.value
            assert abs(s1 + 9) < mp.mpf("1e-10")
            assert rel(s2, 24 * T) < mp.mpf("1e-9")
            assert rel(s3, -16 * T * T) < mp.mpf("1e-9")

    def test_domain(self):
        for bad in (0, 1, -0.5, 1.5):
            with pytest.raises(DomainError):
                cubic_roots(5, bad)
        with pytest.raises(ValueError):
            cubic_roots(0, 0.5)


class TestInnerIntegrals:
    def test_against_raw_quadrature_at_half(self):
        # the arch integrals computed without Carlson reduction
        ii = inner_integrals(1, mp.mpf("0.5"), p=64)
        with mp.workprec(160):
            T = mp.mpf("0.5")
            r = cubic_roots(1, T, p=160)
            delta = mp.quad(lambda x: 1 / mp.sqrt(cubic(T, x)),
                            [r.r1.value, r.r2.value])
            gamma = mp.quad(lambda x: 1 / mp.sqrt(-cubic(T, x)),
                            [r.r2.value, r.r3.value])
            assert rel(ii.delta_inner.value, delta) < mp.mpf("1e-15")
            assert rel(ii.gamma_inner.value, gamma) < mp.mpf("1e-15")

    def test_limit_values(self):
        near0 = inner_integrals(1, mp.mpf("1e-12"), p=64)
        near1 = inner_integrals(1, 1 - mp.mpf("1e-12"), p=64)
        assert abs(near0.gamma_inner.value - mp.pi / 3) < mp.mpf("1e-10")
        assert abs(near1.delta_inner.value - mp.pi / mp.sqrt(3)) < mp.mpf("1e-10")
        assert near0.delta_inner.value > 5  # log divergence toward t = 0
        assert near1.gamma_inner.value > 5  # log divergence toward t = 1

    def test_precision_stability(self):
        lo = inner_integrals(5, mp.mpf("0.25"), p=64)
        hi = inner_integrals(5, mp.mpf("0.25"), p=192)
        assert rel(lo.delta_inner.value, hi.delta_inner.value) < mp.mpf(2) ** -56
        assert rel(lo.gamma_inner.value, hi.gamma_inner.value) < mp.mpf(2) ** -56

    def test_domain(self):
        with pytest.raises(DomainError):
            inner_integrals(5, 1.0)

    @given(
        l=st.sampled_from([1, 5, 7, 11, 13]),
        t=st.fractions(min_value="1/20", max_value="19/20", max_denominator=10**6),
    )
    @settings(max_examples=30, deadline=None)
    def test_hypergeometric_forms(self, l, t):
        # delta: (pi/sqrt3) 2F1(1/3, 2/3; 1; 1 - t^l), gamma: (pi/3) 2F1(1/3, 2/3; 1; t^l)
        with mp.workprec(120):
            tm = mp.mpf(t.numerator) / t.denominator
            delta, gamma = _inner(l, tm, "delta"), _inner(l, tm, "gamma")
        # 1 - T rounds away the low digits of T = t^l unless the bits lost to it are added
        with mp.workprec(120 + math.ceil(l * math.log2(t.denominator / t.numerator))):
            T = tm ** l
            F = lambda z: mp.hyp2f1(mp.mpf(1) / 3, mp.mpf(2) / 3, 1, z)
            assert rel(delta, mp.pi / mp.sqrt(3) * F(1 - T)) < mp.mpf(2) ** -110
            assert rel(gamma, mp.pi / 3 * F(T)) < mp.mpf(2) ** -110


class TestDirectPeriods:
    def test_matches_series_route(self):
        for l, j in [(5, 1), (5, 4), (7, 6)]:
            pair = eval_IJ(l, j, p=128)
            got = direct_periods(l, j, p=64)
            want_delta = 54 * mp.pi / l * pair.I.value
            want_gamma = mp.mpf(27) / l * pair.J.value
            assert rel(got.delta_abs.value, want_delta) < mp.mpf("1e-6")
            assert rel(got.gamma_abs.value, want_gamma) < mp.mpf("1e-6")

    def test_error_estimate_and_certificate(self):
        got = direct_periods(5, 2, p=64)
        assert got.error_estimate.value < mp.mpf("1e-9") * got.delta_abs.value
        assert 9 <= got.delta_abs.agreement_certificate <= 10
        assert got.gamma_abs.agreement_certificate >= 9

    def test_deterministic(self):
        a = direct_periods(5, 3, p=64)
        b = direct_periods(5, 3, p=64)
        assert a.delta_abs.value == b.delta_abs.value
        assert a.gamma_abs.value == b.gamma_abs.value

    def test_validation(self):
        with pytest.raises(UnsupportedL):
            direct_periods(4, 1)
        with pytest.raises(UnsupportedL):
            direct_periods(9, 2)
        with pytest.raises(ValueError):
            direct_periods(5, 0)
        with pytest.raises(ValueError):
            direct_periods(5, 5)


def test_oracle_uses_no_hypergeometric_function():
    # the quadrature checks both the q-series and the 2F1 closed forms, so it uses neither
    source = inspect.getsource(elliptic_oracle)
    assert "hypergeometric" not in source and "hyp" not in source
    assert "exact_series" not in source


class TestOrderingGuard:
    def test_reordered_gaps_rejected(self, monkeypatch):
        # atan2(y, -x) swaps the angles of gap21 and gap32: every gap stays
        # positive, so only the midpoint-sign check can catch the wrong roots
        atan2 = mp.atan2
        monkeypatch.setattr(mp, "atan2", lambda y, x: atan2(y, -x))
        with pytest.raises(RootOrderingFailed, match="midpoint signs wrong"):
            elliptic_oracle._root_data(5, mp.mpf("0.5"))
