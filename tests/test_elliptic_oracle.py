import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpf_reference import as_mpf, from_mpf

from reglab import elliptic_oracle
from reglab.bigreal import GUARD, BigReal, agreement_digits, fixed_pi
from reglab.bigreal_periods import eval_IJ, series_periods
from reglab.elliptic_oracle import (
    _arches,
    _outer_integrals,
    _rf_zero,
    _root_data,
    cubic_roots,
    direct_periods,
    inner_integrals,
)
from reglab.errors import DomainError, RootOrderingFailed, UnsupportedL
from reglab.hypergeometric import period_table

# checked in-class below against both the AGM route and a raw quadrature
RF_012 = "1.31102877714605990523241979495"

# root collisions at large l: T = 2^-260, where r3 - r2 ~ 1e-118, and 1 - T ~ 25 * 2^-21
COLLISIONS = [(13, mp.mpf(2) ** -20), (25, 1 - mp.mpf(2) ** -21)]


def rel(a, b):
    return abs(mp.mpf(a) - mp.mpf(b)) / abs(mp.mpf(b))


def _to_mpf(v):
    """An exact rational (numerator / denominator), a BigReal or anything mpf accepts."""
    if isinstance(v, BigReal):
        return as_mpf(v)
    if isinstance(v, int) or not hasattr(v, "numerator"):
        return mp.mpf(v)
    return mp.mpf(v.numerator) / v.denominator


def fixed(x, w):
    """floor(x 2^w) for an mpf x."""
    return int(mp.floor(mp.ldexp(x, w)))


def rf_zero(y, z, w):
    """The oracle's fixed-point R_F(0, y, z) at w bits, for mpf arguments, as an mpf."""
    return mp.ldexp(_rf_zero(fixed(y, w), fixed(z, w), w, fixed_pi(w)), -w)


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
            value = rf_zero(args[1], args[2], p + 16)
        else:
            value, _ = _rf_duplication(*args)
    return BigReal(from_mpf(value), p)


class TestCarlsonRF:
    def test_frozen_value(self):
        v = carlson_rf(0, 1, 2, p=120)
        assert rel(as_mpf(v), mp.mpf(RF_012)) < mp.mpf("1e-28")

    def test_frozen_value_against_quadrature(self):
        # R_F(0,1,2) = (1/2) int_0^oo dt / sqrt(t (t+1) (t+2))
        with mp.workprec(120):
            q = mp.quad(lambda t: 0.5 / mp.sqrt(t * (t + 1) * (t + 2)), [0, 1, mp.inf])
            assert rel(q, mp.mpf(RF_012)) < mp.mpf("1e-18")

    def test_equal_arguments(self):
        with mp.workprec(120):
            for a in ("0.25", "1", "3", "17.5"):
                v = carlson_rf(a, a, a, p=96)
                assert rel(as_mpf(v), 1 / mp.sqrt(mp.mpf(a))) < mp.mpf("1e-25")

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
        assert as_mpf(a) == as_mpf(b) == as_mpf(c)

    def test_agm_route_matches_duplication(self):
        with mp.workprec(144):
            for y, z in [(1, 2), (3, 7), (mp.mpf("0.01"), 5)]:
                fast = rf_zero(mp.mpf(y), mp.mpf(z), 144)
                slow, _ = _rf_duplication(mp.mpf(0), mp.mpf(y), mp.mpf(z))
                assert rel(fast, slow) < mp.mpf("1e-30")

    @given(w=st.sampled_from([64, 128, 200, 400]), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_fixed_point_agm_within_its_bound(self, w, data):
        # _rf_zero's stated bound: 3 units plus a relative (n + 4) 2^-w / sqrt(min(y, z)),
        # n < log2 w + log2(2 + |log2(y/z)|) steps; y reaches 2^-300, as d32 does
        y, z = (data.draw(st.integers(1 << w - lo, 1 << w + 6)) for lo in (min(w - 2, 300), 4))
        got = _rf_zero(y, z, w, fixed_pi(w))
        n = math.log2(w) + math.log2(2 + abs(math.log2(y) - math.log2(z)))
        with mp.workprec(2 * w):
            Y, Z = mp.ldexp(y, -w), mp.ldexp(z, -w)
            for want in (mp.elliprf(0, Y, Z), _rf_duplication(mp.mpf(0), Y, Z)[0]):
                bound = 3 + want * mp.ldexp(n + 4, w) / math.isqrt(min(y, z) << w)
                assert abs(got - mp.ldexp(want, w)) < bound

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
        r = cubic_roots(1, from_mpf(1 - mp.mpf(2) ** -20), p=64)
        assert abs(as_mpf(r.r1) + 4) < mp.mpf("0.01")
        assert abs(as_mpf(r.r2) + 4) < mp.mpf("0.01")
        assert abs(as_mpf(r.r3) + 1) < mp.mpf("1e-5")

    def test_collision_at_left_edge(self):
        t = mp.mpf(2) ** -20
        r = cubic_roots(1, from_mpf(t), p=64)
        assert abs(as_mpf(r.r1) + 9) < mp.mpf("1e-4")
        assert -3 * t < as_mpf(r.r2) < as_mpf(r.r3) < 0

    def test_gap_consistency(self):
        for l, t in [(1, "0.5"), (5, "0.9"), (7, "0.001"), (5, "0.999"), *COLLISIONS]:
            r = cubic_roots(l, from_mpf(t), p=64)
            assert rel(as_mpf(r.gap31), as_mpf(r.gap21) + as_mpf(r.gap32)) < mp.mpf("1e-12")
            assert as_mpf(r.gap21) > 0 and as_mpf(r.gap32) > 0

    def test_residuals_at_half(self):
        p = 64
        r = cubic_roots(1, from_mpf("0.5"), p=p)
        with mp.workprec(256):
            T = mp.mpf("0.5")
            for root in (as_mpf(r.r1), as_mpf(r.r2), as_mpf(r.r3)):
                dP = (3 * root + 18) * root + 24 * T
                bound = mp.mpf(2) ** (-p + 8) * max(1, abs(dP * root))
                assert abs(cubic(T, root)) < bound

    def test_midpoint_signs(self):
        # The cubic is positive at the delta arch's midpoint and negative at
        # the gamma arch's.  Rounded to 64 bits, r2 and r3 cannot place a gap
        # below 2^-64 of their size (at (13, 2^-20) they are equal), so there
        # the gamma midpoint's sign is read from the gaps: P(r2 + gap32/2) =
        # -(gap21 + gap32/2) (gap32/2)^2 < 0 holds for positive gaps that are
        # those of this cubic, with gap31 = gap21 + gap32 and their product
        # squared equal to the discriminant 6912 T^3 (1 - T).
        points = [(l, mp.mpf(t)) for l in (1, 5, 7) for t in ("0.05", "0.3", "0.5", "0.7", "0.95")]
        for l, t in points + COLLISIONS:
            r = cubic_roots(l, from_mpf(t), p=64)
            # near t = 0 the midpoint values are O(T^3) beside terms of O(T^2)
            with mp.workprec(160 + 2 * l * max(0, int(-mp.log(t, 2)))):
                T = mp.mpf(t) ** l
                g21, g31, g32 = as_mpf(r.gap21), as_mpf(r.gap31), as_mpf(r.gap32)
                assert g21 > 0 and g32 > 0
                assert cubic(T, (as_mpf(r.r1) + as_mpf(r.r2)) / 2) > 0
                assert rel(g31, g21 + g32) < mp.mpf(2) ** -60
                assert rel((g21 * g31 * g32) ** 2, 6912 * T ** 3 * (1 - T)) < mp.mpf(2) ** -58
                if g32 > mp.ldexp(abs(as_mpf(r.r2)), -48):  # the rounded roots resolve the gap
                    assert cubic(T, (as_mpf(r.r2) + as_mpf(r.r3)) / 2) < 0

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
            r = cubic_roots(l, from_mpf(t), p=128)
            for got, want in zip((r.gap21, r.gap32, r.gap31), frozen[l]):
                assert rel(as_mpf(got), mp.mpf(want)) < mp.mpf("1e-29")

    @given(
        l=st.sampled_from([1, 5, 7]),
        t=st.fractions(min_value="1/1000", max_value="999/1000", max_denominator=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_vieta(self, l, t):
        r = cubic_roots(l, from_mpf(mp.mpf(t.numerator) / t.denominator), p=64)
        with mp.workprec(96):
            T = (mp.mpf(t.numerator) / t.denominator) ** l
            s1 = as_mpf(r.r1) + as_mpf(r.r2) + as_mpf(r.r3)
            s2 = as_mpf(r.r1) * as_mpf(r.r2) + as_mpf(r.r1) * as_mpf(r.r3) + as_mpf(r.r2) * as_mpf(r.r3)
            s3 = as_mpf(r.r1) * as_mpf(r.r2) * as_mpf(r.r3)
            assert abs(s1 + 9) < mp.mpf("1e-10")
            assert rel(s2, 24 * T) < mp.mpf("1e-9")
            assert rel(s3, -16 * T * T) < mp.mpf("1e-9")

    def test_domain(self):
        for bad in (0, 1, -0.5, 1.5):
            with pytest.raises(DomainError):
                cubic_roots(5, bad)
        with pytest.raises(ValueError):
            cubic_roots(0, 0.5)


class TestStatedPrecision:
    def test_mantissas_fit_the_precision(self):
        # at this collision the roots take over 400 guard bits; at precision p, what is
        # returned is the integer each route computed at its working bits, unrounded
        t = from_mpf(mp.mpf(2) ** -20)
        w = 64 + GUARD
        W, *roots = _root_data(13, t, w)
        assert W > w + 400
        want = ([(v, -W) for v in roots] + [(v, -w) for v in _arches(13, t, w)]
                + [(v, -w) for v in _outer_integrals(13, 1, 64)])
        values = [*cubic_roots(13, t, p=64), *inner_integrals(13, t, p=64),
                  *direct_periods(13, 1, p=64)]
        assert len(values) == 11
        assert [(v.man, v.exp) for v in values] == want
        assert all(v.precision == 64 for v in values)

    def test_t_read_exactly_or_at_the_working_precision(self):
        # one dyadic value as a float, a (man, exp) pair or a BigReal gives the same roots;
        # a Fraction is not read, as by BigReal
        third = 1 / 3
        roots = [[(x.man, x.exp) for x in cubic_roots(5, t, p=64)]
                 for t in (third, from_mpf(mp.mpf(third)), BigReal(third, 53))]
        assert roots[0] == roots[1] == roots[2]
        with pytest.raises(TypeError):
            cubic_roots(5, Fraction(1, 3))
        with pytest.raises(TypeError):
            inner_integrals(5, Fraction(1, 3))

    def test_float_precision_is_refused_where_it_is_read(self):
        # by BigReal, reading t at w = p + GUARD, before any kernel shifts by a float width
        with pytest.raises(TypeError, match="not ints: 128.5"):
            cubic_roots(5, 0.5, p=64.5)


class TestInnerIntegrals:
    def test_against_raw_quadrature_at_half(self):
        # the arch integrals computed without Carlson reduction
        ii = inner_integrals(1, from_mpf("0.5"), p=64)
        with mp.workprec(160):
            T = mp.mpf("0.5")
            r = cubic_roots(1, from_mpf(T), p=160)
            # the roots are rounded to 160 bits, so within 2^-160 of an end the
            # cubic may take the other sign; |P| there adds about 2^-80, far below 1e-15
            delta = mp.quad(lambda x: 1 / mp.sqrt(abs(cubic(T, x))),
                            [as_mpf(r.r1), as_mpf(r.r2)])
            gamma = mp.quad(lambda x: 1 / mp.sqrt(abs(cubic(T, x))),
                            [as_mpf(r.r2), as_mpf(r.r3)])
            assert rel(as_mpf(ii.delta_inner), delta) < mp.mpf("1e-15")
            assert rel(as_mpf(ii.gamma_inner), gamma) < mp.mpf("1e-15")

    def test_limit_values(self):
        near0 = inner_integrals(1, from_mpf("1e-12"), p=64)
        near1 = inner_integrals(1, from_mpf(1 - mp.mpf("1e-12")), p=64)
        assert abs(as_mpf(near0.gamma_inner) - mp.pi / 3) < mp.mpf("1e-10")
        assert abs(as_mpf(near1.delta_inner) - mp.pi / mp.sqrt(3)) < mp.mpf("1e-10")
        assert as_mpf(near0.delta_inner) > 5  # log divergence toward t = 0
        assert as_mpf(near1.gamma_inner) > 5  # log divergence toward t = 1

    def test_precision_stability(self):
        lo = inner_integrals(5, from_mpf("0.25"), p=64)
        hi = inner_integrals(5, from_mpf("0.25"), p=192)
        assert rel(as_mpf(lo.delta_inner), as_mpf(hi.delta_inner)) < mp.mpf(2) ** -56
        assert rel(as_mpf(lo.gamma_inner), as_mpf(hi.gamma_inner)) < mp.mpf(2) ** -56

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
            delta, gamma = (mp.ldexp(v, -120) for v in _arches(l, (int(tm.man), int(tm.exp)), 120))
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
            want_delta = 54 * mp.pi / l * as_mpf(pair.I)
            want_gamma = mp.mpf(27) / l * as_mpf(pair.J)
            assert rel(as_mpf(got.delta_abs), want_delta) < mp.mpf("1e-6")
            assert rel(as_mpf(got.gamma_abs), want_gamma) < mp.mpf("1e-6")

    def test_error_estimate_and_certificate(self):
        got = direct_periods(5, 2, p=64)
        assert as_mpf(got.error_estimate) < mp.mpf("1e-9") * as_mpf(got.delta_abs)
        assert 9 <= got.delta_abs.agreement_certificate <= 10
        assert got.gamma_abs.agreement_certificate >= 9

    @pytest.mark.parametrize("l, cells", [(l, range(1, l)) for l in (5, 7, 11)]
                             + [(13, [12]), (49, [48]), (97, [96])],
                             ids=["5", "7", "11", "13-12", "49-48", "97-96"])
    def test_certificate_holds_against_the_closed_forms(self, l, cells):
        # the tail model's error grows about as l^2 and is worst at j = l - 1;
        # period_table at 200 bits is good to about 55 digits
        table = period_table(l, 200)
        for j in cells:
            want, got = series_periods(table[j - 1]), direct_periods(l, j, p=64)
            for value, reference in ((got.delta_abs, want.delta_period),
                                     (got.gamma_abs, want.gamma_period)):
                assert agreement_digits(value, reference, 30) >= value.agreement_certificate, (j, value)

    @pytest.mark.parametrize("l, j", ((5, 1), (7, 6)))
    def test_error_estimate_bounds_the_panel_error(self, l, j):
        # at p = 128 the rules have twice the nodes and the same tail model, so
        # the two values differ by the panel error at p = 64, which |Q_2m - Q_m| bounds
        lo, hi = direct_periods(l, j, p=64), direct_periods(l, j, p=128)
        with mp.workprec(192):
            for a, b in ((lo.delta_abs, hi.delta_abs), (lo.gamma_abs, hi.gamma_abs)):
                assert abs(as_mpf(a) - as_mpf(b)) < as_mpf(lo.error_estimate)

    def test_deterministic(self):
        a = direct_periods(5, 3, p=64)
        b = direct_periods(5, 3, p=64)
        assert as_mpf(a.delta_abs) == as_mpf(b.delta_abs)
        assert as_mpf(a.gamma_abs) == as_mpf(b.gamma_abs)

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
        atan2 = elliptic_oracle.atan2
        monkeypatch.setattr(elliptic_oracle, "atan2", lambda y, x, w: atan2(y, -x, w))
        with pytest.raises(RootOrderingFailed, match="midpoint signs wrong"):
            elliptic_oracle._root_data(5, (1, -1), 128)
