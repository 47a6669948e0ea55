from fractions import Fraction

import pytest
from mpmath import mp

import reglab.bigreal_periods as bigreal_periods
from reglab.bigreal_periods import (
    BigReal,
    SIGN_POLICY,
    _RunningSums,
    _digits_of_bits,
    constants,
    eisenstein_numeric,
    eisenstein_transform_residual,
    eval_IJ,
    periods_from_series,
    series_periods,
)
from reglab.errors import UnsupportedL
from reglab.exact_series import a_coeffs, b_coeffs

I_TABLE_5 = ["0.42745977255318", "0.151180954233147",
             "0.0871841692346256", "0.0603840144077692"]
J_TABLE_5 = ["0.717696894965804", "0.377159120670032",
             "0.261572572611421", "0.202670503662525"]
I_TABLE_7 = ["0.740059830730164", "0.24646699651114", "0.137265313181901",
             "0.0929578147374374", "0.0696363855176379", "0.0554349861351089"]
J_TABLE_7 = ["0.987994510350351", "0.51401702238944", "0.354195498081428",
             "0.273237679671921", "0.224004116344261", "0.19073921727221"]


def rel_close(value, reference, tol):
    ref = mp.mpf(reference)
    return abs(value - ref) <= tol * abs(ref)


class TestBigReal:
    def test_certificate_caps_rendering(self):
        x = BigReal(mp.pi, 128, agreement_certificate=5)
        assert x.to_decimal(30) == x.to_decimal(5)

    def test_full_precision_default(self):
        x = BigReal(mp.mpf(2) / 3, 64)
        assert x.agreement_certificate == 19


class TestConstants:
    def test_c_printed_digits(self):
        c = constants(128).c
        assert c.to_decimal(8).startswith("0.0265799")

    def test_c_inverse(self):
        with mp.workprec(160):
            k = constants(128)
            assert abs(k.c.value * mp.exp(2 * mp.pi / mp.sqrt(3)) - 1) < mp.mpf(2) ** -120

    def test_c_log_roundtrip(self):
        with mp.workprec(160):
            c = constants(128).c.value
            assert abs(mp.log(c) * mp.sqrt(3) / (-2 * mp.pi) - 1) < mp.mpf(2) ** -120

    def test_minimum_precision(self):
        with pytest.raises(ValueError):
            constants(32)


class TestEvalIJ:
    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_l5_table(self, j):
        pair = eval_IJ(5, j, 128)
        assert rel_close(pair.I.value, I_TABLE_5[j - 1], mp.mpf("1e-14"))
        assert rel_close(pair.J.value, J_TABLE_5[j - 1], mp.mpf("1e-14"))

    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5, 6])
    def test_l7_table(self, j):
        pair = eval_IJ(7, j, 128)
        assert rel_close(pair.I.value, I_TABLE_7[j - 1], mp.mpf("1e-13"))
        assert rel_close(pair.J.value, J_TABLE_7[j - 1], mp.mpf("1e-13"))

    @pytest.mark.parametrize("l,table_i,table_j", [(5, I_TABLE_5, J_TABLE_5),
                                                   (7, I_TABLE_7, J_TABLE_7)])
    def test_tables_strictly_decreasing(self, l, table_i, table_j):
        pairs = [eval_IJ(l, j, 96) for j in range(1, l)]
        for a, b in zip(pairs, pairs[1:]):
            assert a.I.value > b.I.value
            assert a.J.value > b.J.value

    def test_positive(self):
        pair = eval_IJ(5, 1, 64)
        assert pair.I.value > 0 and pair.J.value > 0
        assert pair.J.value / pair.I.value > 0

    def test_certificate_covers_request(self):
        pair = eval_IJ(5, 2, 128)
        assert pair.I.agreement_certificate >= 38
        assert pair.N_used >= 16

    def test_certificate_within_precision(self):
        # the certificate never claims the 32 guard bits of the working precision
        for l, j, p in ((5, 1, 128), (7, 3, 64), (11, 10, 200), (13, 6, 96)):
            pair = eval_IJ(l, j, p)
            assert pair.I.agreement_certificate <= _digits_of_bits(p)
            assert pair.J.agreement_certificate <= _digits_of_bits(p)

    def test_doubling_N_changes_no_reported_digit(self):
        pair = eval_IJ(5, 1, 64)
        N = pair.N_used
        alpha = Fraction(1, 5)
        a_ser = a_coeffs(alpha, 2 * N + 1)
        b_ser = b_coeffs(alpha, 2 * N)
        with mp.workprec(96):
            sa1, _, sb1, _ = _RunningSums(mp.mpf(1) / 5).advance(2 * N, a_ser, b_ser)
            ln3 = mp.ln(3)
            pref_I = mp.exp((mp.mpf(3) / 5 - 3) * ln3)
            doubled = BigReal(sa1 + pref_I * sb1, 64, pair.I.agreement_certificate)
        assert doubled.to_decimal() == pair.I.to_decimal()

    def test_second_round_sums_only_new_terms(self, monkeypatch):
        # (13, 3) at 30 digits needs two certificate rounds; each series term is summed once
        requests, terms = [], []

        class Counted:
            def __init__(self, ser):
                self.ser = ser

            def coefficient(self, n):
                terms.append(n)
                return self.ser.coefficient(n)

        def counted(coeffs):
            def wrapped(alpha, N):
                requests.append(N)
                return Counted(coeffs(alpha, N))
            return wrapped

        monkeypatch.setattr(bigreal_periods, "a_coeffs", counted(a_coeffs))
        monkeypatch.setattr(bigreal_periods, "b_coeffs", counted(b_coeffs))
        pair = eval_IJ(13, 3, 108)
        assert len(requests) == 2 * 2  # one a- and one b-series request per round
        assert len(terms) == 2 * pair.N_used

    def test_rejects_bad_l(self):
        for l in (2, 3, 4, 6, 9):
            with pytest.raises(UnsupportedL):
                eval_IJ(l, 1, 64)

    def test_rejects_bad_j(self):
        for j in (0, 5, -1):
            with pytest.raises(ValueError):
                eval_IJ(5, j, 64)


class TestPeriodsFromSeries:
    def test_magnitudes(self):
        sp = periods_from_series(5, 1, 96)
        pair = eval_IJ(5, 1, 96)
        with mp.workprec(128):
            assert abs(sp.delta_period.value - 54 * mp.pi / 5 * pair.I.value) < mp.mpf(2) ** -90
            assert abs(sp.gamma_period.value - mp.mpf(27) / 5 * pair.J.value) < mp.mpf(2) ** -90

    def test_axes_and_sign_policy(self):
        sp = periods_from_series(5, 2, 64)
        assert sp.delta_axis == "imaginary"
        assert sp.gamma_axis == "real"
        assert sp.sign_policy == SIGN_POLICY

    def test_l5_magnitude_values(self):
        sp = periods_from_series(5, 1, 64)
        assert rel_close(sp.delta_period.value, "14.503368", mp.mpf("1e-6"))
        assert rel_close(sp.gamma_period.value, "3.8755632", mp.mpf("1e-6"))

    def test_series_periods_of_pair(self):
        pair = eval_IJ(7, 3, 96)
        sp = series_periods(pair)
        again = periods_from_series(7, 3, 96)
        assert sp.delta_period.value == again.delta_period.value
        assert sp.gamma_period.value == again.gamma_period.value
        assert sp[2:] == again[2:]
        assert sp.delta_period.precision == sp.gamma_period.precision == 96
        assert sp.delta_period.agreement_certificate == pair.I.agreement_certificate
        assert sp.gamma_period.agreement_certificate == pair.J.agreement_certificate


class TestEisensteinNumeric:
    def test_e3a_at_small_q(self):
        val = eisenstein_numeric("E3a", mp.mpf("1e-30"), 8, 128)
        assert abs(val.value - 1) < mp.mpf("1e-28")

    def test_fixed_point_identity(self):
        # q = c is the fixed point of z -> -1/(3z): E3a(c) = 27 E3b(c)
        c = constants(192).c.value
        lhs = eisenstein_numeric("E3a", c, 96, 192).value
        rhs = eisenstein_numeric("E3b", c, 96, 192).value
        with mp.workprec(256):
            assert abs(lhs - 27 * rhs) < mp.mpf("1e-20") * abs(lhs)

    def test_t_series_value_half(self):
        c = constants(192).c.value
        e3a = eisenstein_numeric("E3a", c, 96, 192).value
        e3b = eisenstein_numeric("E3b", c, 96, 192).value
        with mp.workprec(256):
            t_val = e3a / (e3a + 27 * e3b)
            assert abs(t_val - mp.mpf(1) / 2) < mp.mpf("1e-20")

    def test_certificate_tracks_truncation(self):
        loose = eisenstein_numeric("E3b", mp.mpf("0.3"), 8, 64)
        tight = eisenstein_numeric("E3b", mp.mpf("0.3"), 64, 64)
        assert tight.agreement_certificate > loose.agreement_certificate

    def test_domain(self):
        with pytest.raises(ValueError):
            eisenstein_numeric("E3a", mp.mpf(2), 8, 64)


class TestTransformResidual:
    def test_z_i(self):
        res = eisenstein_transform_residual(mp.mpc(0, 1), 80, 128)
        assert res.value < mp.mpf("1e-10")

    def test_z_2i(self):
        res = eisenstein_transform_residual(mp.mpc(0, 2), 200, 128)
        assert res.value < mp.mpf("1e-10")

    def test_fixed_point(self):
        with mp.workprec(160):
            z = mp.mpc(0, 1) / mp.sqrt(3)
        res = eisenstein_transform_residual(z, 80, 128)
        assert res.value < mp.mpf("1e-30")

    def test_off_axis_rejected(self):
        with pytest.raises(ValueError):
            eisenstein_transform_residual(mp.mpc(1, 1), 40, 64)
        with pytest.raises(ValueError):
            eisenstein_transform_residual(mp.mpc(0, -1), 40, 64)
