import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import reglab.integer_kernel as integer_kernel
from reglab.bigreal import (
    BigReal,
    agreement_digits,
    constants,
    digits_of_bits,
    exp,
    fixed_constants,
    nstr,
    sin,
)
from reglab.bigreal_periods import _RunningSums, eval_IJ, series_periods
from reglab.errors import UnsupportedL
from reglab.exact_series import (
    a_coeffs,
    b_coeffs,
    eisenstein_numeric,
    eisenstein_transform_residual,
)

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


def _term_by_term(l, j, N, prec):
    """I(j), J(j) with N terms, summed one mpf term at a time from a_coeffs and
    b_coeffs at prec bits: eval_IJ's docstring formula, unregrouped."""
    alpha = Fraction(j, l)
    a_ser, b_ser = a_coeffs(alpha, N + 1), b_coeffs(alpha, N)
    with mp.workprec(prec):
        c, sqrt3, two_pi = mp.exp(-2 * mp.pi / mp.sqrt(3)), mp.sqrt(3), 2 * mp.pi
        a = mp.mpf(j) / l
        sa1 = sa2 = sb1 = sb2 = mp.mpf(0)
        for n in range(1, N + 1):
            an = a_ser[n]
            an = mp.mpf(an.numerator) / an.denominator * c**n
            sa1 += an / n
            sa2 += an * (two_pi / (sqrt3 * n) + mp.mpf(1) / (n * n))
        for n in range(N):
            bn = b_ser[n]
            bn = mp.mpf(bn.numerator) / bn.denominator * c ** (n + a)
            sb1 += bn * (1 / (n + a) + sqrt3 / (two_pi * (n + a) ** 2))
            sb2 += bn / (n + a)
        ln3 = mp.ln(3)
        I = sa1 + mp.exp((3 * a - 3) * ln3) * sb1
        J = sa2 + two_pi * mp.exp((3 * a - mp.mpf(7) / 2) * ln3) * sb2
    return I, J


def _exact_mpf(man, exp):
    from mpmath.libmp import from_man_exp

    return mp.make_mpf(from_man_exp(man, exp))


class TestBigReal:
    def test_certificate_caps_rendering(self):
        x = BigReal(mp.pi, 128, agreement_certificate=5)
        assert x.to_decimal(30) == x.to_decimal(5)

    def test_full_precision_default(self):
        x = BigReal(mp.mpf(2) / 3, 64)
        assert x.agreement_certificate == 19

    def test_value_is_exact(self):
        # 300 bits survive the ambient 53-bit precision
        man = (1 << 299) + 1
        x = BigReal((man, -300), 64)
        assert x.value.man_exp == (man, -300)
        assert BigReal(x.value, 64).man == man
        assert float(x) == 0.5

    @given(man=st.integers(min_value=1, max_value=2 ** 4000),
           top=st.integers(min_value=-700, max_value=700),
           negative=st.booleans(), n=st.integers(min_value=1, max_value=120))
    @settings(max_examples=300, deadline=None)
    def test_to_decimal_is_nstr(self, man, top, negative, n):
        # top is the binary exponent of the leading bit: about 1e-210 .. 1e210,
        # across both the fixed-point and the scientific limits of every n
        exp = top - man.bit_length()
        man = -man if negative else man
        x = BigReal((man, exp), 4000, agreement_certificate=n)
        assert x.to_decimal(n) == mp.nstr(_exact_mpf(man, exp), n, strip_zeros=False)

    @pytest.mark.parametrize("text", (
        "0.99995", "0.999999999999", "9.99995e-6", "9.9999999999e-6", "0.000099999",
        "99999.5", "9.5", "1.0e-5", "0.0001", "123456789.0", "-0.99995", "-9.9999999e-6"))
    def test_to_decimal_carries(self, text):
        with mp.workprec(200):
            x = mp.mpf(text)
        for n in range(1, 16):
            assert BigReal(x, 200, n).to_decimal(n) == mp.nstr(x, n, strip_zeros=False)

    def test_zero(self):
        assert BigReal(0, 64).to_decimal(10) == mp.nstr(mp.mpf(0), 10, strip_zeros=False)

    @given(man=st.integers(min_value=1, max_value=2 ** 400 - 1),
           top=st.integers(min_value=-131, max_value=0))
    @settings(max_examples=300, deadline=None)
    def test_nstr_is_nstr_3(self, man, top):
        # dyadics from about 1e-40 to 1, the range of a relative difference
        exp = top - man.bit_length()
        assert nstr(man, exp, 3) == mp.nstr(_exact_mpf(man, exp), 3)

    @pytest.mark.parametrize("num, den, text", (
        (99951, 10 ** 24, "1.0e-19"),  # carries into the next decade
        # mpmath floors to about 29 bits before rounding the digits, so a
        # dyadic just above 9.995e-20 still prints 9.99e-20
        (9995, 10 ** 23, "9.99e-20"),
        (3, 10 ** 23, "3.0e-23"),  # strips to one zero, not to "3.00e-23"
        (25, 10 ** 8, "2.5e-7")))
    def test_nstr_carries_and_strips(self, num, den, text):
        man = -((-num << 128) // den)  # num/den rounded up at 2^-128
        assert nstr(man, -128, 3) == mp.nstr(_exact_mpf(man, -128), 3) == text


class TestAgreementDigits:
    def test_matches_float_formula(self):
        # -log10 of the relative difference kept at least 0.05 from an integer,
        # where the old float formula int(-log10(rel)) cannot round the wrong way
        rng = random.Random(1)
        with mp.workprec(400):
            for _ in range(300):
                hi = mp.mpf(rng.uniform(-50, 50)) * mp.mpf(10) ** rng.randint(-30, 30)
                if hi == 0:
                    continue
                lo = hi * (1 + rng.choice((-1, 1)) * mp.mpf(10) ** -(
                    rng.randint(0, 80) + rng.uniform(0.05, 0.95)))
                rel = abs(hi - lo) / abs(hi)
                assert abs(-mp.log10(rel) - mp.nint(-mp.log10(rel))) > 0.04
                for cap in (17, 40, 120):
                    old = 0 if rel >= 1 else min(cap, int(-mp.log10(rel)))
                    assert agreement_digits(lo, hi, cap) == old

    def test_edges(self):
        assert agreement_digits(5, 5, 17) == 17
        assert agreement_digits(3, 1, 17) == 0  # |hi - lo| > |hi|
        assert agreement_digits(0, 1, 17) == 0  # |hi - lo| = |hi|: d = 0
        assert agreement_digits(99, 100, 17) == 2  # 1 10^2 <= 100
        assert agreement_digits((1, -10), BigReal((1, -10), 64), 9) == 9
        assert agreement_digits(mp.mpf("1.5"), (3, -1), 9) == 9


def _within_units(got, want, w, units=2):
    """|got - want 2^w| < units, with want an mpf evaluated at ample precision."""
    return abs(got - mp.ldexp(want, w)) < units


class TestKernels:
    """Every kernel is off by less than its docstring's 2 units of 2^-w."""

    @pytest.mark.parametrize("p", (64, 128, 400, 1400))
    def test_constants(self, p):
        w = p + 64
        k = fixed_constants(w)
        with mp.workprec(w + 64):
            K = 2 * mp.pi / mp.sqrt(3)
            for got, want in ((k.pi, mp.pi), (k.sqrt3, mp.sqrt(3)), (k.ln3, mp.ln(3)),
                              (k.ln2, mp.ln(2)), (k.K, K), (k.c, mp.exp(-K))):
                assert _within_units(got, want, w)
            public = constants(p)
            for x, want in ((public.pi, k.pi), (public.sqrt3, k.sqrt3), (public.c, k.c)):
                assert (x.man, x.exp, x.precision) == (want, -w, p)

    @pytest.mark.parametrize("p", (64, 128, 400, 1400))
    def test_exp_and_sin(self, p):
        w = p + 64
        rng = random.Random(p)
        xs = [0, 1, -1, (4 << w) - 1, -(4 << w) + 1, fixed_constants(w).K]
        xs += [rng.randrange(-(4 << w) + 1, 4 << w) for _ in range(25)]
        with mp.workprec(w + 64):
            for x in xs:
                arg = mp.ldexp(x, -w)
                assert _within_units(exp(x, w), mp.exp(arg), w), x
                assert _within_units(sin(x, w), mp.sin(arg), w), x


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
            assert pair.I.agreement_certificate <= digits_of_bits(p)
            assert pair.J.agreement_certificate <= digits_of_bits(p)

    def test_doubling_N_changes_no_reported_digit(self):
        pair = eval_IJ(5, 1, 64)
        sums = _RunningSums(5, 1, 64)
        I, J = sums.advance(2 * pair.N_used)  # integers times 2^-w
        I, J = (I, -sums.w), (J, -sums.w)
        assert BigReal(I, 64, pair.I.agreement_certificate).to_decimal() == pair.I.to_decimal()
        assert BigReal(J, 64, pair.J.agreement_certificate).to_decimal() == pair.J.to_decimal()

    def test_second_round_sums_only_new_terms(self, monkeypatch):
        # (13, 3) at 30 digits needs two certificate rounds; each coefficient
        # is computed once and each term summed once across them
        blocks, grown = [], {"a": 0, "b": 0}
        advance, scaled = _RunningSums.advance, integer_kernel._ScaledPower.scaled

        def counted_advance(self, N):
            blocks.append((self.N, N))
            return advance(self, N)

        def counted_scaled(self, N):
            before = len(self.Y)
            out = scaled(self, N)
            grown[self.kind] += len(self.Y) - before
            return out

        monkeypatch.setattr(_RunningSums, "advance", counted_advance)
        monkeypatch.setattr(integer_kernel._ScaledPower, "scaled", counted_scaled)
        monkeypatch.setattr(integer_kernel, "_STORE", integer_kernel._Store())
        pair = eval_IJ(13, 3, 108)
        assert len(blocks) == 2 * 2  # the sums at N and N + 16 in each round
        assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
        assert blocks[-1][1] == pair.N_used
        assert grown == {"a": pair.N_used - 1, "b": pair.N_used - 1}  # Y_0 = 1 is given

    def test_carried_scale_keeps_late_blocks(self):
        # at w = 128 bits c^lo underflows a plain fixed point once lo > 24, which
        # would drop the blocks past it: about 2^23 units at lo = 40
        stepwise, whole = _RunningSums(5, 1, 64), _RunningSums(5, 1, 64)
        for N in (20, 40, 60, 80):
            got = stepwise.advance(N)
        want = whole.advance(80)
        assert all(abs(g - h) < 64 for g, h in zip(got, want))

    @pytest.mark.parametrize("p", (64, 200))
    @pytest.mark.parametrize("k", (1, 2, 3, 4))
    def test_unreduced_exponent(self, k, p):
        # 5k/25 = k/5: the same numbers, whatever scale the integers carry
        wide, narrow = eval_IJ(25, 5 * k, p), eval_IJ(5, k, p)
        assert wide.I.value == narrow.I.value and wide.J.value == narrow.J.value
        assert wide.I.agreement_certificate == narrow.I.agreement_certificate
        assert wide.J.agreement_certificate == narrow.J.agreement_certificate
        assert wide.N_used == narrow.N_used

    @given(l=st.sampled_from([l for l in range(5, 26) if math.gcd(l, 6) == 1]),
           data=st.data(), p=st.integers(min_value=64, max_value=400))
    @settings(max_examples=12, deadline=None)
    def test_matches_term_by_term_sum(self, l, data, p):
        j = data.draw(st.integers(min_value=1, max_value=l - 1))
        pair = eval_IJ(l, j, p)
        I_ref, J_ref = _term_by_term(l, j, pair.N_used, 2 * p + 64)
        with mp.workprec(2 * p + 64):
            assert abs(pair.I.value - I_ref) <= mp.ldexp(abs(I_ref), -(p + 24))
            assert abs(pair.J.value - J_ref) <= mp.ldexp(abs(J_ref), -(p + 24))

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
        pair = eval_IJ(5, 1, 96)
        sp = series_periods(pair)
        with mp.workprec(128):
            assert abs(sp.delta_period.value - 54 * mp.pi / 5 * pair.I.value) < mp.mpf(2) ** -90
            assert abs(sp.gamma_period.value - mp.mpf(27) / 5 * pair.J.value) < mp.mpf(2) ** -90

    def test_l5_magnitude_values(self):
        sp = series_periods(eval_IJ(5, 1, 64))
        assert rel_close(sp.delta_period.value, "14.503368", mp.mpf("1e-6"))
        assert rel_close(sp.gamma_period.value, "3.8755632", mp.mpf("1e-6"))

    def test_series_periods_of_pair(self):
        pair = eval_IJ(7, 3, 96)
        sp = series_periods(pair)
        assert sp._fields == ("delta_period", "gamma_period")
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
        assert tight.agreement_certificate <= digits_of_bits(64)

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

    @pytest.mark.parametrize("p", (128, 192))
    def test_noise_certifies_no_digit(self, p):
        # at z = i the law holds, so the residual is rounding noise below its bound
        res = eisenstein_transform_residual(mp.mpc(0, 1), 80, p)
        assert res.agreement_certificate == 0
        assert 0 < res.value < mp.mpf(2) ** -p

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
