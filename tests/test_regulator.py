import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from det_reference import _bareiss_det, _full_block_det, _regulator_matrix, _skew_sine_column
from mpmath import mp
from mpf_reference import as_mpf

from reglab.bigreal import BigReal, PeriodPair, agreement_digits, digits_of_bits
from reglab.bigreal_periods import eval_IJ
from reglab.errors import UnsupportedL
from reglab.hypergeometric import period_table
from reglab.integer_kernel import hodge_and_dims
from reglab.regulator import (
    SIGN_POLICY,
    _sine_block,
    regulator_closed_form,
    vandermonde_like_det,
)

ROOT = Path(__file__).resolve().parents[1]
ADMISSIBLE_L = [l for l in range(5, 200) if l % 2 and l % 3]

# magnitudes of the normalized determinant for the two worked cases,
# quoted to 16 significant digits
E_IND_5 = "0.3461396319393535"
E_IND_7 = "0.6294878608605845"


def series_table(l, p, n=None):
    """The series route's pairs j = 1 .. n at p bits, n = (l + 1)/2 unless given."""
    return [eval_IJ(l, j, p) for j in range(1, (n or (l + 1) // 2) + 1)]


def made_up_table(l):
    """Pairs j = 1 .. l - 1 at l with I = J = 1, for an l that no period route admits."""
    one = BigReal(1, 128)
    return [PeriodPair(l, j, one, one, 0) for j in range(1, l)]


def rel(a, b):
    with mp.workprec(200):
        return abs(mp.mpf(a) - mp.mpf(b)) / abs(mp.mpf(b))


def zeta_difference(l, m):
    """zeta^m - zeta^(-m) with zeta = exp(2 pi i / l), in complex mpmath at the ambient precision."""
    zeta = mp.exp(2j * mp.pi / l)
    return zeta ** m - zeta ** (-m)


class TestVandermondeLike:
    def test_squared_identity_all_odd_l(self):
        for l in range(3, 26, 2):
            v = vandermonde_like_det(l, p=128)
            with mp.workprec(160):
                target = mp.mpf(l) ** ((l - 1) // 2)
                assert rel(as_mpf(v) * as_mpf(v), target) < mp.mpf("1e-20")

    def test_small_cases(self):
        with mp.workprec(160):
            assert rel(as_mpf(vandermonde_like_det(3, 128)), mp.sqrt(3)) < mp.mpf("1e-30")
        assert rel(as_mpf(vandermonde_like_det(5, 128)), 5) < mp.mpf("1e-30")
        sq = as_mpf(vandermonde_like_det(7, 128)) ** 2
        assert rel(sq, 343) < mp.mpf("1e-28")

    def test_certificate_comes_from_identity(self):
        v = vandermonde_like_det(9, p=128)
        assert v.agreement_certificate >= 20

    def test_rejects_even_or_small(self):
        for bad in (2, 4, 1, 0):
            with pytest.raises(ValueError):
                vandermonde_like_det(bad)

    def test_matches_complex_determinant(self):
        # the reference: mpmath's complex determinant of the zeta differences
        for l in range(3, 50, 2):
            k = (l - 1) // 2
            v = vandermonde_like_det(l, p=128)
            with mp.workprec(224):
                m = mp.matrix([[zeta_difference(l, a * b) for b in range(1, k + 1)]
                               for a in range(1, k + 1)])
                assert rel(as_mpf(v), abs(mp.det(m))) < mp.mpf("1e-30")
            assert v.agreement_certificate == 38  # every digit of 128 bits

    @pytest.mark.parametrize("l", ADMISSIBLE_L)
    def test_rows_k_minus_1_and_k_are_exact_negatives(self, l):
        # k + (k - 1) = l and _sine_column sets col[l - m] = -col[m]: the fact
        # regulator_closed_form's Laplace expansion along the J column rests on
        w, k = 128, (l + 1) // 2
        rows = _sine_block(l, k, w)
        assert rows[k - 1] == [-x for x in rows[k - 2]]

    @pytest.mark.parametrize("l", [l for l in ADMISSIBLE_L if l <= 49])
    def test_sine_block_squares_to_l(self, l):
        # V^2 = l Id (vandermonde_like_det), at w = 128 bits: each entry of V is
        # off by under 10 units, and the largest deviation measured is 51 units
        w, k = 128, (l - 1) // 2
        V = _sine_block(l, k, w)
        for i in range(k):
            for j in range(k):
                entry = sum(V[i][m] * V[m][j] for m in range(k)) >> w
                assert abs(entry - (l << w if i == j else 0)) <= 64, (i, j)


class TestMatrixAssembly:
    # the paper's h x (l-1)/2 matrix, built by the tests' reference (det_reference);
    # full column rank (l-1)/2 is the theorem V^2 = l Id (vandermonde_like_det)
    def test_shapes_and_coker(self):
        m5 = _regulator_matrix(series_table(5, 128, 4))
        assert (len(m5), len(m5[0])) == (3, 2)
        assert len(m5) - (5 - 1) // 2 == 1
        m7 = _regulator_matrix(series_table(7, 128, 6))
        assert (len(m7), len(m7[0])) == (4, 3)
        assert len(m7) - (7 - 1) // 2 == 1

    @pytest.mark.parametrize("l", (5, 7, 11, 13, 25))
    def test_rank_matches_svd(self, l):
        # the reference: singular values above 2^-48 of the largest, at 128 bits
        m = _regulator_matrix(series_table(l, 128, l - 1))
        with mp.workprec(128):
            sigma = mp.svd_r(mp.matrix([[as_mpf(e) for e in row] for row in m]),
                             compute_uv=False)
            tol = max(abs(x) for x in sigma) * mp.mpf(2) ** -48
            rank = sum(1 for x in sigma if abs(x) > tol)
        assert rank == (l - 1) // 2 == len(m[0])
        assert len(m) - rank == hodge_and_dims(l)["h"] - (l - 1) // 2

    def test_entries_match_sine_form(self):
        table = series_table(5, 128, 4)
        with mp.workprec(160):
            for p_idx, row in enumerate(_regulator_matrix(table), start=1):
                I_p = as_mpf(table[p_idx - 1].I)
                for q_idx, entry in enumerate(row, start=1):
                    want = -2 * mp.sin(2 * mp.pi * p_idx * q_idx / 5) * (
                        54 * mp.pi / 5) * I_p
                    assert abs(as_mpf(entry) - want) < mp.mpf("1e-30") * abs(want)

    @pytest.mark.parametrize("l", (5, 7, 11, 25))
    def test_entries_match_complex_product(self, l):
        # the reference: (zeta^(rq) - zeta^(-rq)) times the imaginary delta-arch period
        table = series_table(l, 128, l - 1)
        with mp.workprec(224):
            for r, row in enumerate(_regulator_matrix(table), start=1):
                period = mp.mpc(0, 54 * mp.pi / l * as_mpf(table[r - 1].I))
                tol = mp.mpf("1e-30") * 2 * abs(period)
                for q, entry in enumerate(row, start=1):
                    want = zeta_difference(l, r * q) * period
                    assert abs(want.imag) < tol
                    assert abs(as_mpf(entry) - want.real) < tol

    def test_entries_vanish_exactly_where_l_divides_rq(self):
        m = _regulator_matrix(series_table(25, 128, 24))
        zeros = [(r, q) for r, row in enumerate(m, start=1)
                 for q, entry in enumerate(row, start=1) if entry.man == 0]
        assert zeros == [(r, q) for r in range(1, len(m) + 1) for q in range(1, 13)
                         if r * q % 25 == 0]
        assert (5, 5) in zeros and (10, 10) in zeros

    def test_row_count_invariant(self):
        for l in (5, 7, 11):
            m = _regulator_matrix(series_table(l, 96, l - 1))
            assert len(m) >= (l + 1) // 2


class TestDeterminantRoutes:
    @pytest.mark.parametrize("p", (128, 340))
    @pytest.mark.parametrize("l", [l for l in ADMISSIBLE_L if l <= 49])
    def test_expansion_matches_the_full_block(self, l, p):
        table = series_table(l, p, (l + 1) // 2 + 1)
        r = regulator_closed_form(table)
        full, cap = _full_block_det(l, p, table), digits_of_bits(p)
        assert agreement_digits(r.det_closed_form, full, cap) == cap
        assert agreement_digits(full, r.det_closed_form, cap) == r.det_agreement_digits

    def test_large_l_without_elimination(self):
        # no O(s^3) elimination: Bareiss on V alone took 26.6 s of compute at (199, 30)
        table = period_table(199, 64)
        start = time.perf_counter()
        r = regulator_closed_form(table)
        assert time.perf_counter() - start < 2
        start = time.perf_counter()
        v = vandermonde_like_det(499)
        assert time.perf_counter() - start < 2
        assert (r.det_agreement_digits, v.agreement_certificate) == (19, 38)

    def test_dual_route_agreement(self):
        for l in (5, 7, 11, 13):
            table = series_table(l, 128)
            r = regulator_closed_form(table)
            full = BigReal(_full_block_det(l, 128, table), 128)
            assert rel(as_mpf(full), as_mpf(r.det_closed_form)) < mp.mpf("1e-10")
            assert agreement_digits(r.det_closed_form, full, 38) == 38
            assert r.det_agreement_digits >= 10

    def test_worked_values(self):
        r5 = regulator_closed_form(series_table(5, 128))
        assert abs(as_mpf(r5.value_e_ind) - mp.mpf(E_IND_5)) < mp.mpf("1e-14")
        r7 = regulator_closed_form(series_table(7, 128))
        assert abs(as_mpf(r7.value_e_ind) - mp.mpf(E_IND_7)) < mp.mpf("1e-14")

    def test_normalization_relation(self):
        for l in (5, 11):
            r = regulator_closed_form(series_table(l, 128))
            s = (l - 1) // 2
            with mp.workprec(192):
                lhs = as_mpf(r.value_e_ind)
                rhs = mp.sqrt(l) / mp.pi ** s * as_mpf(r.value_e_ff)
                assert rel(lhs, rhs) < mp.mpf(2) ** -120

    def test_nonvanishing_and_metadata(self):
        for l in (5, 7, 11):
            r = regulator_closed_form(series_table(l, 96))
            assert as_mpf(r.value_e_ind) > 0
            assert r.sign_policy == SIGN_POLICY
            assert r.normalization_verified is (l in (5, 7))

    def test_closed_form_from_full_table(self):
        # the j = 1 .. l-1 table of compute gives the same result as j = 1 .. k
        table = series_table(7, 96, 6)
        got = regulator_closed_form(table)
        want = regulator_closed_form(table[:4])
        for a, b in zip(got, want):
            if hasattr(a, "agreement_certificate"):
                a, b = ((as_mpf(x), x.precision, x.agreement_certificate) for x in (a, b))
            assert a == b
        assert got.l == 7 and got.value_e_ind.precision == 96

    @pytest.mark.parametrize("l", (5, 7, 13))
    def test_table_gives_the_same_result(self, l):
        # compute passes its j = 1 .. l-1 table; the result is the one its first
        # k = (l + 1)/2 pairs give
        fields = lambda r: [(x.man, x.exp, x.precision, x.agreement_certificate)
                            if hasattr(x, "agreement_certificate") else x for x in r]
        table = series_table(l, 128, l - 1)
        got = regulator_closed_form(table)
        assert fields(got) == fields(regulator_closed_form(table[:(l + 1) // 2]))
        assert got.l == l and got.value_e_ind.precision == 128

    def test_reads_l_and_p_from_the_table(self):
        r = regulator_closed_form(period_table(7, 96))
        assert r.l == 7
        assert {x.precision for x in r if isinstance(x, BigReal)} == {96}
        assert r.normalization_verified is True

    def test_rejects_a_table_not_led_by_j_1_to_k(self):
        # not from j = 1; too short for k = 4; l = 5 then l = 7
        for table in (period_table(7, 96)[1:], period_table(7, 96)[:3],
                      period_table(5, 96)[:1] + period_table(7, 96)[1:]):
            with pytest.raises(ValueError):
                regulator_closed_form(table)

    def test_bareiss_det_exact(self):
        assert _bareiss_det([[0, 1], [1, 0]]) == -1  # a zero pivot takes a row swap
        assert _bareiss_det([[0, 2, 1], [0, 3, 4], [5, 6, 7]]) == 25
        assert _bareiss_det([[1, 2], [2, 4]]) == 0
        assert _bareiss_det([[0, 1], [0, 2]]) == 0
        m = [[3, -7, 2, 11], [5, 1, -4, 6], [-2, 8, 9, -1], [4, 4, 0, 13]]
        with mp.workprec(200):
            assert _bareiss_det(m) == int(mp.nint(mp.det(mp.matrix(m))))

    def test_rejects_inadmissible(self):
        with pytest.raises(UnsupportedL):
            regulator_closed_form(made_up_table(9))
        with pytest.raises(UnsupportedL):
            regulator_closed_form(made_up_table(4))


@pytest.mark.parametrize("l", [l for l in ADMISSIBLE_L if l < 100])
def test_sign_of_det_v(l):
    # det V = (-1)^floor((l+1)/4) l^((l-1)/4) (vandermonde_like_det), against exact
    # elimination at w = 64; the sign stays out of the value returned (SIGN_POLICY)
    s, w = (l - 1) // 2, 64
    det = _bareiss_det(_sine_block(l, s, w))
    assert (det < 0) == ((l + 1) // 4 % 2 == 1)
    assert vandermonde_like_det(l).man > 0


@pytest.mark.parametrize("p", (58, 128))
@pytest.mark.parametrize("l", (5, 7, 13, 31))
def test_check_of_v_squared_fails_a_skewed_sine_column(monkeypatch, l, p):
    table = period_table(l, p)
    assert regulator_closed_form(table).det_agreement_digits == digits_of_bits(p)
    _skew_sine_column(monkeypatch)
    assert regulator_closed_form(table).det_agreement_digits < digits_of_bits(p)
    assert vandermonde_like_det(l, p).agreement_certificate < digits_of_bits(p)


# every admissible l <= 49 at 128 bits, and the ends of that range at 340
CROSS_ROUTE_CELLS = [(l, 128) for l in ADMISSIBLE_L if l <= 49] + [(5, 340), (49, 340)]


@pytest.mark.parametrize("l, p", CROSS_ROUTE_CELLS)
def test_regulator_agrees_across_period_routes(l, p):
    # the closed forms' table against the series route's, both at p bits
    closed = regulator_closed_form(period_table(l, p))
    series = regulator_closed_form(series_table(l, p))
    for a, b in ((closed.value_e_ind, series.value_e_ind),
                 (closed.det_closed_form, series.det_closed_form)):
        cap = min(a.agreement_certificate, b.agreement_certificate)
        assert cap == digits_of_bits(p)
        assert agreement_digits(a, b, cap) == cap
    assert closed.det_agreement_digits == series.det_agreement_digits


_REPORT_MPMATH = (
    "import sys; from reglab.regulator import vandermonde_like_det; "
    "from reglab.bigreal_periods import eval_IJ, series_periods; "
    "vandermonde_like_det(9); "
    "series_periods(eval_IJ(7, 3)); "
    "print('mpmath' in sys.modules)")


def test_matrix_and_vandermonde_import_no_mpmath():
    """The Vandermonde-like determinant and the period magnitudes run without mpmath."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _REPORT_MPMATH],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().split() == ["False"]
