import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp
from mpf_reference import as_mpf

from reglab import regulator
from reglab.bigreal import GUARD, agreement_digits, digits_of_bits
from reglab.bigreal_periods import eval_IJ
from reglab.errors import UnsupportedL
from reglab.regulator import (
    SIGN_POLICY,
    _bareiss_det,
    _sine_block,
    build_matrix,
    regulator_closed_form,
    vandermonde_like_det,
)

ROOT = Path(__file__).resolve().parents[1]
ADMISSIBLE_L = [l for l in range(5, 200) if l % 2 and l % 3]

# magnitudes of the normalized determinant for the two worked cases,
# quoted to 16 significant digits
E_IND_5 = "0.3461396319393535"
E_IND_7 = "0.6294878608605845"


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
        rows = _sine_block(l, [1 << w] * k, w)
        assert rows[k - 1] == [-x for x in rows[k - 2]]

    @pytest.mark.parametrize("l", [l for l in ADMISSIBLE_L if l <= 49])
    def test_sine_block_squares_to_l(self, l):
        # V^2 = l Id (RegulatorMatrix.rank), at w = 128 bits: each entry of V is
        # off by under 10 units, and the largest deviation measured is 51 units
        w, k = 128, (l - 1) // 2
        V = _sine_block(l, [1 << w] * k, w)
        for i in range(k):
            for j in range(k):
                entry = sum(V[i][m] * V[m][j] for m in range(k)) >> w
                assert abs(entry - (l << w if i == j else 0)) <= 64, (i, j)


class TestMatrixAssembly:
    def test_shapes_and_coker(self):
        m5 = build_matrix(5, p=128)
        assert m5.shape == (3, 2)
        assert m5.rank() == 2
        assert m5.coker_dim() == 1
        m7 = build_matrix(7, p=128)
        assert m7.shape == (4, 3)
        assert m7.coker_dim() == 1

    @pytest.mark.parametrize("l", (5, 7, 11, 13, 25))
    def test_rank_matches_svd(self, l):
        # the reference: singular values above 2^-48 of the largest, at 128 bits
        m = build_matrix(l, p=128)
        with mp.workprec(128):
            sigma = mp.svd_r(mp.matrix([[as_mpf(e) for e in row] for row in m.entries]),
                             compute_uv=False)
            tol = max(abs(x) for x in sigma) * mp.mpf(2) ** -48
            assert m.rank() == sum(1 for x in sigma if abs(x) > tol) == (l - 1) // 2
        assert m.coker_dim() == m.h - m.rank()

    def test_entries_match_sine_form(self):
        m = build_matrix(5, p=128)
        with mp.workprec(160):
            for p_idx, row in enumerate(m.entries, start=1):
                I_p = as_mpf(m.I_table[p_idx - 1].I)
                for q_idx, entry in enumerate(row, start=1):
                    want = -2 * mp.sin(2 * mp.pi * p_idx * q_idx / 5) * (
                        54 * mp.pi / 5) * I_p
                    assert abs(as_mpf(entry) - want) < mp.mpf("1e-30") * abs(want)

    @pytest.mark.parametrize("l", (5, 7, 11, 25))
    def test_entries_match_complex_product(self, l):
        # the reference: (zeta^(rq) - zeta^(-rq)) times the imaginary delta-arch period
        m = build_matrix(l, p=128)
        with mp.workprec(224):
            for r, row in enumerate(m.entries, start=1):
                period = mp.mpc(0, 54 * mp.pi / l * as_mpf(m.I_table[r - 1].I))
                tol = mp.mpf("1e-30") * 2 * abs(period)
                for q, entry in enumerate(row, start=1):
                    want = zeta_difference(l, r * q) * period
                    assert abs(want.imag) < tol
                    assert abs(as_mpf(entry) - want.real) < tol

    def test_entries_vanish_exactly_where_l_divides_rq(self):
        m = build_matrix(25, p=128)
        zeros = [(r, q) for r, row in enumerate(m.entries, start=1)
                 for q, entry in enumerate(row, start=1) if entry.man == 0]
        assert zeros == [(r, q) for r in range(1, m.h + 1) for q in range(1, 13)
                         if r * q % 25 == 0]
        assert (5, 5) in zeros and (10, 10) in zeros

    def test_row_count_invariant(self):
        for l in (5, 7, 11):
            m = build_matrix(l, p=96)
            assert m.h >= (l + 1) // 2

    def test_rejects_inadmissible(self):
        for bad in (3, 4, 6, 9, 10, 15):
            with pytest.raises(UnsupportedL):
                build_matrix(bad)


def _full_block_det(l, p, table):
    """|det| of the k x k block, row r the sine block scaled by I(r), then J(r), by exact
    Bareiss, as a (man, exp) pair: the reference for the Laplace expansion."""
    k, w = (l + 1) // 2, p + GUARD
    I = [pr.I.fixed(w) for pr in table[:k]]
    block = [row + [pr.J.fixed(w)] for row, pr in zip(_sine_block(l, I, w), table)]
    return abs(_bareiss_det(block)), -k * w


class TestDeterminantRoutes:
    @pytest.mark.parametrize("p", (128, 340))
    @pytest.mark.parametrize("l", [l for l in ADMISSIBLE_L if l <= 49])
    def test_expansion_matches_the_full_block(self, l, p):
        table = [eval_IJ(l, j, p) for j in range(1, (l + 3) // 2)]
        r = regulator_closed_form(l, p, table)
        full, cap = _full_block_det(l, p, table), digits_of_bits(p)
        assert agreement_digits(r.det_general, full, cap) == cap
        assert agreement_digits(full, r.det_closed_form, cap) == r.det_agreement_digits

    def test_one_period_free_determinant(self, monkeypatch):
        # the expansion eliminates V, the sine block without periods, and nothing else
        seen = []
        real = regulator._bareiss_det

        def recorded(rows):
            seen.append(rows)
            return real(rows)

        monkeypatch.setattr(regulator, "_bareiss_det", recorded)
        regulator_closed_form(13, 128)
        assert seen == [_sine_block(13, [1 << 192] * 6, 192)]

    def test_dual_route_agreement(self):
        for l in (5, 7, 11, 13):
            r = regulator_closed_form(l, p=128)
            assert rel(as_mpf(r.det_general), as_mpf(r.det_closed_form)) < mp.mpf("1e-10")
            assert r.det_agreement_digits >= 10

    def test_worked_values(self):
        r5 = regulator_closed_form(5, p=128)
        assert abs(as_mpf(r5.value_e_ind) - mp.mpf(E_IND_5)) < mp.mpf("1e-14")
        r7 = regulator_closed_form(7, p=128)
        assert abs(as_mpf(r7.value_e_ind) - mp.mpf(E_IND_7)) < mp.mpf("1e-14")

    def test_normalization_relation(self):
        for l in (5, 11):
            r = regulator_closed_form(l, p=128)
            s = (l - 1) // 2
            with mp.workprec(192):
                lhs = as_mpf(r.value_e_ind)
                rhs = mp.sqrt(l) / mp.pi ** s * as_mpf(r.value_e_ff)
                assert rel(lhs, rhs) < mp.mpf(2) ** -120

    def test_nonvanishing_and_metadata(self):
        for l in (5, 7, 11):
            r = regulator_closed_form(l, p=96)
            assert as_mpf(r.value_e_ind) > 0
            assert r.sign_policy == SIGN_POLICY
            assert r.normalization_verified is (l in (5, 7))

    def test_closed_form_from_full_table(self):
        # the j = 1 .. l-1 table of compute gives the same result as j = 1 .. k
        table = [eval_IJ(7, j, 96) for j in range(1, 7)]
        got = regulator_closed_form(7, 96, table)
        want = regulator_closed_form(7, p=96)
        for a, b in zip(got, want):
            if hasattr(a, "agreement_certificate"):
                a, b = ((as_mpf(x), x.precision, x.agreement_certificate) for x in (a, b))
            assert a == b

    @pytest.mark.parametrize("l", (5, 7, 13))
    def test_table_gives_the_same_result(self, l):
        # compute passes its j = 1 .. l-1 table; the result is the one eval_IJ's own table gives
        table = [eval_IJ(l, j, 128) for j in range(1, l)]
        fields = lambda r: [(x.man, x.exp, x.precision, x.agreement_certificate)
                            if hasattr(x, "agreement_certificate") else x for x in r]
        assert fields(regulator_closed_form(l, 128, table)) == fields(regulator_closed_form(l, 128))

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
            regulator_closed_form(9)
        with pytest.raises(UnsupportedL):
            regulator_closed_form(4)


_REPORT_MPMATH = (
    "import sys; from reglab.regulator import build_matrix, vandermonde_like_det; "
    "from reglab.bigreal_periods import eval_IJ, series_periods; "
    "m = build_matrix(7); m.rank(); m.coker_dim(); vandermonde_like_det(9); "
    "series_periods(eval_IJ(7, 3)); "
    "print('mpmath' in sys.modules)")


def test_matrix_and_vandermonde_import_no_mpmath():
    """The fixed-point matrix, its rank, the Vandermonde-like determinant and the
    period magnitudes run without mpmath."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _REPORT_MPMATH],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().split() == ["False"]
