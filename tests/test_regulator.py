import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp

from reglab.bigreal_periods import SIGN_POLICY, eval_IJ
from reglab.errors import UnsupportedL
from reglab.regulator import (
    _bareiss_det,
    _closed_form_from,
    build_matrix,
    regulator_closed_form,
    vandermonde_like_det,
)

ROOT = Path(__file__).resolve().parents[1]

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
                assert rel(v.value * v.value, target) < mp.mpf("1e-20")

    def test_small_cases(self):
        with mp.workprec(160):
            assert rel(vandermonde_like_det(3, 128).value, mp.sqrt(3)) < mp.mpf("1e-30")
        assert rel(vandermonde_like_det(5, 128).value, 5) < mp.mpf("1e-30")
        sq = vandermonde_like_det(7, 128).value ** 2
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
                assert rel(v.value, abs(mp.det(m))) < mp.mpf("1e-30")
            assert v.agreement_certificate == 38  # every digit of 128 bits


class TestMatrixAssembly:
    def test_shapes_and_coker(self):
        m5 = build_matrix(5, p=128)
        assert m5.shape == (3, 2)
        assert m5.rank() == 2
        assert m5.coker_dim() == 1
        m7 = build_matrix(7, p=128)
        assert m7.shape == (4, 3)
        assert m7.coker_dim() == 1

    def test_entries_match_sine_form(self):
        m = build_matrix(5, p=128)
        with mp.workprec(160):
            for p_idx, row in enumerate(m.entries, start=1):
                I_p = m.I_table[p_idx - 1].I.value
                for q_idx, entry in enumerate(row, start=1):
                    want = -2 * mp.sin(2 * mp.pi * p_idx * q_idx / 5) * (
                        54 * mp.pi / 5) * I_p
                    assert abs(entry.value - want) < mp.mpf("1e-30") * abs(want)

    @pytest.mark.parametrize("l", (5, 7, 11, 25))
    def test_entries_match_complex_product(self, l):
        # the reference: (zeta^(rq) - zeta^(-rq)) times the imaginary delta-arch period
        m = build_matrix(l, p=128)
        with mp.workprec(224):
            for r, row in enumerate(m.entries, start=1):
                period = mp.mpc(0, 54 * mp.pi / l * m.I_table[r - 1].I.value)
                tol = mp.mpf("1e-30") * 2 * abs(period)
                for q, entry in enumerate(row, start=1):
                    want = zeta_difference(l, r * q) * period
                    assert abs(want.imag) < tol
                    assert abs(entry.value - want.real) < tol

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


class TestDeterminantRoutes:
    def test_dual_route_agreement(self):
        for l in (5, 7, 11, 13):
            r = regulator_closed_form(l, p=128)
            assert rel(r.det_general.value, r.det_closed_form.value) < mp.mpf("1e-10")
            assert r.det_agreement_digits >= 10

    def test_worked_values(self):
        r5 = regulator_closed_form(5, p=128)
        assert abs(r5.value_e_ind.value - mp.mpf(E_IND_5)) < mp.mpf("1e-14")
        r7 = regulator_closed_form(7, p=128)
        assert abs(r7.value_e_ind.value - mp.mpf(E_IND_7)) < mp.mpf("1e-14")

    def test_normalization_relation(self):
        for l in (5, 11):
            r = regulator_closed_form(l, p=128)
            s = (l - 1) // 2
            with mp.workprec(192):
                lhs = r.value_e_ind.value
                rhs = mp.sqrt(l) / mp.pi ** s * r.value_e_ff.value
                assert rel(lhs, rhs) < mp.mpf(2) ** -120

    def test_nonvanishing_and_metadata(self):
        for l in (5, 7, 11):
            r = regulator_closed_form(l, p=96)
            assert r.value_e_ind.value > 0
            assert r.sign_policy == SIGN_POLICY
            assert r.normalization_verified is (l in (5, 7))

    def test_closed_form_from_full_table(self):
        # the j = 1 .. l-1 table of compute gives the same result as j = 1 .. k
        table = [eval_IJ(7, j, 96) for j in range(1, 7)]
        got = _closed_form_from(7, table, 96)
        want = regulator_closed_form(7, p=96)
        for a, b in zip(got, want):
            if hasattr(a, "agreement_certificate"):
                a, b = ((x.value, x.precision, x.agreement_certificate) for x in (a, b))
            assert a == b

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
    "build_matrix(7); vandermonde_like_det(9); print('mpmath' in sys.modules)")


def test_matrix_and_vandermonde_import_no_mpmath():
    """The fixed-point matrix and Vandermonde-like determinant run without mpmath; only rank() needs it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _REPORT_MPMATH],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().split() == ["False"]
