"""The eleven acceptance checks, one test per criterion.

Each test prints a single pass line when its assertions hold, so a verbose
run doubles as a checklist.  Tolerances and runtime budgets are part of the
contract and are asserted, not just reported.
"""

import math
import time
from fractions import Fraction

from mpmath import mp

from reglab.bigreal import constants
from reglab.bigreal_periods import eval_IJ
from reglab.elliptic_oracle import direct_periods, inner_integrals
from reglab.exact_series import (
    a_coeffs,
    b_coeffs,
    eisenstein_numeric,
    eisenstein_transform_residual,
    formal_alpha,
)
from reglab.gauss_manin import connection_matrix, degeneracy_locus, picard_fuchs, pf_relation
from reglab.integer_kernel import eisenstein_ints
from reglab.regulator import regulator_closed_form, vandermonde_like_det
from reglab.weierstrass import (
    Polynomial,
    RationalFunction,
    euler_epsilon,
    example_family,
    fiber_list,
    hodge_and_dims,
)

I_TABLE_5 = ["0.42745977255318", "0.151180954233147",
             "0.0871841692346256", "0.0603840144077692"]
J_TABLE_5 = ["0.717696894965804", "0.377159120670032",
             "0.261572572611421", "0.202670503662525"]
I_TABLE_7 = ["0.740059830730164", "0.24646699651114", "0.137265313181901",
             "0.0929578147374374", "0.0696363855176379", "0.0554349861351089"]
J_TABLE_7 = ["0.987994510350351", "0.51401702238944", "0.354195498081428",
             "0.273237679671921", "0.224004116344261", "0.19073921727221"]

GOOD_L = [l for l in range(1, 26) if math.gcd(l, 6) == 1]


def _matches_printed(value, printed: str) -> bool:
    digits = len(printed.replace("0.", "").replace(".", "").lstrip("0"))
    return mp.nstr(value, digits, strip_zeros=False) == printed


def _report(n, text):
    print("criterion {}: pass ({})".format(n, text))


def test_criterion_01_table_l5():
    start = time.monotonic()
    pairs = [eval_IJ(5, j, 128) for j in range(1, 5)]
    elapsed = time.monotonic() - start
    for pair, i_ref, j_ref in zip(pairs, I_TABLE_5, J_TABLE_5):
        assert _matches_printed(pair.I.value, i_ref)
        assert _matches_printed(pair.J.value, j_ref)
    assert elapsed < 10
    _report(1, "8 values, every printed digit, {:.2f}s".format(elapsed))


def test_criterion_02_table_l7():
    start = time.monotonic()
    pairs = [eval_IJ(7, j, 128) for j in range(1, 7)]
    elapsed = time.monotonic() - start
    for pair, i_ref, j_ref in zip(pairs, I_TABLE_7, J_TABLE_7):
        assert _matches_printed(pair.I.value, i_ref)
        assert _matches_printed(pair.J.value, j_ref)
    assert elapsed < 20
    _report(2, "12 values, every printed digit, {:.2f}s".format(elapsed))


def test_criterion_03_regulator_values():
    r5 = regulator_closed_form(5, p=128)
    r7 = regulator_closed_form(7, p=128)
    with mp.workprec(192):
        assert abs(abs(r5.value_e_ind.value) - mp.mpf("0.346139631939354")) < mp.mpf("1e-12")
        assert abs(abs(r7.value_e_ind.value) - mp.mpf("0.629487860860585")) < mp.mpf("1e-12")
        for r in (r5, r7):
            diff = abs(r.det_general.value - r.det_closed_form.value)
            assert diff < mp.mpf("1e-10") * abs(r.det_closed_form.value)
    _report(3, "e_ind values within 1e-12, det routes within 1e-10")


def test_criterion_04_exact_coefficients():
    alpha = formal_alpha()
    a = a_coeffs(alpha, 4)
    b = b_coeffs(alpha, 3)
    F = Fraction
    assert a[2] == Polynomial([3, -27])
    assert a[3] == Polynomial([9, F(-81, 2), F(729, 2)])
    assert b[1] == Polynomial([-9, -15])
    assert b[2] == Polynomial([27, F(387, 2), F(225, 2)])
    e3a = eisenstein_ints("E3a", 8)
    e3b = eisenstein_ints("E3b", 8)
    a0 = a_coeffs(Fraction(0), 8)
    b0 = b_coeffs(Fraction(0), 8)
    for n in range(1, 8):
        assert a0[n] == e3b[n]
        assert b0[n] == e3a[n]
    _report(4, "a2, a3, b1, b2 as exact polynomials; alpha = 0 specializations")


def test_criterion_05_oracle_equivalence():
    start = time.monotonic()
    worst = mp.mpf(0)
    with mp.workprec(160):
        for l in (5, 7):
            for j in range(1, l):
                pair = eval_IJ(l, j, 128)
                got = direct_periods(l, j, 64)
                want_delta = 54 * mp.pi / l * pair.I.value
                want_gamma = mp.mpf(27) / l * pair.J.value
                worst = max(worst,
                            abs(got.delta_abs.value - want_delta) / want_delta,
                            abs(got.gamma_abs.value - want_gamma) / want_gamma)
        assert worst < mp.mpf("1e-6")
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _report(5, "worst relative gap {} in {:.1f}s".format(mp.nstr(worst, 3), elapsed))


def test_criterion_06_symbolic_invariants():
    t = Polynomial((0, 1))
    for l in (1, 5, 7):
        W = example_family(l)
        conn = connection_matrix(W)
        assert conn.trace().is_zero()
        upper = conn.omega_hat_to_star
        want = RationalFunction(Polynomial((-l,)),
                                (t - t ** (l + 1)) * 6)
        assert upper == want
        assert degeneracy_locus(W) == set()
    pf1 = picard_fuchs(example_family(1))
    assert pf1.A == RationalFunction((t - t ** 2) * 6)
    _report(6, "trace zero, connection coefficient, empty locus, A = 6t(1-t)")


def test_criterion_07_pf_relation_span():
    t = Polynomial((0, 1))
    for l, i in ((5, 1), (7, 1), (7, 2)):
        W = example_family(l)
        target = (t ** (i - 1)) * (9 * i * i) - (t ** (i - 1 + l)) * ((l + 3 * i) * (2 * l + 3 * i))
        spanned = pf_relation(picard_fuchs(W), i) * Fraction(3 * l, 2)
        assert spanned == RationalFunction(target)
    _report(7, "scaled monomial relation equals pf_relation exactly")


def test_criterion_08_fiber_suite():
    for l in GOOD_L:
        W = example_family(l)
        fibers = fiber_list(W)
        inventory = {(("infinity" if f.place.is_infinity else str(f.place.polynomial)),
                      f.type) for f in fibers}
        infinity_type = "IV*" if l % 3 == 1 else "IV"
        expected = {("t", "I_{}".format(3 * l)), ("infinity", infinity_type)}
        expected.add(("t - 1" if l == 1 else "t^{} - 1".format(l), "I_1"))
        assert inventory == expected
        eps, a, _, _ = euler_epsilon(fibers)
        assert eps == (l - 1) // 3 + 1
        assert a == 1
        assert hodge_and_dims(l)["h20"] == eps - 1
    _report(8, "classification, epsilon, h20 for all admissible l <= 25")


def test_criterion_09_vandermonde_determinant():
    for l in range(3, 26, 2):
        v = vandermonde_like_det(l, p=128)
        with mp.workprec(192):
            target = mp.mpf(l) ** ((l - 1) // 2)
            assert abs(v.value * v.value - target) < mp.mpf("1e-20") * target
        assert v.agreement_certificate >= 20
    _report(9, "det squared identity to 20+ digits for odd l <= 25")


def test_criterion_10_modularity():
    for y, n in ((1, 80), (2, 200)):
        res = eisenstein_transform_residual(mp.mpc(0, y), N=n, p=128)
        assert res.value < mp.mpf("1e-10")
    with mp.workprec(192):
        c = constants(160).c.value
        e3a = eisenstein_numeric("E3a", c, N=96, p=160)
        e3b = eisenstein_numeric("E3b", c, N=96, p=160)
        assert abs(e3a.value - 27 * e3b.value) < mp.mpf("1e-20") * abs(e3a.value)
        t_value = e3a.value / (e3a.value + 27 * e3b.value)
        assert abs(t_value - mp.mpf(1) / 2) < mp.mpf("1e-20")
    _report(10, "transformation residuals and fixed-point identities")


def test_criterion_11_pf_ode_residual():
    h = mp.mpf("0.001")
    with mp.workprec(96):
        for t0 in (mp.mpf("0.2"), mp.mpf("0.5"), mp.mpf("0.8")):
            u = [inner_integrals(1, t0 + k * h, p=96).delta_inner.value
                 for k in (-1, 0, 1)]
            du = (u[2] - u[0]) / (2 * h)
            ddu = (u[2] - 2 * u[1] + u[0]) / (h * h)
            A = 6 * t0 * (1 - t0)
            dA = 6 - 12 * t0
            B = mp.mpf(-4) / 3
            residual = A * ddu + dA * du + B * u[1]
            scale = abs(A * ddu) + abs(dA * du) + abs(B * u[1])
            assert abs(residual) / scale < mp.mpf("1e-4")
    _report(11, "second-order equation residual below 1e-4 at three points")
