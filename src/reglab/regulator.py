"""Regulator matrix and determinant for the surfaces 3y^2 + x^3 + (3x + 4t^l)^2 = 0.

The matrix pairs the cycle classes built from the vanishing-cycle fibration
against the good algebraic 2-forms t^(p-1) dt dx/y.  Row p carries the factor
(zeta^(pq) - zeta^(-pq)) times the delta-arch period magnitude; the product
of the purely imaginary cyclotomic difference with the purely imaginary
period lands on the real axis, which is checked rather than assumed.  The
top-left square block augmented with the gamma-arch column has a determinant
computable two ways: directly, and in the closed form
l^((l-1)/4) * prod I(p) * (J(k-1)/I(k-1) + J(k)/I(k)) with k = (l+1)/2.
The two routes are always compared; the closed form is never trusted alone.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple

from mpmath import mp

from .bigreal_periods import (
    SIGN_POLICY,
    BigReal,
    PeriodPair,
    _agreement_digits,
    _digits_of_bits,
    eval_IJ,
    series_periods,
)
from .errors import UnsupportedL
from .weierstrass import hodge_and_dims

# entries must land on the real axis; tolerance is relative to the row scale
_REALNESS_REL = mp.mpf("1e-20")


class RegulatorResult(NamedTuple):
    l: int
    det_general: BigReal
    det_closed_form: BigReal
    value_e_ff: BigReal
    value_e_ind: BigReal
    sign_policy: str
    det_agreement_digits: int
    normalization_verified: bool


def _require_admissible(l: int) -> None:
    if not isinstance(l, int) or l < 5 or math.gcd(l, 6) != 1:
        raise UnsupportedL("need integer l >= 5 with gcd(l, 6) = 1, got {!r}".format(l))


class RegulatorMatrix:
    """The h x (l-1)/2 real matrix of delta-arch periods against cycles.

    h = l - floor((l-1)/3) - 1 rows (one per form t^(p-1) dt dx/y),
    (l-1)/2 columns (one per independent cycle pairing).
    """

    def __init__(self, l: int, entries: List[List[BigReal]], I_table: List[PeriodPair]):
        self.l = l
        self.h = len(entries)
        self.entries = entries
        self.I_table = I_table
        if self.h < (l + 1) // 2:
            raise UnsupportedL("matrix has too few rows for l = {}".format(l))

    @property
    def shape(self):
        return (self.h, (self.l - 1) // 2)

    def rank(self) -> int:
        prec = self.I_table[0].I.precision
        with mp.workprec(prec):
            m = mp.matrix([[e.value for e in row] for row in self.entries])
            sigma = mp.svd_r(m, compute_uv=False)
            top = max(abs(s) for s in sigma)
            tol = top * mp.mpf(2) ** (-min(48, prec // 2))
            return sum(1 for s in sigma if abs(s) > tol)

    def coker_dim(self) -> int:
        return self.h - self.rank()


def build_matrix(l: int, p: int = 128) -> RegulatorMatrix:
    """Assemble the regulator matrix from the series-route periods."""
    _require_admissible(l)
    h = hodge_and_dims(l)["h"]
    width = (l - 1) // 2
    pairs = [eval_IJ(l, j, p) for j in range(1, h + 1)]
    entries = []
    with mp.workprec(p + 32):
        zeta = mp.exp(2j * mp.pi / l)
        for row, pair in enumerate(pairs, start=1):
            period = mp.mpc(0, series_periods(pair).delta_period.value)  # delta arch is imaginary
            scale = 2 * abs(period)
            row_entries = []
            for q in range(1, width + 1):
                e = (zeta ** (row * q) - zeta ** (-row * q)) * period
                if abs(e.imag) > _REALNESS_REL * scale:
                    raise UnsupportedL(
                        "entry ({}, {}) failed the realness check".format(row, q))
                row_entries.append(BigReal(e.real, p, pair.I.agreement_certificate))
            entries.append(row_entries)
    return RegulatorMatrix(l, entries, pairs)


def vandermonde_like_det(l: int, p: int = 128) -> BigReal:
    """|det (zeta^(pq) - zeta^(-pq))| for p, q = 1 .. (l-1)/2; squares to l^((l-1)/2)."""
    if not isinstance(l, int) or l < 3 or l % 2 == 0:
        raise ValueError("need odd integer l >= 3, got {!r}".format(l))
    k = (l - 1) // 2
    with mp.workprec(p + 32):
        zeta = mp.exp(2j * mp.pi / l)
        m = mp.matrix(k, k)
        for a in range(1, k + 1):
            for b in range(1, k + 1):
                m[a - 1, b - 1] = zeta ** (a * b) - zeta ** (-a * b)
        value = abs(mp.det(m))
        cert = _agreement_digits(value * value, mp.mpf(l) ** k, _digits_of_bits(p))
    return BigReal(value, p, cert)


def _period_table(l: int, p: int) -> List[PeriodPair]:
    k = (l + 1) // 2
    return [eval_IJ(l, j, p) for j in range(1, k + 1)]


def regulator_general_det(l: int, p: int = 128) -> BigReal:
    """|det| of the k x k block: columns -2 sin(2 pi pq / l) I(p), last column J(p)."""
    _require_admissible(l)
    return _general_det_from(l, _period_table(l, p), p)


def _general_det_from(l: int, pairs: List[PeriodPair], p: int) -> BigReal:
    k = (l + 1) // 2
    with mp.workprec(p + 32):
        m = mp.matrix(k, k)
        for row, pair in enumerate(pairs, start=1):
            for q in range(1, k):
                m[row - 1, q - 1] = -2 * mp.sin(2 * mp.pi * row * q / l) * pair.I.value
            m[row - 1, k - 1] = pair.J.value
        value = abs(mp.det(m))
    cert = min(min(pr.I.agreement_certificate, pr.J.agreement_certificate)
               for pr in pairs)
    return BigReal(value, p, cert)


def regulator_closed_form(l: int, p: int = 128) -> RegulatorResult:
    """Both determinant routes plus the normalized values sqrt(l) det and pi^s det.

    The closed form generalizes the k = 3 and k = 4 worked cases; for l other
    than 5 and 7 the sqrt(l)/pi^s normalization follows the same pattern but
    has no independent confirmation, so normalization_verified is False there.
    """
    _require_admissible(l)
    return _closed_form_from(l, _period_table(l, p), p)


def _closed_form_from(l: int, table: List[PeriodPair], p: int) -> RegulatorResult:
    """regulator_closed_form on a period table that starts at j = 1 and holds j = 1 .. k or more."""
    k = (l + 1) // 2
    s = (l - 1) // 2
    pairs = table[:k]
    general = _general_det_from(l, pairs, p)
    cert = general.agreement_certificate
    with mp.workprec(p + 32):
        prod_I = mp.mpf(1)
        for pr in pairs:
            prod_I *= pr.I.value
        ratio = (pairs[k - 2].J.value / pairs[k - 2].I.value
                 + pairs[k - 1].J.value / pairs[k - 1].I.value)
        closed = mp.mpf(l) ** (mp.mpf(l - 1) / 4) * prod_I * ratio
        e_ind = mp.sqrt(l) * closed
        e_ff = mp.pi ** s * closed
        agreement = _agreement_digits(general.value, closed, _digits_of_bits(p))
    return RegulatorResult(
        l=l,
        det_general=general,
        det_closed_form=BigReal(closed, p, cert),
        value_e_ff=BigReal(e_ff, p, cert),
        value_e_ind=BigReal(e_ind, p, cert),
        sign_policy=SIGN_POLICY,
        det_agreement_digits=agreement,
        normalization_verified=l in (5, 7),
    )
