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
Both run in Python-int fixed point at 64 bits beyond the requested
precision: the direct route by fraction-free elimination, the closed form
as one exact product; the matrix, its rank and the Vandermonde-like
determinant run in mpmath, which they import on first use.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple

from .bigreal_periods import (
    _GUARD,
    SIGN_POLICY,
    BigReal,
    PeriodPair,
    _agreement_digits,
    _digits_of_bits,
    _fixed_constants,
    _sin,
    eval_IJ,
    series_periods,
)
from .errors import UnsupportedL
from .weierstrass import hodge_and_dims


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
        from mpmath import mp

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
    from mpmath import mp

    _require_admissible(l)
    h = hodge_and_dims(l)["h"]
    width = (l - 1) // 2
    pairs = [eval_IJ(l, j, p) for j in range(1, h + 1)]
    entries = []
    realness_rel = mp.mpf("1e-20")  # tolerance relative to the row scale
    with mp.workprec(p + 32):
        zeta = mp.exp(2j * mp.pi / l)
        for row, pair in enumerate(pairs, start=1):
            period = mp.mpc(0, series_periods(pair).delta_period.value)  # delta arch is imaginary
            scale = 2 * abs(period)
            row_entries = []
            for q in range(1, width + 1):
                e = (zeta ** (row * q) - zeta ** (-row * q)) * period
                if abs(e.imag) > realness_rel * scale:
                    raise UnsupportedL(
                        "entry ({}, {}) failed the realness check".format(row, q))
                row_entries.append(BigReal(e.real, p, pair.I.agreement_certificate))
            entries.append(row_entries)
    return RegulatorMatrix(l, entries, pairs)


def vandermonde_like_det(l: int, p: int = 128) -> BigReal:
    """|det (zeta^(pq) - zeta^(-pq))| for p, q = 1 .. (l-1)/2; squares to l^((l-1)/2)."""
    if not isinstance(l, int) or l < 3 or l % 2 == 0:
        raise ValueError("need odd integer l >= 3, got {!r}".format(l))
    from mpmath import mp

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


def _bareiss_det(rows: List[List[int]]) -> int:
    """The determinant of a square integer matrix by fraction-free (Bareiss) elimination.

    Every division is exact, so the result is the exact determinant.
    """
    m = [list(row) for row in rows]
    k, sign, prev = len(m), 1, 1
    for i in range(k - 1):
        if not m[i][i]:
            swap = next((r for r in range(i + 1, k) if m[r][i]), None)
            if swap is None:
                return 0
            m[i], m[swap], sign = m[swap], m[i], -sign
        pivot = m[i][i]
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                m[r][c] = (m[r][c] * pivot - m[r][i] * m[i][c]) // prev
        prev = pivot
    return sign * m[k - 1][k - 1]


def _general_det_from(l: int, pairs: List[PeriodPair], p: int) -> BigReal:
    """|det| of the k x k block, exactly, from its entries at w = p + 64 bits."""
    k = (l + 1) // 2
    w = p + _GUARD
    pi = _fixed_constants(w).pi
    # sin(2 pi m / l) for 2m < l; the other m by sin(2 pi m / l) = -sin(2 pi (l - m) / l)
    half = [_sin(2 * pi * m // l, w) for m in range((l + 1) // 2)]
    col = [-2 * half[m] if 2 * m < l else 2 * half[l - m] for m in range(l)]
    rows = []
    for row, pair in enumerate(pairs, start=1):
        I = pair.I.fixed(w)
        rows.append([col[row * q % l] * I >> w for q in range(1, k)] + [pair.J.fixed(w)])
    cert = min(min(pr.I.agreement_certificate, pr.J.agreement_certificate)
               for pr in pairs)
    return BigReal((abs(_bareiss_det(rows)), -k * w), p, cert)


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
    w = p + _GUARD
    I = [pr.I.fixed(w) for pr in pairs]
    J = [pr.J.fixed(w) for pr in pairs]
    # prod I(p) * (J(k-1)/I(k-1) + J(k)/I(k)) without a division, times 2^(k w)
    core = math.prod(I[:k - 2]) * (J[k - 2] * I[k - 1] + J[k - 1] * I[k - 2])
    # l^(e/4) at w bits: floor(n^(1/4)) = isqrt(isqrt(n))
    root4 = lambda e: math.isqrt(math.isqrt(l ** e << 4 * w))
    closed = core * root4(l - 1)
    scale = -(k + 1) * w
    return RegulatorResult(
        l=l,
        det_general=general,
        det_closed_form=BigReal((closed, scale), p, cert),
        value_e_ff=BigReal((closed * _fixed_constants(w).pi ** s, scale - s * w), p, cert),
        value_e_ind=BigReal((core * root4(l + 1), scale), p, cert),
        sign_policy=SIGN_POLICY,
        det_agreement_digits=_agreement_digits(general, (closed, scale), _digits_of_bits(p)),
        normalization_verified=l in (5, 7),
    )
