"""Regulator matrix and determinant for the surfaces 3y^2 + x^3 + (3x + 4t^l)^2 = 0.

The matrix pairs the cycle classes built from the vanishing-cycle fibration
against the good algebraic 2-forms t^(p-1) dt dx/y.  Row p carries the factor
(zeta^(pq) - zeta^(-pq)) = 2i sin(2 pi pq / l) times the delta-arch period,
which is i times its magnitude (54 pi / l) I(p), so every entry is the real
number -2 sin(2 pi pq / l) (54 pi / l) I(p).  That formula is written once,
in _sine_column, and the matrix is real by construction; the tests check it
against the complex product.  The top-left square block augmented with the
gamma-arch column has a determinant computable two ways: directly, and in
the closed form
l^((l-1)/4) * prod I(p) * (J(k-1)/I(k-1) + J(k)/I(k)) with k = (l+1)/2.
The two routes are always compared; the closed form is never trusted alone.
Everything runs in Python-int fixed point at 64 bits beyond the requested
precision: the matrix, the direct route and the Vandermonde-like
determinant by fraction-free elimination of the sine column, the closed
form as one exact product.  Only RegulatorMatrix.rank uses mpmath, which it
imports on first use.
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


def _sine_column(l: int, w: int) -> List[int]:
    """-2 sin(2 pi m / l) = i (zeta^m - zeta^(-m)) for m = 0 .. l - 1 at w bits, zeta = exp(2 pi i / l).

    Each is off by less than 10 units; m = 0 gives exactly 0.
    """
    pi = _fixed_constants(w).pi
    # sin(2 pi m / l) for 2m < l; the other m by sin(2 pi m / l) = -sin(2 pi (l - m) / l)
    half = [_sin(2 * pi * m // l, w) for m in range((l + 1) // 2)]
    return [-2 * half[m] if 2 * m < l else 2 * half[l - m] for m in range(l)]


def build_matrix(l: int, p: int = 128) -> RegulatorMatrix:
    """Assemble the regulator matrix from the series-route periods at w = p + 64 bits."""
    _require_admissible(l)
    h = hodge_and_dims(l)["h"]
    w = p + _GUARD
    col = _sine_column(l, w)
    pi_54 = 54 * _fixed_constants(w).pi // l  # 54 pi / l
    pairs = [eval_IJ(l, j, p) for j in range(1, h + 1)]
    entries = []
    for row, pair in enumerate(pairs, start=1):
        period = pi_54 * pair.I.fixed(w) >> w  # |delta-arch period| = (54 pi / l) I(row)
        entries.append([BigReal((col[row * q % l] * period >> w, -w), p,
                                pair.I.agreement_certificate)
                        for q in range(1, (l + 1) // 2)])
    return RegulatorMatrix(l, entries, pairs)


def vandermonde_like_det(l: int, p: int = 128) -> BigReal:
    """|det (zeta^(pq) - zeta^(-pq))| for p, q = 1 .. (l-1)/2; squares to l^((l-1)/2).

    The exact determinant of the sine column's block at w = p + 64 bits,
    certified by the digits its square shares with l^((l-1)/2).
    """
    if not isinstance(l, int) or l < 3 or l % 2 == 0:
        raise ValueError("need odd integer l >= 3, got {!r}".format(l))
    k = (l - 1) // 2
    w = p + _GUARD
    col = _sine_column(l, w)
    det = abs(_bareiss_det([[col[a * b % l] for b in range(1, k + 1)]
                            for a in range(1, k + 1)]))
    cert = _agreement_digits(det * det, l ** k << 2 * k * w, _digits_of_bits(p))
    return BigReal((det, -k * w), p, cert)


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
    col = _sine_column(l, w)
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
    return _closed_form_from(l, [eval_IJ(l, j, p) for j in range(1, (l + 1) // 2 + 1)], p)


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
