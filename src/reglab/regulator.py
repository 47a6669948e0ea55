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
Everything runs in Python-int fixed point on the kernels of bigreal, at
GUARD = 64 bits beyond the requested precision, from the series route's
periods (bigreal_periods) or a table the caller has: the matrix, the direct
route and the Vandermonde-like determinant by fraction-free elimination of
the sine column, the closed form as one exact product.  The matrix has full
column rank by the Vandermonde-like identity (RegulatorMatrix.rank), so no
step needs mpmath.  Results are magnitudes (SIGN_POLICY).
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional

from .bigreal import (GUARD, BigReal, PeriodPair, agreement_digits, digits_of_bits,
                      fixed_constants, sin)
from .bigreal_periods import eval_IJ, series_periods
from .errors import UnsupportedL
from .integer_kernel import hodge_and_dims

SIGN_POLICY = "magnitudes only; sign left unresolved"


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
        """(l-1)/2, the number of columns: the matrix has full column rank.

        Row r is |P_r| times row r of the sine block (-2 sin(2 pi r q / l)),
        so the top (l-1)/2 rows are diag(|P_1|, ..., |P_(l-1)/2|) times the
        square sine block.  That block's determinant squares to l^((l-1)/2)
        (vandermonde_like_det), so it is invertible, and every
        |P_r| = (54 pi / l) I(r) is positive, which eval_IJ checks.  The
        top square block is then invertible, exactly, at any precision.
        """
        return self.shape[1]

    def coker_dim(self) -> int:
        return self.h - self.rank()


def _sine_column(l: int, w: int) -> List[int]:
    """-2 sin(2 pi m / l) = i (zeta^m - zeta^(-m)) for m = 0 .. l - 1 at w bits, zeta = exp(2 pi i / l).

    Each is off by less than 10 units; m = 0 gives exactly 0.
    """
    pi = fixed_constants(w).pi
    # sin(2 pi m / l) for 2m < l; the other m by sin(2 pi m / l) = -sin(2 pi (l - m) / l)
    half = [sin(2 * pi * m // l, w) for m in range((l + 1) // 2)]
    return [-2 * half[m] if 2 * m < l else 2 * half[l - m] for m in range(l)]


def build_matrix(l: int, p: int = 128) -> RegulatorMatrix:
    """Assemble the regulator matrix from the series-route periods at w = p + 64 bits."""
    _require_admissible(l)
    h = hodge_and_dims(l)["h"]
    w = p + GUARD
    col = _sine_column(l, w)
    pairs = [eval_IJ(l, j, p) for j in range(1, h + 1)]
    entries = []
    for row, pair in enumerate(pairs, start=1):
        period = series_periods(pair).delta_period.fixed(w)  # (54 pi / l) I(row)
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
    w = p + GUARD
    col = _sine_column(l, w)
    det = abs(_bareiss_det([[col[a * b % l] for b in range(1, k + 1)]
                            for a in range(1, k + 1)]))
    cert = agreement_digits(det * det, l ** k << 2 * k * w, digits_of_bits(p))
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
    w = p + GUARD
    col = _sine_column(l, w)
    rows = []
    for row, pair in enumerate(pairs, start=1):
        I = pair.I.fixed(w)
        rows.append([col[row * q % l] * I >> w for q in range(1, k)] + [pair.J.fixed(w)])
    cert = min(min(pr.I.agreement_certificate, pr.J.agreement_certificate)
               for pr in pairs)
    return BigReal((abs(_bareiss_det(rows)), -k * w), p, cert)


def regulator_closed_form(l: int, p: int = 128,
                          table: Optional[List[PeriodPair]] = None) -> RegulatorResult:
    """Both determinant routes plus the normalized values sqrt(l) det and pi^s det.

    table is a period table at p bits that starts at j = 1 and holds
    j = 1 .. (l + 1)/2 or more, such as compute's; without one, eval_IJ
    builds j = 1 .. (l + 1)/2.  The closed form generalizes the k = 3 and
    k = 4 worked cases; for l other than 5 and 7 the sqrt(l)/pi^s
    normalization follows the same pattern but has no independent
    confirmation, so normalization_verified is False there.
    """
    _require_admissible(l)
    k = (l + 1) // 2
    s = (l - 1) // 2
    pairs = table[:k] if table is not None else [eval_IJ(l, j, p) for j in range(1, k + 1)]
    general = _general_det_from(l, pairs, p)
    cert = general.agreement_certificate
    w = p + GUARD
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
        value_e_ff=BigReal((closed * fixed_constants(w).pi ** s, scale - s * w), p, cert),
        value_e_ind=BigReal((core * root4(l + 1), scale), p, cert),
        sign_policy=SIGN_POLICY,
        det_agreement_digits=agreement_digits(general, (closed, scale), digits_of_bits(p)),
        normalization_verified=l in (5, 7),
    )
