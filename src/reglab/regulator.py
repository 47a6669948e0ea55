"""Regulator matrix and determinant for the surfaces 3y^2 + x^3 + (3x + 4t^l)^2 = 0.

The matrix pairs the cycle classes built from the vanishing-cycle fibration
against the good algebraic 2-forms t^(p-1) dt dx/y.  Row p carries the factor
(zeta^(pq) - zeta^(-pq)) = 2i sin(2 pi pq / l) times the delta-arch period,
which is i times its magnitude (54 pi / l) I(p), so every entry is the real
number -2 sin(2 pi pq / l) (54 pi / l) I(p).  That formula is written once,
in _sine_column, and every block of it is built in _sine_block; the matrix
is real by construction, and the tests check it against the complex
product.  The regulator determinant is that of the top-left k x k block,
k = (l+1)/2, with row r scaled by I(r) and the gamma-arch column J(r)
appended.  Rows k-1 and k of its sine part are exact negatives, so its
Laplace expansion along the J column is
prod_{r<=k-2} I(r) * |det V| * (J(k-1) I(k) + J(k) I(k-1)), V the period-free
(k-1) x (k-1) sine block (regulator_closed_form).  V^2 = l Id
(RegulatorMatrix.rank) makes that the paper's closed form
l^((l-1)/4) * prod I(p) * (J(k-1)/I(k-1) + J(k)/I(k)).  regulator_closed_form
evaluates the expansion with |det V| from fraction-free elimination
(vandermonde_like_det, the one determinant per (l, w)) beside the closed form,
and det_agreement_digits compares the two: it measures the computed |det V|
against l^((l-1)/4), and no period enters it.  Everything runs in Python-int
fixed point on the kernels of bigreal, at GUARD = 64 bits beyond the requested
precision, from the series route's periods (bigreal_periods) or a table the
caller has.  The matrix has full column rank and e_ind is nonzero, both
exactly (RegulatorMatrix.rank), so no step needs a numeric rank.  Results are
magnitudes (SIGN_POLICY).
"""

import math
from collections import namedtuple

from .bigreal import (GUARD, BigReal, PeriodPair, agreement_digits, digits_of_bits,
                      fixed_constants, sin)
from .bigreal_periods import eval_IJ, series_periods
from .errors import UnsupportedL
from .integer_kernel import hodge_and_dims

SIGN_POLICY = "magnitudes only; sign left unresolved"


# l, the BigReals det_general, det_closed_form, value_e_ff and value_e_ind,
# sign_policy (a str), det_agreement_digits (an int) and normalization_verified
RegulatorResult = namedtuple("RegulatorResult", "l det_general det_closed_form value_e_ff "
                             "value_e_ind sign_policy det_agreement_digits normalization_verified")


def _require_admissible(l: int) -> None:
    if not isinstance(l, int) or l < 5 or math.gcd(l, 6) != 1:
        raise UnsupportedL("need integer l >= 5 with gcd(l, 6) = 1, got {!r}".format(l))


class RegulatorMatrix:
    """The h x (l-1)/2 real matrix of delta-arch periods against cycles.

    h = l - floor((l-1)/3) - 1 rows (one per form t^(p-1) dt dx/y),
    (l-1)/2 columns (one per independent cycle pairing).
    """

    def __init__(self, l: int, entries: list[list[BigReal]], I_table: list[PeriodPair]):
        self.l = l
        self.h = len(entries)
        self.entries = entries
        self.I_table = I_table

    @property
    def shape(self):
        return (self.h, (self.l - 1) // 2)

    def rank(self) -> int:
        """(l-1)/2, the number of columns: the matrix has full column rank.

        Row r is |P_r| times row r of the sine block (-2 sin(2 pi r q / l)),
        so with s = (l-1)/2 the top s rows are diag(|P_1|, ..., |P_s|) times
        the square sine block V, V_pq = -2 sin(2 pi p q / l) for
        p, q = 1 .. s.  V^2 = l Id: by 2 sin x sin y = cos(x - y) - cos(x + y),
            (V^2)_pr = 2 sum_{q=1..s} (cos(2 pi q (p - r) / l) - cos(2 pi q (p + r) / l)),
        and sum_{q=1..s} cos(2 pi q n / l) is (l - 1)/2 when l | n and -1/2
        otherwise, half the full sum over q mod l less the term q = 0; l
        divides p - r only when p = r, and never p + r, which lies in
        2 .. l - 1.  So (det V)^2 = l^s and |det V| = l^((l-1)/4) != 0, the
        identity vandermonde_like_det checks numerically.  Every
        |P_r| = (54 pi / l) I(r) is positive, which eval_IJ checks, so the
        top square block is invertible, exactly, at any precision.  For the
        same reasons e_ind is nonzero: regulator_closed_form expands the
        determinant as prod I(r) * |det V| * (J(k-1) I(k) + J(k) I(k-1)), and
        eval_IJ checks I, J > 0 as well.
        """
        return self.shape[1]

    def coker_dim(self) -> int:
        return self.h - self.rank()


def _sine_column(l: int, w: int) -> list[int]:
    """-2 sin(2 pi m / l) = i (zeta^m - zeta^(-m)) for m = 0 .. l - 1 at w bits, zeta = exp(2 pi i / l).

    Each is off by less than 10 units; m = 0 gives exactly 0.
    """
    pi = fixed_constants(w).pi
    # sin(2 pi m / l) for 2m < l; the other m by sin(2 pi m / l) = -sin(2 pi (l - m) / l)
    half = [sin(2 * pi * m // l, w) for m in range((l + 1) // 2)]
    return [-2 * half[m] if 2 * m < l else 2 * half[l - m] for m in range(l)]


def _sine_block(l: int, scales: list[int], w: int) -> list[list[int]]:
    """Rows r = 1 .. len(scales) of the sine block at w bits: col[r q mod l] * scales[r - 1] >> w
    for q = 1 .. (l - 1)/2, where col is _sine_column; a scale of 2^w keeps the sines as they are."""
    col = _sine_column(l, w)
    return [[col[r * q % l] * scale >> w for q in range(1, (l + 1) // 2)]
            for r, scale in enumerate(scales, start=1)]


def build_matrix(l: int, p: int = 128) -> RegulatorMatrix:
    """Assemble the regulator matrix from the series-route periods at w = p + 64 bits."""
    _require_admissible(l)
    h = hodge_and_dims(l)["h"]
    w = p + GUARD
    pairs = [eval_IJ(l, j, p) for j in range(1, h + 1)]
    # row r scaled by (54 pi / l) I(r)
    rows = _sine_block(l, [series_periods(pair).delta_period.fixed(w) for pair in pairs], w)
    entries = [[BigReal((x, -w), p, pair.I.agreement_certificate) for x in row]
               for row, pair in zip(rows, pairs)]
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
    det = abs(_bareiss_det(_sine_block(l, [1 << w] * k, w)))
    cert = agreement_digits(det * det, l ** k << 2 * k * w, digits_of_bits(p))
    return BigReal((det, -k * w), p, cert)


def _bareiss_det(rows: list[list[int]]) -> int:
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


def regulator_closed_form(l: int, p: int = 128,
                          table: list[PeriodPair] | None = None) -> RegulatorResult:
    """The determinant as its Laplace expansion and in closed form, and the normalized
    values sqrt(l) det and pi^s det.

    With k = (l+1)/2, the determinant is that of the k x k block whose row r
    is row r of the sine block scaled by I(r), followed by J(r).  The sine
    parts of rows k-1 and k are exact negatives, since k + (k-1) = l and
    _sine_column has col[l - m] = -col[m].  So along the J column every
    minor that keeps both rows vanishes.  Deleting row k leaves
    diag(I(1), ..., I(k-1)) V, V the period-free (k-1) x (k-1) sine block;
    deleting row k-1 leaves the same with I(k) for I(k-1) and its last row
    negated.  With the signs (-1)^(r+k) of the expansion,

        det = prod_{r<=k-2} I(r) * det V * (J(k-1) I(k) + J(k) I(k-1)).

    det_general is that expansion with |det V| from vandermonde_like_det;
    det_closed_form puts l^((l-1)/4) in its place, which |det V| equals
    (RegulatorMatrix.rank), and det_agreement_digits says how closely the two
    agree.  table is a period table at p bits that starts at j = 1 and holds
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
    cert = min(min(pr.I.agreement_certificate, pr.J.agreement_certificate) for pr in pairs)
    w = p + GUARD
    I = [pr.I.fixed(w) for pr in pairs]
    J = [pr.J.fixed(w) for pr in pairs]
    # prod I(p) * (J(k-1)/I(k-1) + J(k)/I(k)) without a division, times 2^(k w)
    core = math.prod(I[:k - 2]) * (J[k - 2] * I[k - 1] + J[k - 1] * I[k - 2])
    # the Laplace expansion: core times |det V| at s w bits
    general = BigReal((core * vandermonde_like_det(l, p).fixed(s * w), -(k + s) * w), p, cert)
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
