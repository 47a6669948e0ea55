"""Regulator determinant for the surfaces 3y^2 + x^3 + (3x + 4t^l)^2 = 0.

The paper's regulator pairs the cycle classes built from the vanishing-cycle
fibration against the good algebraic 2-forms t^(r-1) dt dx/y.  Its row r
carries the factor (zeta^(rq) - zeta^(-rq)) = 2i sin(2 pi rq / l),
zeta = exp(2 pi i / l), times the delta-arch period, which is i times its
magnitude (54 pi / l) I(r): the real sine row -2 sin(2 pi rq / l),
q = 1 .. (l-1)/2, times that magnitude.  The sine block is those
period-free rows, read from one fixed-point column (_sine_column,
_sine_block), and V is its top square.  The regulator determinant is that
of the k x k block, k = (l+1)/2, whose row r is sine row r scaled by I(r)
with the gamma-arch J(r) appended; its Laplace expansion over |det V|
(regulator_closed_form) and V^2 = l Id (vandermonde_like_det) make it the
paper's closed form l^((l-1)/4) * prod I(r) * (J(k-1)/I(k-1) + J(k)/I(k)).
No matrix is assembled or eliminated: the one input that can go wrong at
run time, the sine column, is checked by V^2 = l Id on one vector in
O(s^2), and det_agreement_digits is the digits that check holds to.
Everything runs in Python-int fixed point on the kernels of bigreal, at
GUARD = 64 bits beyond the requested precision, from the one period table
the caller passes, from either route: compute passes the series route's
(bigreal_periods), and the closed forms' (hypergeometric.period_table)
serves as well.  Results are magnitudes (SIGN_POLICY).
"""

import math
from collections import namedtuple

from .bigreal import (GUARD, BigReal, PeriodPair, agreement_digits, digits_of_bits,
                      fixed_constants, sin)
from .integer_kernel import require_lj

SIGN_POLICY = "magnitudes only; sign left unresolved"


# l, the BigReals det_closed_form, value_e_ff and value_e_ind, sign_policy
# (a str), det_agreement_digits (an int) and normalization_verified
RegulatorResult = namedtuple("RegulatorResult", "l det_closed_form value_e_ff value_e_ind "
                             "sign_policy det_agreement_digits normalization_verified")


def _sine_column(l: int, w: int) -> list[int]:
    """-2 sin(2 pi m / l) = i (zeta^m - zeta^(-m)) for m = 0 .. l - 1 at w bits, zeta = exp(2 pi i / l).

    Each is off by less than 10 units; m = 0 gives exactly 0.
    """
    pi = fixed_constants(w).pi
    # sin(2 pi m / l) for 2m < l; the other m by sin(2 pi m / l) = -sin(2 pi (l - m) / l)
    half = [sin(2 * pi * m // l, w) for m in range((l + 1) // 2)]
    return [-2 * half[m] if 2 * m < l else 2 * half[l - m] for m in range(l)]


def _sine_block(l: int, n: int, w: int) -> list[list[int]]:
    """Rows r = 1 .. n of the sine block at w bits: col[r q mod l] for q = 1 .. (l - 1)/2,
    where col is _sine_column."""
    col = _sine_column(l, w)
    return [[col[r * q % l] for q in range(1, (l + 1) // 2)] for r in range(1, n + 1)]


def _leading_pairs(table: list[PeriodPair], n: int) -> list[PeriodPair]:
    """table[:n], which must be the pairs j = 1 .. n of the l of table[0].

    require_lj(l, n) raises UnsupportedL for an l outside gcd(l, 6) = 1, and
    ValueError for n > l - 1 (l = 1); any other table raises ValueError.
    """
    l = table[0].l
    require_lj(l, n)
    if [(pr.l, pr.j) for pr in table[:n]] != [(l, j) for j in range(1, n + 1)]:
        raise ValueError("need the pairs j = 1 .. {} of l = {} first in the table".format(n, l))
    return table[:n]


def _fourth_root(l: int, e: int, w: int) -> int:
    """floor(l^(e/4) 2^w), exactly: floor(n^(1/4)) = isqrt(isqrt(n))."""
    return math.isqrt(math.isqrt(l ** e << 4 * w))


def vandermonde_like_det(l: int, p: int = 128) -> BigReal:
    """|det (zeta^(pq) - zeta^(-pq))| for p, q = 1 .. (l-1)/2, which is l^((l-1)/4).

    With s = (l-1)/2, V is the square sine block, V_pq = -2 sin(2 pi p q / l)
    for p, q = 1 .. s, and V^2 = l Id: by 2 sin x sin y = cos(x - y) - cos(x + y),
        (V^2)_pr = 2 sum_{q=1..s} (cos(2 pi q (p - r) / l) - cos(2 pi q (p + r) / l)),
    and sum_{q=1..s} cos(2 pi q n / l) is (l - 1)/2 when l | n and -1/2
    otherwise, half the full sum over q mod l less the term q = 0; l divides
    p - r only when p = r, and never p + r, which lies in 2 .. l - 1.  So
    (det V)^2 = l^s and |det V| = l^((l-1)/4) != 0, which is returned at
    w = p + 64 bits.  V is symmetric, so its eigenvalues are +-sqrt(l), b of
    them negative, and its trace, as (l - q)^2 = q^2 mod l, is
        -2 sum_{q=1..s} sin(2 pi q^2 / l) = -Im G(l) = (s - 2b) sqrt(l),
    G(l) = sum_{q mod l} exp(2 pi i q^2 / l) the quadratic Gauss sum: it is
    sqrt(l) for l = 1 mod 4 and i sqrt(l) for l = 3 mod 4, for every odd l
    (Berndt, Evans and Williams, Gauss and Jacobi Sums, ch. 1).  So
    b = floor((s + 1)/2) and det V = (-1)^floor((l+1)/4) l^((l-1)/4), which
    the tests check against exact elimination.  The sign is of det V only;
    the orientation of the cycles is not modelled, so the value is a
    magnitude (SIGN_POLICY).

    The certificate checks the one input that can go wrong, the sine column,
    by Freivalds' check of V^2 = l Id: with x = (1, 2, .., s), two
    matrix-vector products give V(V x) in O(s^2), and the certificate is the
    least number of digits, up to the digits of p, to which an entry agrees
    with l x.
    """
    if not isinstance(l, int) or l < 3 or l % 2 == 0:
        raise ValueError("need odd integer l >= 3, got {!r}".format(l))
    s = (l - 1) // 2
    w = p + GUARD
    V = _sine_block(l, s, w)
    x = range(1, s + 1)
    Vx = [sum(v * xq for v, xq in zip(row, x)) for row in V]  # at w bits
    cert = min(agreement_digits((sum(v * y for v, y in zip(row, Vx)), -2 * w), l * xi,
                                digits_of_bits(p))
               for row, xi in zip(V, x))
    return BigReal((_fourth_root(l, l - 1, w), -w), p, cert)


def regulator_closed_form(table: list[PeriodPair]) -> RegulatorResult:
    """The determinant in closed form, and the normalized values sqrt(l) det and pi^s det.

    With k = (l+1)/2, the determinant is that of the k x k block whose row r
    is row r of the sine block scaled by I(r), followed by J(r).  The sine
    parts of rows k-1 and k are exact negatives, since k + (k-1) = l and
    _sine_column has col[l - m] = -col[m].  So along the J column every
    minor that keeps both rows vanishes.  Deleting row k leaves
    diag(I(1), ..., I(k-1)) V, V the period-free (k-1) x (k-1) sine block;
    deleting row k-1 leaves the same with I(k) for I(k-1) and its last row
    negated.  With the signs (-1)^(r+k) of the expansion,

        det = prod_{r<=k-2} I(r) * det V * (J(k-1) I(k) + J(k) I(k-1)).

    |det V| = l^((l-1)/4) (vandermonde_like_det), so det_closed_form is the
    expansion with that closed form, as vandermonde_like_det returns it, in
    place of |det V|; nothing eliminates a matrix.  e_ind is nonzero,
    exactly: |det V| is, and every I(r) and J(r) is positive, which the
    series route checks on every pair it returns (bigreal_periods), so each
    factor of the expansion is positive at any precision.
    det_agreement_digits is vandermonde_like_det's certificate, the digits
    to which the sine block passes the check V^2 = l Id; no period enters
    it.  table is a period table that starts at j = 1 and holds j = 1 .. k
    or more, such as compute's j = 1 .. l - 1; l is table[0].l, p the
    precision of its I, and only the first k pairs are read.  The closed
    form generalizes the k = 3 and k = 4 worked cases; for l other than 5
    and 7 the sqrt(l)/pi^s normalization follows the same pattern but has
    no independent confirmation, so normalization_verified is False there.
    """
    l, p = table[0].l, table[0].I.precision
    k = (l + 1) // 2
    s = (l - 1) // 2
    pairs = _leading_pairs(table, k)
    cert = min(min(pr.I.agreement_certificate, pr.J.agreement_certificate) for pr in pairs)
    w = p + GUARD
    I = [pr.I.fixed(w) for pr in pairs]
    J = [pr.J.fixed(w) for pr in pairs]
    # prod I(p) * (J(k-1)/I(k-1) + J(k)/I(k)) without a division, times 2^(k w)
    core = math.prod(I[:k - 2]) * (J[k - 2] * I[k - 1] + J[k - 1] * I[k - 2])
    det_v = vandermonde_like_det(l, p)
    closed = core * det_v.fixed(w)
    scale = -(k + 1) * w
    return RegulatorResult(
        l=l,
        det_closed_form=BigReal((closed, scale), p, cert),
        value_e_ff=BigReal((closed * fixed_constants(w).pi ** s, scale - s * w), p, cert),
        value_e_ind=BigReal((core * _fourth_root(l, l + 1, w), scale), p, cert),
        sign_policy=SIGN_POLICY,
        det_agreement_digits=det_v.agreement_certificate,
        normalization_verified=l in (5, 7),
    )
