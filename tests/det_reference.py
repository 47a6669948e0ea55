"""The tests' references for the regulator: its matrix and exact (Bareiss) determinants.

reglab assembles and eliminates no matrix: |det V| of the sine block is the
closed form l^((l-1)/4), which regulator.vandermonde_like_det returns once
it has checked V^2 = l Id.  The tests check the paper's h x (l-1)/2
regulator matrix built here against the complex product that defines it,
check that closed form, its sign and the Laplace expansion of the regulator
determinant against the exact determinants computed here, and check that
the check of V^2 = l Id fails the one mutant of the sine column made here.
"""

from reglab import regulator
from reglab.bigreal import GUARD, BigReal
from reglab.bigreal_periods import series_periods
from reglab.integer_kernel import hodge_and_dims
from reglab.regulator import _sine_block


def _regulator_matrix(table):
    """The paper's h x (l-1)/2 regulator matrix from the first h pairs of a period table,
    h = hodge_and_dims(l)["h"], as rows of BigReals at the table's precision p.

    Row r is sine row r times the delta-arch magnitude (54 pi / l) I(r) at
    w = p + 64 bits (series_periods), floored; its certificate is that of I(r).
    """
    l, p = table[0].l, table[0].I.precision
    h, w = hodge_and_dims(l)["h"], p + GUARD
    assert [(pr.l, pr.j) for pr in table[:h]] == [(l, j) for j in range(1, h + 1)]
    rows = []
    for row, pr in zip(_sine_block(l, h, w), table):
        delta = series_periods(pr).delta_period.fixed(w)
        rows.append([BigReal((x * delta >> w, -w), p, pr.I.agreement_certificate) for x in row])
    return rows


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


def _full_block_det(l, p, table):
    """|det| of the k x k block, row r the sine block scaled by I(r), then J(r), by exact
    Bareiss, as a (man, exp) pair: the reference for the Laplace expansion."""
    k, w = (l + 1) // 2, p + GUARD
    block = [[x * pr.I.fixed(w) >> w for x in row] + [pr.J.fixed(w)]
             for row, pr in zip(_sine_block(l, k, w), table)]
    return abs(_bareiss_det(block)), -k * w


def _skew_sine_column(monkeypatch):
    """Make regulator._sine_column return col[1], which enters V at every l
    (r = q = 1), 2^(GUARD + 8) units too large."""
    real = regulator._sine_column

    def skewed(l, w):
        col = real(l, w)
        col[1] += 1 << GUARD + 8
        return col

    monkeypatch.setattr(regulator, "_sine_column", skewed)
