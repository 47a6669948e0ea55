"""Closed forms of the periods I(j), J(j) from hypergeometric functions.

With a = j/l and F(u) = 2F1(1/3, 2/3; 1; u), Ramanujan's theory of signature 3
(Berndt, Bhargava and Garvan, Trans. AMS 347, 1995) gives

    I(j) = Gamma(a)^2 / (27 Gamma(a + 1/3) Gamma(a + 2/3))
    J(j) = 2 pi / (27 sqrt3) * integral_0^1 u^(a-1) F(u) du.

This route uses neither the q-series nor quadrature, so `compute` checks the
series route against it.  The J integral is split at u = 1/2:

  on [0, 1/2]  F(u) = sum c_n u^n with c_n = (1/3)_n (2/3)_n / n!^2, and the
               piece is sum c_n 2^-(n+a) / (n+a);
  on [1/2, 1]  v = 1 - u and the logarithmic case of DLMF 15.8.10 give
               F(1 - v) = (sqrt3 / 2 pi) sum c_n v^n (k_n - ln v), with
               k_0 = 3 ln 3 and k_(n+1) = k_n + 2/(n+1) - 1/(n+1/3) - 1/(n+2/3).
               Times (1 - v)^(a-1) = sum beta_m v^m, beta_m = (1-a)_m / m!,
               term by term over [0, 1/2]:
                 int_0^(1/2) v^M (k - ln v) dv = w_M (k + ln 2 + 1/(M+1)),
                 w_M = 2^-(M+1) / (M+1).
               So the piece is (sqrt3 / 2 pi) sum_m beta_m S_m, where
                 S_m = sum_n c_n (k_n + ln 2 + 1/(n+m+1)) w_(n+m)
               does not depend on a and is built once per table.

Tail bounds: 0 < c_n <= 1, 0 < beta_m <= 1 and 0 < k_n <= 3 ln 3 (k_n falls
to 0).  Past N terms the first piece is at most 2^(1-N); summing the second
over n + m < N leaves layers n + m = M >= N of at most
(M + 1) (3 ln 3 + ln 2 + 1) w_M < 5 * 2^-(M+1), so at most 5 * 2^-N in all.
With the prefactors, J is then off by at most 2^-N, and J >= 2 pi / (27 sqrt3)
> 1/8 (F >= 1, u^(a-1) >= 1), so by at most 2^(3-N) relative.  Rounding
(sums of positive terms, fewer than N^2 operations at 32 guard bits) adds
less than 2^(3-N) more for N < 2^13.
"""

from __future__ import annotations

import math
from typing import List

from mpmath import mp

from .bigreal_periods import BigReal, PeriodPair, _digits_of_bits, _require_lj


def _shared(N: int) -> tuple:
    """(c_n 2^-n for n < N, S_m for m < N): the parts of every J(j) that do not depend on a."""
    third = mp.mpf(1) / 3
    c, k = [mp.mpf(1)], [3 * mp.ln(3)]
    for n in range(N - 1):
        c.append(c[n] * (n + third) * (n + 1 - third) / (n + 1) ** 2)
        k.append(k[n] + mp.mpf(2) / (n + 1) - 1 / (n + third) - 1 / (n + 1 - third))
    w = [mp.ldexp(mp.mpf(1) / (M + 1), -(M + 1)) for M in range(N)]
    ln2 = mp.ln(2)
    ck = [cn * (kn + ln2) for cn, kn in zip(c, k)]
    w1 = [wM / (M + 1) for M, wM in enumerate(w)]
    S = [mp.fdot(ck[:N - m], w[m:]) + mp.fdot(c[:N - m], w1[m:]) for m in range(N)]
    return [mp.ldexp(cn, -n) for n, cn in enumerate(c)], S


def period_table(l: int, p: int = 64) -> List[PeriodPair]:
    """(I(j), J(j)) for j = 1..l-1 from the closed forms, certified to the digits of p bits.

    N = p + 8 terms put the truncation and rounding of J below 2^(4-N)
    relative; I has only the rounding of four Gamma values.
    """
    _require_lj(l, 1)
    N = p + 8
    digits = _digits_of_bits(p)
    cert_J = min(digits, int((N - 4) * math.log10(2)))
    table = []
    with mp.workprec(p + 32):
        c_half, S = _shared(N)
        third = mp.mpf(1) / 3
        pref_A = 2 * mp.pi / (27 * mp.sqrt(3))
        for j in range(1, l):
            a = mp.mpf(j) / l
            I = mp.gamma(a) ** 2 / (27 * mp.gamma(a + third) * mp.gamma(a + 1 - third))
            lower = mp.power(2, -a) * mp.fdot(c_half, [1 / (n + a) for n in range(N)])
            beta = [mp.mpf(1)]
            for m in range(N - 1):
                beta.append(beta[m] * (m + 1 - a) / (m + 1))
            J = pref_A * lower + mp.fdot(beta, S) / 27
            table.append(PeriodPair(l, j, BigReal(I, p, digits), BigReal(J, p, cert_J), N))
    return table
