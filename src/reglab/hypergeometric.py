"""Closed forms of the periods I(j), J(j) from hypergeometric functions.

With a = j/l and F(u) = 2F1(1/3, 2/3; 1; u), Ramanujan's theory of signature 3
(Berndt, Bhargava and Garvan, Trans. AMS 347, 1995) gives

    I(j) = Gamma(a)^2 / (27 Gamma(a + 1/3) Gamma(a + 2/3))
         = sqrt3 / (54 pi) B(a, 1/3) B(a, 2/3)
    J(j) = 2 pi / (27 sqrt3) * integral_0^1 u^(a-1) F(u) du,

the Beta form by Gamma(1/3) Gamma(2/3) = 2 pi / sqrt3.  This route uses
neither the q-series nor quadrature, so `compute` checks the series route
against it.  Every integral is split at u = 1/2 into series of positive
terms with ratio at most 1/2, so no Gamma value is needed:

  B(x, y)        with (1 - u)^(y-1) = sum_m (1-y)_m/m! u^m on [0, 1/2] and
                 the same in v = 1 - u on [1/2, 1],
                   B(x, y) = 2^-x sum_m (1-y)_m/m! 2^-m/(m+x)
                           + 2^-y sum_m (1-x)_m/m! 2^-m/(m+y);
  J on [0, 1/2]  F(u) = sum c_n u^n with c_n = (1/3)_n (2/3)_n / n!^2, and the
                 piece is sum c_n 2^-(n+a) / (n+a);
  J on [1/2, 1]  v = 1 - u and the logarithmic case of DLMF 15.8.10 give
                 F(1 - v) = (sqrt3 / 2 pi) sum c_n v^n (k_n - ln v), with
                 k_0 = 3 ln 3 and k_(n+1) = k_n + 2/(n+1) - 1/(n+1/3) - 1/(n+2/3)
                 = k_n - (9n + 5) / ((n+1)(3n+1)(3n+2)).
                 Times (1 - v)^(a-1), over [0, 1/2], the piece is
                 (sqrt3 / 2 pi) sum_n c_n (k_n I_n + L_n) with the moments
                   I_n = int_0^(1/2) v^n (1-v)^(a-1) dv,
                   L_n = int_0^(1/2) v^n (1-v)^(a-1) (-ln v) dv.
                 Integration by parts (the incomplete Beta recurrences of
                 DLMF 8.17) runs both forward once per j: I_0 = (1 - 2^-a)/a
                 and, for n >= 1,
                   I_n = (n I_(n-1) - 2^-(n+a)) / (n+a),
                   L_n = (n L_(n-1) - 2^-(n+a) (ln 2 + 1/n) - a I_n/n) / (n+a).
                 L_0 is a series: with (1 - v)^(a-1) = sum beta_m v^m,
                 beta_m = (1-a)_m / m!, and
                   int_0^(1/2) v^m (-ln v) dv = w_m (ln 2 + 1/(m+1)),
                   w_m = 2^-(m+1) / (m+1),
                 L_0 = sum_m beta_m w_m (ln 2 + 1/(m+1)).

Tail bounds: 0 < c_n <= 1/(n+1), 0 < beta_m <= 1, 0 < (1-y)_m/m! <= 1 and
0 < k_n <= 3 ln 3 (k_n falls to 0).  Past N terms a Beta sum loses less than
sum_(m>=N) 2^-m/m < 2^(1-N)/N of a sum above 1, so I is low by less than
2^(2-N)/N relative.  The first J piece loses at most 2^(1-N).  The second is
summed over n < N alone.  As 1 <= (1-v)^(a-1) <= 2 on [0, 1/2], I_n <= 2 w_n
and L_n <= 2 w_n (ln 2 + 1/(n+1)), so the terms n >= N add less than
sum_(n>=N) 5 * 2^-n/(n+1)^2 < 2^-N.  Cutting L_0 at m < N drops less than
2^-N/(N+1) (N >= 8), and each L_n inherits that times a product of factors
n/(n+a) < 1, so sum c_n L_n loses less than 2^-N (1 + ln N)/(N+1) < 2^-N.
With the prefactors, J is then off by at most 2^-N, and J >= 2 pi / (27 sqrt3)
> 1/8 (F >= 1, u^(a-1) >= 1), so by at most 2^(3-N) relative.

Rounding.  Everything is Python-int fixed point at w = p + 64 bits (units of
2^-w), with the kernels of bigreal: pi, sqrt3, ln 3 and ln 2 are off
by less than 2 units, and 2^-x = exp(-x ln 2) by less than 5.  A coefficient
list ((1-x)_m/m!, c_n) multiplies by a factor below 1 and floors at each
step, so entry m is low by less than m units, and a floored sum
sum_m coeff_m 2^-m/(m+x) is low by less than N + 1 units.  So each of the
two parts of B(x, y), which is above 1/2 times its sum, and B itself are off
by less than 2N + 14 units relative; I, which is above I(1) = sqrt3/(12 pi)
> 1/22 because B(x, y) falls as x grows, by less than 4N + 64.  In J, k_n is
off by less than n + 6 units and c_n k_n by less than 4n + 7.  Each step of
the moment recurrences scales the previous error by n/(n+a) < 1 and adds
O(1) units (2^-(n+a), taken as 2^-a shifted by n bits, is off by less than
3.5 for n >= 1), so I_n is off by less than 5/a + 2n + 5 units (5/a from
I_0) and L_n by less than 3n + 42 (5 from L_0; the 5/a reaches L_n only
through a I_n/n^2).  Then sum c_n (k_n I_n + L_n) is off by less than
30 (l + N) H_N units, H_N <= 1 + ln N the harmonic number; with the first
piece (below l + 1, off by less than 5l + N + 7) and the prefactors, J is
off by less than 4 (l + N) H_N units, 32 (l + N) H_N relative.  For
N = p + 8 < 2^20 and l < 2^20 both roundings stay below 2^-(p+20) relative.
"""

from __future__ import annotations

from typing import List

from .bigreal import GUARD, BigReal, PeriodPair, digits_of_bits, exp, fixed_constants
from .integer_kernel import require_lj


def _binomial_series(num: int, den: int, N: int, w: int) -> List[int]:
    """(1 - x)_m / m! for m < N at w bits, x = num/den in (0, 1]: the coefficients
    of (1 - u)^(x-1); entry m is low by less than m units."""
    t = 1 << w
    out = [t]
    for m in range(1, N):
        t = t * (m * den - num) // (m * den)  # times (m - x)/m
        out.append(t)
    return out


def _half_sum(coeffs: List[int], den: int, num: int) -> int:
    """sum_m coeffs_m 2^-m / (m + num/den), each term floored once."""
    return sum((coeff * den >> m) // (m * den + num) for m, coeff in enumerate(coeffs))


def _shared(N: int, w: int) -> tuple:
    """(c_n, c_n k_n) for n < N at w bits: the parts of every J(j) that do not depend on a."""
    k = fixed_constants(w)
    c, kn = [1 << w], 3 * k.ln3
    ck = [kn]
    for n in range(N - 1):
        c.append(c[n] * (3 * n + 1) * (3 * n + 2) // (9 * (n + 1) ** 2))
        kn -= ((9 * n + 5) << w) // ((n + 1) * (3 * n + 1) * (3 * n + 2))
        ck.append(c[-1] * kn >> w)
    return c, ck


def _moments(j: int, l: int, beta: List[int], two_a: int, ln2: int, w: int):
    """(I_n, L_n) for n < len(beta) at w bits, a = j/l: the moments of
    (1 - v)^(a-1) and (1 - v)^(a-1) (-ln v) over [0, 1/2], from
    beta_m = (1-a)_m/m!, 2^-a and ln 2 (module docstring)."""
    one = 1 << w
    I = (one - two_a) * l // j
    L = sum((b * (ln2 + one // (m + 1)) >> m + 1) // (m + 1) for m, b in enumerate(beta)) >> w
    yield I, L
    two_a_ln2 = two_a * ln2 >> w
    for n in range(1, len(beta)):
        t = two_a >> n  # 2^-(n+a)
        I = (n * I - t) * l // (n * l + j)
        # 2^-(n+a) (ln 2 + 1/n) as 2^-a ln 2 shifted by n bits plus t/n
        L = (n * L - (two_a_ln2 >> n) - t // n - j * I // (n * l)) * l // (n * l + j)
        yield I, L


def period_table(l: int, p: int = 64) -> List[PeriodPair]:
    """(I(j), J(j)) for j = 1..l-1 from the closed forms, certified to the digits of p bits.

    N = p + 8 terms put the truncation and rounding of J below 2^(4-N)
    relative, and those of I below 2^(3-N)/N (for N < 2^14).
    """
    require_lj(l, 1)
    N = p + 8
    w = p + GUARD
    digits = digits_of_bits(p)
    k = fixed_constants(w)
    c, ck = _shared(N, w)
    pref_J = (k.pi << w + 1) // (27 * k.sqrt3)  # 2 pi / (27 sqrt3)
    # y = 1/3 and 2/3: the coefficients (1-y)_m/m! and 2^-y
    thirds = [(n, _binomial_series(n, 3, N, w), exp(-(n * k.ln2) // 3, w)) for n in (1, 2)]
    table = []
    for j in range(1, l):
        beta = _binomial_series(j, l, N, w)  # (1-a)_m / m!
        two_a = exp(-(j * k.ln2) // l, w)  # 2^-a
        B1, B2 = [(two_a * _half_sum(coeffs, l, j) + two_y * _half_sum(beta, 3, n)) >> w
                  for n, coeffs, two_y in thirds]  # B(a, 1/3), B(a, 2/3)
        I = (B1 * B2 >> w) * k.sqrt3 // (54 * k.pi)
        lower = two_a * _half_sum(c, l, j) >> w
        upper = sum(ckn * I_n + cn * L_n  # sum c_n (k_n I_n + L_n) at 2w bits
                    for cn, ckn, (I_n, L_n) in zip(c, ck, _moments(j, l, beta, two_a, k.ln2, w)))
        J = (pref_J * lower >> w) + (upper >> w) // 27
        table.append(PeriodPair(l, j, BigReal((I, -w), p, digits),
                                BigReal((J, -w), p, digits), N))
    return table
