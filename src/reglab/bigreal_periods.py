"""The q-series route to the periods I(j), J(j), certified by evaluation agreement.

Every sum is evaluated at two truncation lengths (N and N + 16) and the
number of matching digits is recorded; the truncation length is grown until
the certificate covers the requested digits.  Printed digits never exceed
the certificate.

eval_IJ regroups I(j) and J(j) into four sums whose weights are rational
(A1, A2 over a_n, B1, B2 over b_n; see _RunningSums), reads their terms off
the exact integers scale(m) a_(m+1) and scale(m) b_m of
integer_kernel._ScaledPower (j/l reduced, scale(m) = l^m prod_{p | l}
p^(v_p(m!))), sums each new block of them by one Horner pass down to m = 0,
and evaluates the sums, the constants and the prefactors in Python-int fixed
point with the kernels of bigreal, GUARD = 64 bits beyond the requested
precision p; series_periods scales them to the period magnitudes the same way.
Values are BigReals, so no computation here needs a Fraction: the exact
layer's Fractions (exact_series) and Polynomials (weierstrass) stay unloaded.
"""

import math
from collections import namedtuple

from .bigreal import (GUARD, BigReal, PeriodPair, agreement_digits, digits_of_bits, exp,
                      fixed_constants)
from .errors import PrecisionNotReached
from .integer_kernel import require_lj, scaled_power

_MAX_ROUNDS = 8


# BigReal magnitudes of the periods over the delta arch (imaginary axis) and the gamma arch (real axis)
SeriesPeriods = namedtuple("SeriesPeriods", "delta_period gamma_period")


class _RunningSums:
    """The four regrouped sums of eval_IJ for one (l, j), carried across certificate rounds.

    With a = j/l, c = exp(-2 pi / sqrt 3) and K = 2 pi / sqrt 3,
        A1 = sum_{n=1..N} a_n/n c^n,          A2 = sum_{n=1..N} a_n/n^2 c^n,
        B1 = sum_{n=0..N-1} b_n l/(nl+j) c^n,  B2 = sum_{n=0..N-1} b_n l^2/(nl+j)^2 c^n,
    so that only rational weights sit inside the sums, and, with
    E = 3^(3a) c^a = exp(a (3 ln 3 - K)),
        I = A1 + E/27 (B1 + B2/K),  J = K A1 + A2 + K E/27 B1.
    j/l is reduced first, so the numbers depend only on a.

    Everything is fixed point at w = p + 64 bits (units of 2^-w).
    advance(N) sums only the block of terms past the previous N, so no term
    is summed twice across certificate rounds.  Writing a_(m+1) = Ya_m/scale(m)
    and b_m = Yb_m/scale(m) with the exact integers of
    integer_kernel._ScaledPower and its least scale
    scale(m) = l^m prod_{p | l} p^(v_p(m!)), the block
    m = lo .. N-1 is summed by Horner's rule: each term is a floor quotient
    of (Y_m << w), each step is S <- floor(S C / 2^w) + t_m with C = c at
    w bits, and the A-blocks take one more factor C.  The pass runs on down
    to m = 0 with zero terms, which scales the block by c^lo a floor at a
    time; the sums take the block as it ends.  No power of c is formed, and
    the block, about c^-lo times its share, does not underflow as a plain
    fixed-point c^lo would once lo passed about w/5.2.

    Error bound.  A fixed-point term is below its true value by less than
    1 unit (A1, A2, B1) or 1 + l/j units (B2, which divides the B1 term once
    more), and a Horner step loses less than 2|S|/2^w + 1 units to C (off by
    less than 2 units) and the floor.  An error made at term m reaches the
    sum multiplied by c^m, so over all blocks a sum is off by less than
        2^-w sum_m c^m (2|s_m| + 2 + l/j),
    s_m being the exact sum of the terms from m on divided by c^m.  Here
    c^m |s_m| is about 1.2 times the size of term m, which falls by about
    0.16 per step, so the bound is about 2^-w (3 t_max + 1.03 (2 + l/j))
    with t_max the largest term, at most (l/j)^2 (the first term of B2).

    Every block after the first starts at lo >= 20, and its zero steps add
    their floors, less than sum_m c^m < 1.03 units (the A-blocks' extra
    factor C is one more such step), and lo times the relative error of C,
    2^(6.3-w), times the block's size, about 1.2 |t_lo| <= 1.2 t_max 0.17^lo:
    below 2^-40 t_max units.  Over at most 2 _MAX_ROUNDS blocks, a sum is off
    by less than about 2^-w (3 t_max + 1.03 (2 + l/j) + 16).  The combination
    into I and J multiplies the sums by E/27 < 1/27, K < 4 and K E/27 < 1/7,
    whose errors of a few units (see bigreal.fixed_constants and exp) add a few
    units per unit of A1, B1 and B2.  For every admissible l (l >= 5),
    t_max <= l^2 and l/j <= l, so each sum is off by less than
    2^-w (3 l^2 + 1.03 (2 + l) + 16) < 2^(2-w) l^2.  The weights of the
    sums in I and J add to less than 5.2 (J's K + 1 + 1/7), and the
    constants add at most 3 units per unit of each of A1, B1 and B2, each
    below 1.2 t_max; so I and J are off by less than 2^(5-w) l^2, under
    2^(15-w) for l <= 31.  That stays below the 2^-p = 2^(64-w) the
    certificate assumes while l^2 < 2^59, that is for l < 2^29.5, about
    7.6e8.  Measured at p = 128 and j = 1, 2, (l-1)/2 and l - 1, the error
    is below 0.73 l^2 units at l = 5 (0.89 l^2 in blocks of 16) and below
    0.21 l^2 units at l = 31, 97, 499 and 997.
    """

    def __init__(self, l: int, j: int, p: int) -> None:
        g = math.gcd(j, l)
        self.l, self.j = l // g, j // g
        self.ya = scaled_power(self.j, self.l, "a")
        self.yb = scaled_power(self.j, self.l, "b")
        self.w = w = p + GUARD
        k = fixed_constants(w)
        self.K, self.C = k.K, k.c
        E = exp(self.j * (3 * k.ln3 - k.K) // self.l, w)  # 3^(3a) c^a
        self.pref_I = E // 27  # 3^(3a-3) c^a
        self.pref_J = (k.K * E >> w) // 27  # 2 pi 3^(3a-7/2) c^a
        self.N = 0
        self.A1 = self.A2 = self.B1 = self.B2 = 0

    def advance(self, N: int) -> tuple:
        """(I, J) at w bits, as integers times 2^-w, from the sums with N terms each; N never decreases."""
        lo, w, C, l, j = self.N, self.w, self.C, self.l, self.j
        Ya, Yb = self.ya.scaled(N), self.yb.scaled(N)
        a1 = a2 = b1 = b2 = 0
        scales = self.ya.scales  # scale(m), shared by both kinds: it depends on the reduced l alone
        for m in range(N - 1, lo - 1, -1):
            scale = scales[m]
            ta = (Ya[m] << w) // scale
            q = m * l + j
            tb = (Yb[m] * l << w) // (scale * q)
            n = m + 1
            a1 = ((a1 * C) >> w) + ta // n
            a2 = ((a2 * C) >> w) + ta // (n * n)
            b1 = ((b1 * C) >> w) + tb
            b2 = ((b2 * C) >> w) + tb * l // q
        for _ in range(lo):  # m = lo - 1 .. 0, zero terms: the block times c^lo
            a1, a2, b1, b2 = a1 * C >> w, a2 * C >> w, b1 * C >> w, b2 * C >> w
        self.A1 += a1 * C >> w
        self.A2 += a2 * C >> w
        self.B1 += b1
        self.B2 += b2
        self.N = N
        K = self.K
        I = self.A1 + (self.pref_I * (self.B1 + (self.B2 << w) // K) >> w)
        J = (K * self.A1 >> w) + self.A2 + (self.pref_J * self.B1 >> w)
        return I, J



def eval_IJ(l: int, j: int, p: int = 128) -> PeriodPair:
    """The pair (I(j), J(j)) certified to the digits implied by p bits.

    I(j) = sum_{n>=1} a_n/n c^n
           + 3^(3j/l-3) sum_{n>=0} b_n (1/(n+a) + sqrt3/(2 pi (n+a)^2)) c^(n+a)
    J(j) = sum_{n>=1} a_n (2 pi/(sqrt3 n) + 1/n^2) c^n
           + 2 pi 3^(3j/l-7/2) sum_{n>=0} b_n/(n+a) c^(n+a)
    with a = j/l and c = exp(-2 pi / sqrt 3).
    """
    require_lj(l, j)
    digits = max(6, digits_of_bits(p))
    N = math.ceil(0.634 * digits) + 16
    sums = _RunningSums(l, j, p)
    for _ in range(_MAX_ROUNDS):
        N_hi = N + 16
        (I_lo, J_lo), (I_val, J_val) = [sums.advance(n_used) for n_used in (N, N_hi)]
        # capped at the digits of p: the 64 guard bits carry no certified digit
        cert = min(agreement_digits(I_lo, I_val, digits),
                   agreement_digits(J_lo, J_val, digits))
        if cert >= digits:
            if not (I_val > 0 and J_val > 0):
                raise PrecisionNotReached(
                    "I({}) or J({}) failed positivity at l={}".format(j, j, l))
            return PeriodPair(l, j, BigReal((I_val, -sums.w), p, cert),
                              BigReal((J_val, -sums.w), p, cert), N_hi)
        # the next N is at least this N_hi, so the sums only move forward
        N += max(16, math.ceil(0.65 * digits))
    raise PrecisionNotReached(
        "series agreement stalled for (l, j) = ({}, {}) at N = {}".format(l, j, N))


def series_periods(pair: PeriodPair) -> SeriesPeriods:
    """Magnitudes |period over delta| = (54 pi / l) I(j) and |period over gamma| = (27 / l) J(j).

    The delta-arch period lies on the imaginary axis and the gamma-arch
    period on the real axis; only magnitudes are reported.  Both are fixed
    point at w = p + 64 bits, p the pair's precision: 54 pi / l at w bits
    times I, floored, and 27 J / l, floored.
    """
    p = pair.I.precision
    w = p + GUARD
    delta = (54 * fixed_constants(w).pi // pair.l) * pair.I.fixed(w) >> w
    gamma = 27 * pair.J.fixed(w) // pair.l
    return SeriesPeriods(BigReal((delta, -w), p, pair.I.agreement_certificate),
                         BigReal((gamma, -w), p, pair.J.agreement_certificate))

