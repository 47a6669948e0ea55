"""Arbitrary-precision evaluation of the period series I(j), J(j).

Values are exact dyadic numbers man 2^exp (BigReal) with a working precision
and an evaluation-agreement certificate: every sum is evaluated at two
truncation lengths (N and N + 16) and the number of matching digits is
recorded; the truncation length is grown until the certificate covers the
requested digits.  Printed digits never exceed the certificate.

eval_IJ regroups I(j) and J(j) into four sums whose weights are rational
(A1, A2 over a_n, B1, B2 over b_n; see _RunningSums), reads their terms off
the exact integers scale(m) a_(m+1) and scale(m) b_m of
integer_kernel._ScaledPower (j/l reduced, scale(m) = l^m prod_{p | l}
p^(v_p(m!))), and evaluates the sums, the
constants and the prefactors in Python-int fixed point with _GUARD = 64
bits beyond the requested precision p; series_periods scales them to the
period magnitudes the same way.  BigReal.to_decimal prints the digits
mpmath's nstr prints for the same number, so no computation here needs
mpmath, and none needs a Fraction: the exact layer's Fractions and
Polynomials (exact_series, weierstrass) stay unloaded.  Only BigReal.value
and the mpf branch of _dyadic, which write and read the mpf format for the
checks that run in mpmath, import it, on first use.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Union

from .errors import PrecisionNotReached
from .integer_kernel import require_l, scaled_power

SIGN_POLICY = "magnitudes only; sign left unresolved"

_MAX_ROUNDS = 8
_GUARD = 64  # bits the fixed-point route carries beyond the requested precision
_LOG2_10 = math.log(10, 2)  # the float mpmath's to_str sizes its digits with


def _digits_of_bits(bits: int) -> int:
    return int(bits * 0.30102999566398)


def _dyadic(x) -> tuple:
    """(man, exp) with x = man 2^exp exactly, for an int, a (man, exp) pair, a
    BigReal or an mpf; anything else goes through mpmath.mpf first."""
    if isinstance(x, BigReal):
        return x.man, x.exp
    if isinstance(x, int):
        return x, 0
    if isinstance(x, tuple):
        man, exp = x
        return int(man), int(exp)
    if not hasattr(x, "_mpf_"):
        from mpmath import mp

        x = mp.mpf(x)
    sign, man, exp, bc = x._mpf_
    if not man and bc:
        raise ValueError("not a finite real number: {}".format(x))
    return (-man if sign else man), exp


def _decimal(man: int, exp: int, n: int) -> str:
    """man 2^exp to n >= 1 significant digits, as mpmath's nstr(x, n, strip_zeros=False).

    A replica of mpmath.libmp.to_str: the digits at n + 3 digits' worth of
    bits, floored twice (to binary, then to decimal fixed point), rounded
    half up on the digit string, and printed in fixed point when the leading
    digit's exponent lies strictly between min(-(n//3), -5) and n.  For
    |x| beyond 2^3500, where mpmath first divides by a power of ten, the
    digits are floored once, exactly, instead.
    """
    if not man:
        return "0.0"
    sign = "-" if man < 0 else ""
    man = abs(man)
    bitprec = int((n + 3) * _LOG2_10) + 10
    fixprec = max(bitprec - exp - man.bit_length(), 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = exp + fixprec
    fixed = man << shift if shift >= 0 else man >> -shift
    digits = str(fixed * 10 ** fixdps >> fixprec)
    exponent = len(digits) - fixdps - 1
    if len(digits) > n and digits[n] >= "5":
        digits = str(int(digits[:n]) + 1)
        if len(digits) > n:  # 99..9 rounded up to 100..0
            digits, exponent = digits[:n], exponent + 1
    else:
        digits = digits[:n]
    split = 1
    if min(-(n // 3), -5) < exponent < n:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
        exponent = 0
    text = sign + digits[:split] + "." + digits[split:]
    if exponent == 0:
        return text
    return text + ("e+" if exponent > 0 else "e") + str(exponent)


def _nstr(man: int, exp: int, n: int) -> str:
    """man 2^exp to n >= 1 significant digits, as mpmath's nstr(x, n): _decimal
    with the trailing zeros of the digits stripped, down to one after the point."""
    digits, e, exponent = _decimal(man, exp, n).partition("e")
    digits = digits.rstrip("0")
    if digits.endswith("."):
        digits += "0"
    return digits + e + exponent


class BigReal:
    """An exact dyadic value man 2^exp at a working precision, capped by an agreement certificate.

    value is accepted as an int, a (man, exp) pair, a BigReal or an mpf
    (anything else goes through mpmath.mpf); .value is the same number as an
    exact mpf, built on first use.
    """

    __slots__ = ("man", "exp", "precision", "agreement_certificate", "_value")

    def __init__(self, value, precision: int, agreement_certificate: Union[int, None] = None):
        self.man, self.exp = _dyadic(value)
        self.precision = int(precision)
        if agreement_certificate is None:
            agreement_certificate = _digits_of_bits(self.precision)
        self.agreement_certificate = int(agreement_certificate)
        self._value = None

    @property
    def value(self):
        """man 2^exp as an mpf, exactly: not rounded to the ambient precision."""
        if self._value is None:
            from mpmath import mp
            from mpmath.libmp import from_man_exp

            self._value = mp.make_mpf(from_man_exp(self.man, self.exp))
        return self._value

    def fixed(self, w: int) -> int:
        """floor(value 2^w)."""
        shift = self.exp + w
        return self.man << shift if shift >= 0 else self.man >> -shift

    def to_decimal(self, digits: Union[int, None] = None) -> str:
        cap = min(self.agreement_certificate, _digits_of_bits(self.precision))
        n = cap if digits is None else min(digits, cap)
        return _decimal(self.man, self.exp, max(n, 1))

    def __float__(self) -> float:
        if self.exp >= 0:
            return float(self.man << self.exp)
        return self.man / (1 << -self.exp)  # int true division rounds correctly

    def __str__(self) -> str:
        return self.to_decimal()

    def __repr__(self) -> str:
        return "BigReal({}, prec={}, certified={})".format(
            self.to_decimal(), self.precision, self.agreement_certificate)


class Constants(NamedTuple):
    pi: BigReal
    sqrt3: BigReal
    c: BigReal


class PeriodPair(NamedTuple):
    l: int
    j: int
    I: BigReal
    J: BigReal
    N_used: int


class SeriesPeriods(NamedTuple):
    """Magnitudes of the periods over the delta arch (imaginary axis) and the gamma arch (real axis)."""

    delta_period: BigReal
    gamma_period: BigReal


def _require_lj(l: int, j: int) -> None:
    """Reject (l, j) outside the period tables: l >= 1 with gcd(l, 6) = 1, 1 <= j <= l - 1."""
    require_l(l)
    if not 1 <= j <= l - 1:
        raise ValueError("need 1 <= j <= l - 1")


# ---------------------------------------------------------------- fixed-point kernels
#
# A fixed-point number x at w bits is the integer x 2^w; a unit is 2^-w.

def _atan_inv(k: int, w: int, hyperbolic: bool = False) -> int:
    """atan(1/k), or atanh(1/k), at w bits for an integer k >= 2, by its Taylor series.

    Each of the fewer than w / (2 log2 k) + 2 terms is floored, so the sum is
    off by less than that many units.
    """
    power = (1 << w) // k
    total, n, sign, k2 = power, 1, 1, k * k
    while power:
        power //= k2
        n += 2
        sign = sign if hyperbolic else -sign
        total += sign * (power // n)
    return total


def _exp(x: int, w: int) -> int:
    """exp(x 2^-w) at w bits for |x| < 4 2^w, off by less than 2 units.

    |x| is divided by 2^r with r = isqrt(w) + 2, the Taylor series is summed
    at h = w + r + 16 bits and squared back r times, and a negative x takes
    the reciprocal at h bits.  The T < h/(r - 2) + 2 floored terms put the sum
    below exp(|x| 2^-r) by a relative 2T 2^-h; each squaring doubles that and
    adds 2^-h, so before the last floor exp(|x|) < 2^6 is off by less than
    2^(6+r) (2T + 1) 2^-h = (2T + 1) 2^-10 units, and exp(-|x|) by as little;
    the floor to w bits adds less than 1 unit.
    """
    r = math.isqrt(w) + 2
    h = w + r + 16
    y = abs(x) << 16  # |x| 2^-r at h bits
    total = term = 1 << h
    n = 1
    while term:
        term = (term * y >> h) // n
        total += term
        n += 1
    for _ in range(r):
        total = total * total >> h
    if x < 0:
        total = (1 << 2 * h) // total
    return total >> h - w


def _sin(x: int, w: int) -> int:
    """sin(x 2^-w) at w bits for |x| <= 4 2^w, off by less than 2 units.

    The Taylor series at h = w + 16 bits: term n + 2 carries the error of
    term n times x^2/((n + 1)(n + 2)) plus 2 units, so the fewer than h
    terms add at most 4 h units at h bits, below 2^-6 units at w for
    w < 2^20; the floor to w bits adds less than 1 unit.
    """
    h = w + 16
    y = abs(x) << 16
    y2 = y * y >> h
    total, term, n = 0, y, 1
    while term:
        total += term if n % 4 == 1 else -term
        term = (term * y2 >> h) // ((n + 1) * (n + 2))
        n += 2
    return (total if x >= 0 else -total) >> 16


class _FixedConstants(NamedTuple):
    pi: int
    sqrt3: int
    ln3: int
    ln2: int
    K: int  # 2 pi / sqrt 3
    c: int  # exp(-K)


@lru_cache(maxsize=8)
def _fixed_constants(w: int) -> _FixedConstants:
    """pi, sqrt 3, ln 3, ln 2, K = 2 pi / sqrt 3 and c = exp(-K) at w bits, each off by less than 2 units.

    Each is computed at g = w + 32 bits and floored to w: pi = 16 atan(1/5)
    - 4 atan(1/239) (Machin), ln 3 = 6 atanh(1/7) + 4 atanh(1/17)
    (ln 3 = 3 ln(4/3) + 2 ln(9/8)), ln 2 = 2 atanh(1/3), sqrt 3 =
    isqrt(3 2^2g), K by one floored division and c by _exp.  By _atan_inv's
    count of floored terms, pi is off by less than 3.7 g + 40 units of 2^-g
    and K, the worst, by less than 5g; so before the floor every one is off
    by less than 2^-10 units of 2^-w, for w < 2^19.
    """
    g = w + 32
    pi = 16 * _atan_inv(5, g) - 4 * _atan_inv(239, g)
    sqrt3 = math.isqrt(3 << 2 * g)
    ln3 = 6 * _atan_inv(7, g, True) + 4 * _atan_inv(17, g, True)
    ln2 = 2 * _atan_inv(3, g, True)
    K = (pi << g + 1) // sqrt3
    return _FixedConstants(*(v >> 32 for v in (pi, sqrt3, ln3, ln2, K, _exp(-K, g))))


def constants(p: int = 128) -> Constants:
    """pi, sqrt(3), and c = exp(-2 pi / sqrt 3) = 0.026579933... at p bits."""
    if p < 64:
        raise ValueError("need p >= 64 bits")
    w = p + _GUARD
    k = _fixed_constants(w)
    return Constants(*(BigReal((v, -w), p) for v in (k.pi, k.sqrt3, k.c)))


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
    w bits, and the A-blocks take one more factor C.  The block is then scaled by c^lo, which is carried as
    a mantissa M of w bits and a shift s, c^lo ~ M 2^-s: a plain fixed-point
    c^lo would underflow to 0 once lo passes about w/5.2 and drop every later
    block.  The sums take floor(block M 2^-s).

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

    The carried scale adds, per block, the floor (1 unit) and the relative
    error of M 2^-s times the block's size.  Each factor C is off by less
    than 2 units, a relative 2^(6.3-w), and each rounding of M adds 2^(1-w),
    so M 2^-s is off by less than lo 2^(7-w) relative, against a block of
    size about 1.2 |t_lo| <= 1.2 t_max 0.17^lo.  The first block (lo = 0)
    is scaled exactly and every later one starts at lo >= 20, where this is
    below 2^-40 units.  Over at most 2 _MAX_ROUNDS blocks, a sum is off by
    less than about 2^-w (3 t_max + 1.03 (2 + l/j) + 16).  The combination
    into I and J multiplies the sums by E/27 < 1/27, K < 4 and K E/27 < 1/7,
    whose errors of a few units (see _fixed_constants and _exp) add a few
    units per unit of A1, B1 and B2.  For l <= 31, t_max <= 961, and I and J
    are off by less than 2^(13-w) = 2^-(p+51).
    """

    def __init__(self, l: int, j: int, p: int) -> None:
        g = math.gcd(j, l)
        self.l, self.j = l // g, j // g
        self.ya = scaled_power(self.j, self.l, "a")
        self.yb = scaled_power(self.j, self.l, "b")
        self.w = w = p + _GUARD
        k = _fixed_constants(w)
        self.K, self.C = k.K, k.c
        E = _exp(self.j * (3 * k.ln3 - k.K) // self.l, w)  # 3^(3a) c^a
        self.pref_I = E // 27  # 3^(3a-3) c^a
        self.pref_J = (k.K * E >> w) // 27  # 2 pi 3^(3a-7/2) c^a
        self.N = 0
        self.cn = (1 << w, w)  # c^N as M 2^-s
        self.A1 = self.A2 = self.B1 = self.B2 = 0

    def advance(self, N: int) -> tuple:
        """(I, J) at w bits, as integers times 2^-w, from the sums with N terms each; N never decreases."""
        lo, w, C, l, j = self.N, self.w, self.C, self.l, self.j
        Ya, Yb = self.ya.scaled(N), self.yb.scaled(N)
        a1 = a2 = b1 = b2 = 0
        scale_of = self.ya.scale  # the same for both kinds: it depends on l alone
        for m in range(N - 1, lo - 1, -1):
            scale = scale_of(m)
            ta = (Ya[m] << w) // scale
            q = m * l + j
            tb = (Yb[m] * l << w) // (scale * q)
            n = m + 1
            a1 = ((a1 * C) >> w) + ta // n
            a2 = ((a2 * C) >> w) + ta // (n * n)
            b1 = ((b1 * C) >> w) + tb
            b2 = ((b2 * C) >> w) + tb * l // q
        M, s = self.cn
        self.A1 += a1 * C * M >> s + w
        self.A2 += a2 * C * M >> s + w
        self.B1 += b1 * M >> s
        self.B2 += b2 * M >> s
        M *= C ** (N - lo)
        excess = M.bit_length() - w
        self.N, self.cn = N, (M >> excess, s + w * (N - lo) - excess)
        K = self.K
        I = self.A1 + (self.pref_I * (self.B1 + (self.B2 << w) // K) >> w)
        J = (K * self.A1 >> w) + self.A2 + (self.pref_J * self.B1 >> w)
        return I, J


def _agreement_digits(lo, hi, cap: int) -> int:
    """The largest d <= cap with |hi - lo| 10^d <= |hi|, or 0 if there is none; exact.

    lo and hi are ints, (man, exp) pairs, BigReals or mpfs; both must be
    ints at the same scale or carry their own.
    """
    (lm, le), (hm, he) = _dyadic(lo), _dyadic(hi)
    e = min(le, he)
    lm, hm = lm << le - e, hm << he - e
    diff, top = abs(hm - lm), abs(hm)
    if diff == 0:
        return cap
    if diff > top:
        return 0
    # a lower estimate: top/diff > 2^(bits(top) - bits(diff) - 1)
    d = _digits_of_bits(top.bit_length() - diff.bit_length() - 1)
    while d < cap and diff * 10 ** (d + 1) <= top:
        d += 1
    return min(d, cap)


def eval_IJ(l: int, j: int, p: int = 128) -> PeriodPair:
    """The pair (I(j), J(j)) certified to the digits implied by p bits.

    I(j) = sum_{n>=1} a_n/n c^n
           + 3^(3j/l-3) sum_{n>=0} b_n (1/(n+a) + sqrt3/(2 pi (n+a)^2)) c^(n+a)
    J(j) = sum_{n>=1} a_n (2 pi/(sqrt3 n) + 1/n^2) c^n
           + 2 pi 3^(3j/l-7/2) sum_{n>=0} b_n/(n+a) c^(n+a)
    with a = j/l and c = exp(-2 pi / sqrt 3).
    """
    _require_lj(l, j)
    digits = max(6, _digits_of_bits(p))
    N = math.ceil(0.634 * digits) + 16
    sums = _RunningSums(l, j, p)
    for _ in range(_MAX_ROUNDS):
        N_hi = N + 16
        (I_lo, J_lo), (I_val, J_val) = [sums.advance(n_used) for n_used in (N, N_hi)]
        # capped at the digits of p: the 64 guard bits carry no certified digit
        cert = min(_agreement_digits(I_lo, I_val, digits),
                   _agreement_digits(J_lo, J_val, digits))
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
    times I, floored, and 27 J / l, floored.  regulator.build_matrix reads
    the delta-arch magnitude at these w bits.
    """
    p = pair.I.precision
    w = p + _GUARD
    delta = (54 * _fixed_constants(w).pi // pair.l) * pair.I.fixed(w) >> w
    gamma = 27 * pair.J.fixed(w) // pair.l
    return SeriesPeriods(BigReal((delta, -w), p, pair.I.agreement_certificate),
                         BigReal((gamma, -w), p, pair.J.agreement_certificate))
