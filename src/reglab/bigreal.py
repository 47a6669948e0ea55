"""BigReal, the exact dyadic number every numeric route returns, and the fixed-point kernels they share.

A BigReal is man 2^exp with a working precision and an agreement
certificate; to_decimal prints what mpmath's nstr prints for it, capped at
the certificate, and only .value and reading an mpf import mpmath.  The
kernels (exp, sin, fixed_constants) work on Python ints at w bits, x being
the integer x 2^w and a unit 2^-w, and state their errors in units; the
routes carry GUARD = 64 bits beyond the requested precision.  PeriodPair is
what each route to I(j), J(j) returns.  No other reglab module is imported.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Union

GUARD = 64  # bits the fixed-point routes carry beyond the requested precision
_LOG2_10 = math.log(10, 2)  # the float mpmath's to_str sizes its digits with


def digits_of_bits(bits: int) -> int:
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


def nstr(man: int, exp: int, n: int) -> str:
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
            agreement_certificate = digits_of_bits(self.precision)
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
        cap = min(self.agreement_certificate, digits_of_bits(self.precision))
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


def agreement_digits(lo, hi, cap: int) -> int:
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
    d = digits_of_bits(top.bit_length() - diff.bit_length() - 1)
    while d < cap and diff * 10 ** (d + 1) <= top:
        d += 1
    return min(d, cap)


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


# ---------------------------------------------------------------- fixed-point kernels

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


def exp(x: int, w: int) -> int:
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


def sin(x: int, w: int) -> int:
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
def fixed_constants(w: int) -> _FixedConstants:
    """pi, sqrt 3, ln 3, ln 2, K = 2 pi / sqrt 3 and c = exp(-K) at w bits, each off by less than 2 units.

    Each is computed at g = w + 32 bits and floored to w: pi = 16 atan(1/5)
    - 4 atan(1/239) (Machin), ln 3 = 6 atanh(1/7) + 4 atanh(1/17)
    (ln 3 = 3 ln(4/3) + 2 ln(9/8)), ln 2 = 2 atanh(1/3), sqrt 3 =
    isqrt(3 2^2g), K by one floored division and c by exp.  By _atan_inv's
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
    return _FixedConstants(*(v >> 32 for v in (pi, sqrt3, ln3, ln2, K, exp(-K, g))))


def constants(p: int = 128) -> Constants:
    """pi, sqrt(3), and c = exp(-2 pi / sqrt 3) = 0.026579933... at p bits."""
    if p < 64:
        raise ValueError("need p >= 64 bits")
    w = p + GUARD
    k = fixed_constants(w)
    return Constants(*(BigReal((v, -w), p) for v in (k.pi, k.sqrt3, k.c)))
