"""BigReal, the exact dyadic number every numeric route returns, and the fixed-point kernels they share.

A BigReal is man 2^exp with a working precision and an agreement
certificate; every route returns the fixed-point integer it computed as
(v, -w), unrounded, and _dyadic is the one exact reader of every input.
to_decimal prints what mpmath's nstr prints for it, capped at the
certificate, without importing mpmath.  The kernels (exp, sin, sqrt,
atan, atan2, fixed_pi, fixed_constants) work on Python ints at w
bits, x being the integer x 2^w and a unit 2^-w, and each states its error
in units as a module constant (EXP_ERROR and so on); the routes carry
GUARD = 64 bits beyond the requested precision.  PeriodPair is what each
route to I(j), J(j) returns.  No other reglab module is imported.
"""

import math
from collections import namedtuple
from functools import lru_cache

GUARD = 64  # bits the fixed-point routes carry beyond the requested precision
_LOG2_10 = math.log(10, 2)  # the float mpmath's to_str sizes its digits with


def digits_of_bits(bits: int) -> int:
    return int(bits * 0.30102999566398)


def _dyadic(x) -> tuple:
    """(man, exp) with x = man 2^exp exactly, for an int, a (man, exp) pair of
    ints, a BigReal or a float; TypeError for anything else."""
    if isinstance(x, BigReal):
        return x.man, x.exp
    if isinstance(x, int):
        return x, 0
    if isinstance(x, tuple) and len(x) == 2 and all(isinstance(v, int) for v in x):
        return x
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError("not a finite real number: {}".format(x))
        man, den = x.as_integer_ratio()  # den is a power of 2
        return man, 1 - den.bit_length()
    raise TypeError("not an int, a (man, exp) pair of ints, a BigReal or a float: {!r}".format(x))


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

    value is read exactly from an int, a (man, exp) pair of ints, a BigReal or a float,
    precision and agreement_certificate (None: the digits of precision) as ints only.
    """

    __slots__ = ("man", "exp", "precision", "agreement_certificate")

    def __init__(self, value, precision: int, agreement_certificate: int | None = None):
        self.man, self.exp = _dyadic(value)
        if agreement_certificate is None:
            agreement_certificate = digits_of_bits(precision)
        if not (isinstance(precision, int) and isinstance(agreement_certificate, int)):
            raise TypeError("not ints: {!r}, {!r}".format(precision, agreement_certificate))
        self.precision, self.agreement_certificate = precision, agreement_certificate

    def fixed(self, w: int) -> int:
        """floor(value 2^w)."""
        shift = self.exp + w
        return self.man << shift if shift >= 0 else self.man >> -shift

    def to_decimal(self, digits: int | None = None) -> str:
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

    lo and hi are ints, (man, exp) pairs of two ints, BigReals or floats,
    each read exactly; both must be ints at the same scale or carry their own.
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


Constants = namedtuple("Constants", "pi sqrt3 c")  # BigReals
PeriodPair = namedtuple("PeriodPair", "l j I J N_used")  # I and J BigReals, the rest ints


# ---------------------------------------------------------------- fixed-point kernels

EXP_ERROR = 2  # the kernels' errors, in units of 2^-w, each within the range its docstring states
SIN_ERROR = 2
SQRT_ERROR = 1
ATAN_ERROR = 2
ATAN2_ERROR = 5
PI_ERROR = 2
CONSTANTS_ERROR = 2  # each field of fixed_constants


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
    """exp(x 2^-w) at w bits for x < 4 2^w, off by less than 2 units.

    |x| is divided by 2^r with r = isqrt(w) + 2, the Taylor series is summed
    at h = w + r + 16 bits and squared back r times, and a negative x takes
    the reciprocal at h bits.  The T < h/(r - 2) + 2 floored terms put the sum
    below exp(|x| 2^-r) by a relative 2T 2^-h; each squaring doubles that and
    adds 2^-h, so before the last floor exp(|x|) < 2^6 is off by less than
    2^(6+r) (2T + 1) 2^-h = (2T + 1) 2^-10 units, and exp(-|x|) by as little;
    the floor to w bits adds less than 1 unit.  Any x <= -4 2^w takes
    exp(x 2^-n), |x| 2^-n < 2, at h = w + n + 8 bits and squares it n times:
    a squaring of a value below 1 at most doubles its error and adds 1 unit,
    so that is off by less than 3 2^n units of h, 3/256 units at w, before
    the floor to w bits.
    """
    if x <= -(4 << w):
        n = (-x).bit_length() - w - 1
        h = w + n + 8
        total = exp(x << 8, h)  # x 2^-n at h bits
        for _ in range(n):
            total = total * total >> h
        return total >> n + 8
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
    """sin(x 2^-w) at w bits for |x| <= 4 2^w, off by less than 2 units for w < 16000.

    The Taylor series at h = w + 16 bits: term n + 2 carries the error of
    term n times x^2/((n + 1)(n + 2)) plus 2 units, so each term is off by
    less than 4 units, and the fewer than h terms add at most 4h units at h
    bits, below 1 unit at w; the floor to w bits adds less than 1 unit.
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


def sqrt(x: int, w: int) -> int:
    """sqrt(x 2^-w) at w bits for x >= 0 by math.isqrt: the floor, below the root by less than 1 unit."""
    return math.isqrt(x << w)


def atan(x: int, w: int) -> int:
    """atan(x 2^-w) at w bits for |x| <= 2^w, off by less than 2 units for w < 2^14.

    At h = w + k + 18 bits, k = isqrt(w) // 2 + 1, the angle is halved by
    x <- x / (1 + sqrt(1 + x^2)) until x <= 2^-k, at most k times from
    atan |x| <= pi/4.  A halving floors twice and scales the error before it
    by at most 1/2, so the reduced x is off by less than 4 units; the
    T <= h/(2k) + 1 terms of the Taylor series add less than 2 units each.
    Scaled back by 2^r, r <= k, that is less than (4 + 2T) 2^-18 units at w,
    and the floor to w bits adds less than 1 unit.
    """
    k = math.isqrt(w) // 2 + 1
    h = w + k + 18
    one = 1 << h
    y = abs(x) << h - w
    r = 0
    while y > one >> k:
        y = (y << h) // (one + math.isqrt((one << h) + y * y))
        r += 1
    y2 = y * y >> h
    total, term, n = 0, y, 1
    while term:
        total += term // n if n % 4 == 1 else -(term // n)
        term = term * y2 >> h
        n += 2
    total >>= h - w - r
    return total if x >= 0 else -total


def atan2(y: int, x: int, w: int) -> int:
    """The angle of (x, y) in (-pi, pi] at w bits, off by less than 5 units for w < 2^14.

    x and y are ints at any one scale, not both 0.  The angle is atan of
    the smaller of |y|/|x| and |x|/|y|, floored at w bits, taken from pi/2
    or pi as the quadrant asks: the quotient adds less than 1 unit to atan's
    2, and pi (fixed_pi) or pi/2 less than 2.
    """
    if not (x or y):
        raise ValueError("atan2(0, 0) is undefined")
    ax, ay = abs(x), abs(y)
    if ay <= ax:
        a = atan((ay << w) // ax, w)
        if x < 0:
            a = fixed_pi(w) - a
    else:
        a = atan((ax << w) // ay, w)
        a = (fixed_pi(w) >> 1) + (a if x < 0 else -a)
    return a if y >= 0 else -a


def _machin(g: int) -> int:
    """pi = 16 atan(1/5) - 4 atan(1/239) at g bits, off by less than 3.7 g + 40 units."""
    return 16 * _atan_inv(5, g) - 4 * _atan_inv(239, g)


@lru_cache(maxsize=64)
def fixed_pi(w: int) -> int:
    """pi at w bits, off by less than 2 units for w < 2^14: Machin's formula at w + 16 bits, floored."""
    return _machin(w + 16) >> 16


# ints at w bits; K = 2 pi / sqrt 3 and c = exp(-K)
_FixedConstants = namedtuple("_FixedConstants", "pi sqrt3 ln3 ln2 K c")


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
    pi = _machin(g)
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
