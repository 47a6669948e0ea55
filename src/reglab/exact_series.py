"""Exact coefficients of the period q-series, and the Eisenstein series evaluated in fixed point.

a_coeffs and b_coeffs return the first N coefficients of the fractional-power
families a_n, b_n built from the two weight-3 Eisenstein series on
Gamma_1(3), as reduced Fractions at a rational exponent alpha.  Both come
from one exact recurrence per kind, which integer_kernel._ScaledPower runs
in ints: with y = e~ f**alpha, y_n is carried as the integer
Y_n = scale(n) y_n for alpha = num/den, and this module divides by the
scale.  In the library they serve the exact series identities of
`selfcheck` (cli._check_series_identities); the numeric route reads the
integers of integer_kernel directly and never loads this module.

eisenstein_numeric sums the Eisenstein q-expansions at a real point and
eisenstein_transform_residual checks their weight-3 transformation law, in
Python-int fixed point on the kernels of bigreal, for `selfcheck` and the
demos, certified by their stated bounds.  Values are BigReals of bigreal:
this module never loads bigreal_periods.
"""

from fractions import Fraction

from .bigreal import BigReal, agreement_digits, digits_of_bits, exp, fixed_constants
from .integer_kernel import eisenstein_ints, scaled_power


def _coefficients(alpha, N: int, kind: str) -> list:
    """Coefficients 0 .. N-1 of the a- or b-series at a rational alpha, as the
    reduced Fractions y_m = Y_m / scale(m) of the kernel's integers."""
    if N < 2:
        raise ValueError("need N >= 2")
    alpha = Fraction(alpha)
    power = scaled_power(alpha.numerator, alpha.denominator, kind)
    shift = 1 if kind == "a" else 0  # a_0 = 0 and a_n = y_(n-1)
    coeffs = [Fraction(y, scale) for y, scale in zip(power.scaled(N - shift), power.scales)]
    return [Fraction(0)] * shift + coeffs


def a_coeffs(alpha, N: int) -> list:
    """Coefficients a_0 .. a_(N-1) of E3b * (E3a / (E3a + 27 E3b))**alpha."""
    return _coefficients(alpha, N, "a")


def b_coeffs(alpha, N: int) -> list:
    """Coefficients b_0 .. b_(N-1) of E3a * (E3b / (q (E3a + 27 E3b)))**alpha."""
    return _coefficients(alpha, N, "b")


def _tail(N: int, q: int, w: int) -> int:
    """A bound on the terms n >= N of either q-expansion at q 2^-w, q floored
    at w bits from a number below 1, as |coeff_n| <= 9 n^3: 27 N^3 q^N / (1 - q)
    at w bits, rounded up and taken at q + 1 unit."""
    one, q = 1 << w, q + 1
    qN = -(-pow(q, N) >> (N - 1) * w)
    return -(-(27 * N ** 3 * qN << w) // max(one - q, 1))


def _partial_sum(kind: str, q: int, N: int, w: int) -> int:
    """The first N terms of the q-expansion at q 2^-w by Horner's rule at w
    bits: each step floors once, so the sum is low by less than 1/(1 - q)
    units, plus q's own error times the derivative."""
    acc = 0
    for coeff in reversed(eisenstein_ints(kind, N)):
        acc = (acc * q >> w) + (coeff << w)
    return acc


def eisenstein_numeric(kind: str, q, N: int = 64, p: int = 128) -> BigReal:
    """Partial sum of the exact q-expansion at a real point 0 < q < 1, at precision p.

    q is a BigReal, a (man, exp) pair of ints or a float, read exactly and
    floored at w = p + 32 bits; the sum runs at w bits and is returned as the
    integer it computed there.  The certificate is the digits the sum shares
    with the sum plus a bound on the tail, capped at the digits of p.
    """
    w = p + 32
    x = BigReal(q, w)
    qw = x.fixed(w)
    if not (x.man > 0 and qw < 1 << w):
        raise ValueError("need 0 < q < 1")
    acc = _partial_sum(kind, qw, N, w)
    # 0 digits once the tail reaches |acc|
    cert = agreement_digits(acc + _tail(N, qw, w), acc, digits_of_bits(p))
    return BigReal((acc, -w), p, cert)


def eisenstein_transform_residual(z, N: int = 80, p: int = 128) -> BigReal:
    """|27 E3b(-1/(3z)) - 3 sqrt3 i z^3 E3a(z)| for z = iy on the imaginary axis.

    z is a complex, its parts read exactly.
    Both q-values are then real: q = exp(-2 pi y) and q' = exp(-2 pi / (3y)),
    and the prefactor 3 sqrt3 i (iy)^3 collapses to the real number 3 sqrt3 y^3.
    Everything runs at w = p + 32 + 3n bits, n >= 0 the bits of 1/y when
    y < 1, on bigreal's exp; each side is taken to be within 2^-p of itself,
    relative: 32 bits for its roundings to grow through exp, Horner's rule
    and the prefactors, and 3n more because both sides scale as y^3.  With
    both truncation tails that bounds the residual's error, and the
    certificate is 0 digits when the residual lies below it.  The residual
    is returned as the integer computed at w bits, at precision p.
    """
    re, im = BigReal(getattr(z, "real", z), p), BigReal(getattr(z, "imag", 0), p)
    if re.man != 0 or im.man <= 0:
        raise ValueError("z must lie on the positive imaginary axis")
    w = p + 32 + 3 * max(0, 1 - im.exp - im.man.bit_length())
    k = fixed_constants(w)
    y = im.fixed(w)
    q_direct = exp(-(2 * k.pi * y >> w), w)
    q_flipped = exp(-((2 * k.pi << w) // (3 * y)), w)
    factor = 3 * k.sqrt3 * (y * y >> w) * y >> 2 * w
    lhs = 27 * _partial_sum("E3b", q_flipped, N, w)
    rhs = factor * _partial_sum("E3a", q_direct, N, w) >> w
    residual = abs(lhs - rhs)
    bound = ((abs(lhs) + abs(rhs) >> p) + 1 + 27 * _tail(N, q_flipped, w)
             + (factor * _tail(N, q_direct, w) >> w) + 1)
    cert = agreement_digits(residual + bound, residual, digits_of_bits(p))
    return BigReal((residual, -w), p, cert)
