"""Exact coefficients of the period q-series, and the q-series evaluated in mpmath.

a_coeffs and b_coeffs return the first N coefficients of the fractional-power
families a_n, b_n built from the two weight-3 Eisenstein series on
Gamma_1(3): reduced Fractions for a rational exponent, Polynomials in the
formal symbol alpha (weierstrass.Polynomial) at formal_alpha().  Both come
from one exact recurrence per kind, which integer_kernel._ScaledPower runs
in ints (or Polynomials, at a formal alpha): with y = e~ f**alpha, y_n is
carried as Y_n = scale(n) y_n, an integer when alpha = num/den, and this
module divides by the scale.  In the library they serve the exact series
identities of `selfcheck` (cli._check_series_identities); the numeric route
reads the integers of integer_kernel directly and never loads this module.

eisenstein_numeric sums the Eisenstein q-expansions at a real point and
eisenstein_transform_residual checks their weight-3 transformation law, in
mpmath, for `selfcheck` and the demos, certified by their stated bounds.
Values are BigReals of bigreal: this module never loads bigreal_periods.
"""

from __future__ import annotations

from fractions import Fraction

from .bigreal import BigReal, agreement_digits, digits_of_bits
from .integer_kernel import eisenstein_ints, scaled_power
from .weierstrass import Polynomial


def formal_alpha() -> Polynomial:
    """The formal symbol alpha as a degree-1 polynomial."""
    return Polynomial([0, 1])


def _coefficients(alpha, N: int, kind: str) -> list:
    """Coefficients 0 .. N-1 of the a- or b-series from the kernel's integers
    y_m = Y_m / scale(m): reduced Fractions, or Polynomials at a formal alpha."""
    if N < 2:
        raise ValueError("need N >= 2")
    if isinstance(alpha, Polynomial):
        power = scaled_power(alpha, 1, kind)
    else:
        alpha = Fraction(alpha)
        power = scaled_power(alpha.numerator, alpha.denominator, kind)
    shift = 1 if kind == "a" else 0  # a_0 = 0 and a_n = y_(n-1)
    coeffs = [y * Fraction(1, power.scale(m)) for m, y in enumerate(power.scaled(N - shift))]
    return [Fraction(0)] * shift + coeffs


def a_coeffs(alpha, N: int) -> list:
    """Coefficients a_0 .. a_(N-1) of E3b * (E3a / (E3a + 27 E3b))**alpha."""
    return _coefficients(alpha, N, "a")


def b_coeffs(alpha, N: int) -> list:
    """Coefficients b_0 .. b_(N-1) of E3a * (E3b / (q (E3a + 27 E3b)))**alpha."""
    return _coefficients(alpha, N, "b")


def _tail(N: int, q):
    """A bound on the terms n >= N of either q-expansion at 0 < q < 1, as |coeff_n| <= 9 n^3."""
    return 27 * N ** 3 * q**N / (1 - q)


def eisenstein_numeric(kind: str, q, N: int = 64, p: int = 128) -> BigReal:
    """Partial sum of the exact q-expansion at a real point 0 < q < 1.

    The certificate is the digits the sum shares with the sum plus a bound
    on the tail, capped at the digits of p.
    """
    from mpmath import mp

    coeffs = eisenstein_ints(kind, N)
    with mp.workprec(p + 32):
        qm = q.value if isinstance(q, BigReal) else mp.mpf(q)
        if not 0 < qm < 1:
            raise ValueError("need 0 < q < 1")
        acc = mp.mpf(0)
        for coeff in reversed(coeffs):
            acc = acc * qm + coeff
        # 0 digits once the tail reaches |acc|
        cert = agreement_digits(acc + _tail(N, qm), acc, digits_of_bits(p))
    return BigReal(acc, p, cert)


def eisenstein_transform_residual(z, N: int = 80, p: int = 128) -> BigReal:
    """|27 E3b(-1/(3z)) - 3 sqrt3 i z^3 E3a(z)| for z = iy on the imaginary axis.

    Both q-values are then real: q = exp(-2 pi y) and q' = exp(-2 pi / (3y)),
    and the prefactor 3 sqrt3 i (iy)^3 collapses to the real number 3 sqrt3 y^3.
    Each side, rounded at p + 32 bits, is taken to be within 2^-p of itself,
    relative: 32 bits for its roundings to grow through exp, Horner's rule and
    the prefactors.  With both truncation tails that bounds the residual's
    error, and the certificate is 0 digits when the residual lies below it.
    """
    from mpmath import mp

    with mp.workprec(p + 32):
        zm = mp.mpc(z.value if isinstance(z, BigReal) else z)
        if mp.re(zm) != 0 or mp.im(zm) <= 0:
            raise ValueError("z must lie on the positive imaginary axis")
        y = mp.im(zm)
        q_direct = mp.exp(-2 * mp.pi * y)
        q_flipped = mp.exp(-2 * mp.pi / (3 * y))
        lhs = 27 * eisenstein_numeric("E3b", BigReal(q_flipped, p + 32), N, p + 32).value
        factor = 3 * mp.sqrt(3) * y**3
        rhs = factor * eisenstein_numeric("E3a", BigReal(q_direct, p + 32), N, p + 32).value
        residual = abs(lhs - rhs)
        bound = (mp.ldexp(abs(lhs) + abs(rhs), -p)
                 + 27 * _tail(N, q_flipped) + factor * _tail(N, q_direct))
        cert = agreement_digits(residual + bound, residual, digits_of_bits(p))
    return BigReal(residual, p, cert)
