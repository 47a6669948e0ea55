"""Exact truncated q-series arithmetic over the rationals: the tests' Fraction reference.

Coefficients are either exact rationals or polynomials in a formal exponent
symbol alpha (weierstrass.Polynomial).  The tests compose the a- and
b-series from the Eisenstein series with these operations (product,
inverse, fractional power by the logarithmic-derivative recurrence) and
compare them with the integers of integer_kernel._ScaledPower, so this
module must not use that kernel: it imports only the Eisenstein
coefficient lists, which the tests check against their divisor sums.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from reglab.errors import ReglabError
from reglab.integer_kernel import eisenstein_ints
from reglab.weierstrass import Polynomial, _as_poly

Coefficient = Union[Fraction, Polynomial]


class ZeroConstantTerm(ReglabError):
    """Series inversion requested for a series with zero constant term."""


class ConstantTermNotOne(ReglabError):
    """Fractional power requested for a series whose constant term is not 1."""


def _alpha_value(alpha) -> Coefficient:
    if isinstance(alpha, Polynomial):
        return alpha
    return Fraction(alpha)


class TruncatedQSeries:
    """q-expansion known for exponents < truncation_order.

    coefficients[i] multiplies q**(valuation + i); the list always has
    truncation_order - valuation entries.
    """

    __slots__ = ("valuation", "coefficients", "truncation_order")

    def __init__(self, valuation: int, coefficients: Sequence, truncation_order: int) -> None:
        coeffs = [c if isinstance(c, Polynomial) else Fraction(c) for c in coefficients]
        if valuation < 0:
            raise ValueError("valuation must be >= 0")
        if len(coeffs) != truncation_order - valuation:
            raise ValueError("need len(coefficients) == truncation_order - valuation")
        # normalize away leading zeros so valuation reports the lowest power present
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            valuation += 1
        self.valuation: int = valuation
        self.coefficients: tuple = tuple(coeffs)
        self.truncation_order: int = truncation_order

    @classmethod
    def one(cls, truncation_order: int) -> "TruncatedQSeries":
        return cls(0, [Fraction(1)] + [Fraction(0)] * (truncation_order - 1), truncation_order)

    def coefficient(self, n: int) -> Coefficient:
        """Coefficient of q**n; n must be below the truncation order."""
        if n >= self.truncation_order:
            raise IndexError("coefficient at or beyond truncation order")
        if n < self.valuation:
            return Fraction(0)
        return self.coefficients[n - self.valuation]

    def truncate(self, order: int) -> "TruncatedQSeries":
        if order > self.truncation_order:
            raise ValueError("cannot extend a truncated series")
        if order <= self.valuation:
            return TruncatedQSeries(order, [], order)
        return TruncatedQSeries(self.valuation, self.coefficients[: order - self.valuation], order)

    def shift(self, k: int) -> "TruncatedQSeries":
        """Multiply by q**k (k may be negative down to -valuation)."""
        if self.valuation + k < 0:
            raise ValueError("shift would create negative exponents")
        return TruncatedQSeries(self.valuation + k, self.coefficients, self.truncation_order + k)

    def specialize(self, alpha) -> "TruncatedQSeries":
        """Evaluate every formal coefficient at the given rational."""
        alpha = _alpha_value(alpha)
        coeffs = [_as_poly(c)(alpha) for c in self.coefficients]
        return TruncatedQSeries(self.valuation, coeffs, self.truncation_order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedQSeries):
            return NotImplemented
        return (
            self.valuation == other.valuation
            and self.truncation_order == other.truncation_order
            and all(a == b for a, b in zip(self.coefficients, other.coefficients))
        )

    def __hash__(self) -> int:
        return hash((self.valuation, self.coefficients, self.truncation_order))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedQSeries(0, [other] + [Fraction(0)] * (self.truncation_order - 1),
                                     self.truncation_order)
        if not isinstance(other, TruncatedQSeries):
            return NotImplemented
        order = min(self.truncation_order, other.truncation_order)
        val = min(self.valuation, other.valuation, order)
        coeffs = []
        for n in range(val, order):
            a = self.coefficient(n) if n < self.truncation_order else Fraction(0)
            b = other.coefficient(n) if n < other.truncation_order else Fraction(0)
            coeffs.append(a + b)
        return TruncatedQSeries(val, coeffs, order)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedQSeries(self.valuation, [-c for c in self.coefficients],
                                self.truncation_order)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-Fraction(other))
        if not isinstance(other, TruncatedQSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            return TruncatedQSeries(self.valuation, [c * other for c in self.coefficients],
                                    self.truncation_order)
        if not isinstance(other, TruncatedQSeries):
            return NotImplemented
        return series_mul(self, other)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        head = ", ".join(repr(c) for c in self.coefficients[:4])
        if len(self.coefficients) > 4:
            head += ", ..."
        return "TruncatedQSeries(v={}, [{}], N={})".format(
            self.valuation, head, self.truncation_order)


def series_mul(f: TruncatedQSeries, g: TruncatedQSeries) -> TruncatedQSeries:
    """Product truncated at the smallest order either factor can certify."""
    order = min(f.truncation_order + g.valuation, g.truncation_order + f.valuation)
    val = f.valuation + g.valuation
    if val >= order:
        return TruncatedQSeries(order, [], order)
    out = [Fraction(0)] * (order - val)
    for i, a in enumerate(f.coefficients):
        if a == 0:
            continue
        ei = f.valuation + i
        for j, b in enumerate(g.coefficients):
            e = ei + g.valuation + j
            if e >= order:
                break
            out[e - val] = out[e - val] + a * b
    return TruncatedQSeries(val, out, order)


def series_inverse(f: TruncatedQSeries) -> TruncatedQSeries:
    """Multiplicative inverse mod q**truncation_order."""
    if f.valuation > 0 or not f.coefficients:
        raise ZeroConstantTerm("series has no invertible constant term")
    c0 = _as_poly(f.coefficients[0])  # nonzero: the constructor strips leading zeros
    if c0.degree > 0:
        raise ValueError("constant term must be a unit rational, not a formal polynomial")
    n_terms = f.truncation_order
    inv0 = 1 / c0.coeffs[0]
    out = [inv0] + [Fraction(0)] * (n_terms - 1)
    for n in range(1, n_terms):
        acc = Fraction(0)
        for k in range(1, n + 1):
            a = f.coefficient(k)
            if a == 0:
                continue
            acc = acc + a * out[n - k]
        out[n] = -inv0 * acc
    return TruncatedQSeries(0, out, n_terms)


def series_pow_rational(f: TruncatedQSeries, alpha) -> TruncatedQSeries:
    """f**alpha for a series with constant term 1.

    Uses the logarithmic-derivative recurrence
        n g_n = sum_{k=1..n} (alpha k - (n - k)) f_k g_{n-k},
    one exact O(N^2) pass with no exp/log composition.  alpha may be a
    rational or a formal Polynomial.
    """
    if f.valuation > 0 or not f.coefficients or f.coefficients[0] != 1:
        raise ConstantTermNotOne("series constant term must be 1")
    alpha = _alpha_value(alpha)
    n_terms = f.truncation_order
    out: list = [Fraction(1)] + [Fraction(0)] * (n_terms - 1)
    for n in range(1, n_terms):
        acc = Fraction(0)
        for k in range(1, n + 1):
            fk = f.coefficient(k)
            if fk != 0:
                acc = acc + (alpha * k - (n - k)) * fk * out[n - k]
        out[n] = acc * Fraction(1, n)
    return TruncatedQSeries(0, out, n_terms)


def eisenstein(kind: str, N: int) -> TruncatedQSeries:
    """E3a or E3b, the weight-3 Eisenstein series on Gamma_1(3), truncated at q**N."""
    return TruncatedQSeries(0, eisenstein_ints(kind, N), N)


def series(coeffs: Sequence) -> TruncatedQSeries:
    """The full list of coefficients 0 .. N-1 (a_coeffs, b_coeffs) as a series of order N."""
    return TruncatedQSeries(0, coeffs, len(coeffs))
