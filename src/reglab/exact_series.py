"""Exact truncated q-series arithmetic over the rationals.

Coefficients are either exact rationals or polynomials in a formal exponent
symbol alpha (weierstrass.Polynomial), so the same engine serves exact
identity checks and numeric evaluation after specializing alpha = j/l.
Includes the two weight-3 Eisenstein series on Gamma_1(3) and the
fractional-power coefficient families a_n, b_n built from them.  At a
rational exponent both families come from one pass of an integer recurrence
per kind (_ScaledPower): with y = e~ f**alpha, n y_n is a convolution of
y with kind-level integer lists built once, and y_n is carried as the
integer den^n n! y_n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .errors import ConstantTermNotOne, ZeroConstantTerm
from .weierstrass import Polynomial, _as_poly


def chi3(n: int) -> int:
    """Quadratic character mod 3, with chi3(n) = 0, 1, -1 for n = 0, 1, 2 mod 3."""
    return (0, 1, -1)[n % 3]


def formal_alpha() -> Polynomial:
    """The formal symbol alpha as a degree-1 polynomial."""
    return Polynomial([0, 1])


class ExponentParam:
    """Exponent j/l of the fractional-power series, as an exact rational."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        value = Fraction(value)
        if not 0 < value < 1:
            raise ValueError("exponent must satisfy 0 < j/l < 1")
        self.value: Fraction = value

    @classmethod
    def from_lj(cls, l: int, j: int) -> "ExponentParam":
        if not 1 <= j <= l - 1:
            raise ValueError("need 1 <= j <= l-1")
        return cls(Fraction(j, l))

    def __eq__(self, other) -> bool:
        if isinstance(other, ExponentParam):
            return self.value == other.value
        return self.value == other

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return "ExponentParam({})".format(self.value)


Coefficient = Union[Fraction, Polynomial]


def _alpha_value(alpha) -> Coefficient:
    if isinstance(alpha, ExponentParam):
        return alpha.value
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
    def zero(cls, truncation_order: int) -> "TruncatedQSeries":
        return cls(truncation_order, [], truncation_order)

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

    def is_zero(self) -> bool:
        return not self.coefficients  # the constructor strips leading zeros

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
    rational, an ExponentParam, or a formal Polynomial.
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


def eisenstein_q_expansion(kind: str, N: int) -> TruncatedQSeries:
    """Weight-3 Eisenstein series on Gamma_1(3), truncated at q**N.

    E3a = 1 - 9 sum_n (sum_{k|n} chi3(k) k^2) q^n
    E3b =     sum_n (sum_{k|n} chi3(n/k) k^2) q^n
    """
    if N < 1:
        raise ValueError("need N >= 1")
    if kind not in ("E3a", "E3b"):
        raise ValueError("kind must be 'E3a' or 'E3b'")
    sums = [0] * N
    if kind == "E3a":
        for k in range(1, N):
            c = chi3(k)
            if c == 0:
                continue
            ck2 = c * k * k
            for n in range(k, N, k):
                sums[n] += ck2
        coeffs = [Fraction(1)] + [Fraction(-9 * s) for s in sums[1:]]
        return TruncatedQSeries(0, coeffs, N)
    for d in range(1, N):
        d2 = d * d
        for n in range(d, N, d):
            c = chi3(n // d)
            if c:
                sums[n] += c * d2
    if N == 1:
        return TruncatedQSeries.zero(1)
    return TruncatedQSeries(1, [Fraction(s) for s in sums[1:]], N)


class _IntegerBases:
    """Integer coefficient lists of E3a, E3b, 1/(E3a + 27 E3b), the power bases
    f_a = E3a/(E3a + 27 E3b) and f_b = E3b/(q (E3a + 27 E3b)), and per kind the
    recurrence lists F, H0, H1 of _ScaledPower.

    With e~ = E3b/q and f = f_a (kind "a") or e~ = E3a and f = f_b (kind "b"),
        F_k = sum_i e~_i f_(k-i),  H0_k = sum_i i e~_i f_(k-i),
        H1_k = sum_i (k-i) e~_i f_(k-i).
    Coefficient n of each list does not depend on the truncation order, so
    the lists only ever grow; inv, f_a, f_b and both F have constant term 1.
    """

    def __init__(self) -> None:
        self.e3a: list = [1]
        self.e3b: list = [0]
        self.inv: list = [1]
        self.fa: list = [1]
        self.fb: list = [1]
        self.kinds: dict = {"a": ([1], [0], [0]), "b": ([1], [0], [0])}

    def extend(self, N: int) -> "_IntegerBases":
        """Make every list hold at least N coefficients (e3b holds N + 1)."""
        start = len(self.fa)
        if N <= start:
            return self
        e3a = eisenstein_q_expansion("E3a", N)
        e3b = eisenstein_q_expansion("E3b", N + 1)
        self.e3a = [int(e3a.coefficient(n)) for n in range(N)]
        self.e3b = [int(e3b.coefficient(n)) for n in range(N + 1)]
        d = [a + 27 * b for a, b in zip(self.e3a, self.e3b)]
        inv, fa, fb = self.inv, self.fa, self.fb
        for n in range(start, N):
            inv.append(-sum(d[k] * inv[n - k] for k in range(1, n + 1)))
            fa.append(sum(self.e3a[k] * inv[n - k] for k in range(n + 1)))
            fb.append(sum(self.e3b[k + 1] * inv[n - k] for k in range(n + 1)))
        for kind, (F, H0, H1) in self.kinds.items():
            e = self.e3b[1:] if kind == "a" else self.e3a
            f = fa if kind == "a" else fb
            for k in range(start, N):
                prods = [e[i] * f[k - i] for i in range(k + 1)]
                F.append(sum(prods))
                H0.append(sum(i * x for i, x in enumerate(prods)))
                H1.append(k * F[k] - H0[k])
        return self

    def factors(self, kind: str) -> tuple:
        """(power base, factor) of the a-series (E3b f_a**alpha) or b-series (E3a f_b**alpha)."""
        return (self.fa, self.e3b) if kind == "a" else (self.fb, self.e3a)


_BASES = _IntegerBases()


def _power_base(N: int) -> _IntegerBases:
    """The shared integer bases, holding at least N coefficients each."""
    return _BASES.extend(N)


class _ScaledPower:
    """The series y = e~ f**(num/den) of one kind, with e~ and f as in _IntegerBases.

    a_n = y_(n-1) (kind "a") and b_n = y_n (kind "b").  Since
    theta y / y = theta e~ / e~ + alpha theta f / f with theta = q d/dq,
    F theta y = H y for F = e~ f and H = f theta e~ + alpha e~ theta f = H0 + alpha H1,
    and F_0 = 1, H_0 = 0 give the one-pass recurrence
        n y_n = sum_{k=1..n} (H_k - (n-k) F_k) y_(n-k).
    y is carried as the integers Y_n = den^n n! y_n, for which
        Y_n = sum_{k=1..n} (P_k - den (n-k) F_k) den^(k-1) (n-1)!/(n-k)! Y_(n-k)
    with P_k = den H0_k + num H1_k; num/den must be in lowest terms for the
    scale to be the smallest one.  The list grows on demand.
    """

    def __init__(self, num: int, den: int, kind: str) -> None:
        self.num, self.den, self.kind = num, den, kind
        self.Y: list = [1]
        self.P: list = [0]  # den H0_k + num H1_k
        self.dF: list = [den]  # den F_k
        self.out: list = []

    def scaled(self, N: int) -> list:
        """The integers Y_0 .. Y_(N-1)."""
        num, den, Y, P, dF = self.num, self.den, self.Y, self.P, self.dF
        if len(Y) < N:
            F, H0, H1 = _power_base(N).kinds[self.kind]
            for k in range(len(P), N):
                P.append(den * H0[k] + num * H1[k])
                dF.append(den * F[k])
            for n in range(len(Y), N):
                # Horner in k: den^(k-1) (n-1)!/(n-k)! grows by den (n-k) per step
                acc = P[n] * Y[0]
                for k in range(n - 1, 0, -1):
                    m = n - k
                    acc = (P[k] - m * dF[k]) * Y[m] + den * m * acc
                Y.append(acc)
        return Y[:N]

    def coefficients(self, N: int) -> list:
        """Coefficients 0 .. N-1 of the a- or b-series as reduced Fractions."""
        out = self.out
        shift = 1 if self.kind == "a" else 0  # a_0 = 0 and a_n = y_(n-1)
        if not out:
            out.extend([Fraction(0)] * shift)
        if len(out) < N:
            Y = self.scaled(N - shift)
            start = len(out) - shift
            scale = self.den ** start * math.factorial(start)
            for m in range(start, N - shift):
                out.append(Fraction(Y[m], scale))
                scale *= self.den * (m + 1)
        return out[:N]


@lru_cache(maxsize=None)  # one per (j/l, kind), kept for the process like _BASES
def _scaled_power(alpha: Fraction, kind: str) -> _ScaledPower:
    return _ScaledPower(alpha.numerator, alpha.denominator, kind)


def _coefficients(alpha, N: int, kind: str) -> TruncatedQSeries:
    if N < 2:
        raise ValueError("need N >= 2")
    alpha = _alpha_value(alpha)
    if isinstance(alpha, Polynomial):
        f, e = _power_base(N).factors(kind)
        powed = series_pow_rational(TruncatedQSeries(0, f[:N], N), alpha)
        return series_mul(TruncatedQSeries(0, e[:N], N), powed)
    return TruncatedQSeries(0, _scaled_power(alpha, kind).coefficients(N), N)


def a_coeffs(alpha, N: int) -> TruncatedQSeries:
    """Coefficients a_n of E3b * (E3a / (E3a + 27 E3b))**alpha, order N."""
    return _coefficients(alpha, N, "a")


def b_coeffs(alpha, N: int) -> TruncatedQSeries:
    """Coefficients b_n of E3a * (E3b / (q (E3a + 27 E3b)))**alpha, order N."""
    return _coefficients(alpha, N, "b")
