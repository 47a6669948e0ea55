"""Exact truncated q-series arithmetic over the rationals.

Coefficients are either exact rationals or polynomials in a formal exponent
symbol alpha (weierstrass.Polynomial), so the same engine serves exact
identity checks and numeric evaluation after specializing alpha = j/l.
Includes the two weight-3 Eisenstein series on Gamma_1(3) and the
fractional-power coefficient families a_n, b_n built from them.  Both
families come from one exact recurrence per kind (_ScaledPower), for a
formal and a rational exponent alike: with y = e~ f**alpha, n y_n is a
convolution of y with kind-level integer lists built once, and y_n is
carried as den^(2n) y_n, an integer when alpha = num/den.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul
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


def _eisenstein_ints(kind: str, N: int) -> list:
    """Coefficients 0 .. N-1 of E3a or E3b (see eisenstein_q_expansion) as ints."""
    sums = [0] * N
    if kind == "E3a":
        for k in range(1, N):
            ck2 = chi3(k) * k * k
            if ck2:
                for n in range(k, N, k):
                    sums[n] += ck2
        return [1] + [-9 * s for s in sums[1:]]
    for d in range(1, N):
        d2 = d * d
        for n in range(d, N, d):
            c = chi3(n // d)
            if c:
                sums[n] += c * d2
    return sums


def eisenstein_q_expansion(kind: str, N: int) -> TruncatedQSeries:
    """Weight-3 Eisenstein series on Gamma_1(3), truncated at q**N.

    E3a = 1 - 9 sum_n (sum_{k|n} chi3(k) k^2) q^n
    E3b =     sum_n (sum_{k|n} chi3(n/k) k^2) q^n
    """
    if N < 1:
        raise ValueError("need N >= 1")
    if kind not in ("E3a", "E3b"):
        raise ValueError("kind must be 'E3a' or 'E3b'")
    return TruncatedQSeries(0, _eisenstein_ints(kind, N), N)


class _IntegerBases:
    """Integer coefficient lists of 1/(E3a + 27 E3b), the power bases
    f_a = E3a/(E3a + 27 E3b) and f_b = E3b/(q (E3a + 27 E3b)), and the
    recurrence lists F and H0 of _ScaledPower.

    With e~ = E3b/q and f = f_a (kind "a") or e~ = E3a and f = f_b (kind "b"),
        F_k = sum_i e~_i f_(k-i),  H0_k = sum_i i e~_i f_(k-i).
    F = e~ f = E3a E3b/(q (E3a + 27 E3b)) for both kinds, so kinds maps each
    kind to (F, H0) with one shared F list.  _ScaledPower also needs
    H1_k = sum_i (k-i) e~_i f_(k-i), the coefficients of e~ theta f, and
    theta (e~ f) = (theta e~) f + e~ theta f gives H1_k = k F_k - H0_k.
    Coefficient n of each list does not depend on the truncation order, so
    the lists only ever grow; inv, f_a, f_b and F have constant term 1.
    """

    def __init__(self) -> None:
        self.inv: list = [1]
        self.fa: list = [1]
        self.fb: list = [1]
        F = [1]
        self.kinds: dict = {"a": (F, [0]), "b": (F, [0])}

    def extend(self, N: int) -> "_IntegerBases":
        """Make every list hold at least N coefficients."""
        start = len(self.fa)
        if N <= start:
            return self
        e3a, e3b = _eisenstein_ints("E3a", N), _eisenstein_ints("E3b", N + 1)
        d = [a + 27 * b for a, b in zip(e3a, e3b)]
        ea = e3b[1:]  # e~ of kind "a"
        iea = [i * x for i, x in enumerate(ea)]
        ieb = [i * x for i, x in enumerate(e3a)]
        inv, fa, fb = self.inv, self.fa, self.fb
        (F, H0a), (_, H0b) = self.kinds["a"], self.kinds["b"]
        for n in range(start, N):
            inv.append(-sum(map(mul, d[n:0:-1], inv)))
            fa.append(sum(map(mul, e3a[n::-1], inv)))
            fb.append(sum(map(mul, ea[n::-1], inv)))
            ra, rb = fa[::-1], fb[::-1]
            F.append(sum(map(mul, ea, ra)))
            H0a.append(sum(map(mul, iea, ra)))
            H0b.append(sum(map(mul, ieb, rb)))
        return self


_BASES = _IntegerBases()


def _power_base(N: int) -> _IntegerBases:
    """The shared integer bases, holding at least N coefficients each."""
    return _BASES.extend(N)


class _ScaledPower:
    """The series y = e~ f**alpha of one kind, with e~ and f as in _IntegerBases
    and alpha = num/den in lowest terms, or num a formal Polynomial and den = 1.

    a_n = y_(n-1) (kind "a") and b_n = y_n (kind "b").  Since
    theta y / y = theta e~ / e~ + alpha theta f / f with theta = q d/dq,
    F theta y = H y for F = e~ f and H = f theta e~ + alpha e~ theta f = H0 + alpha H1,
    and F_0 = 1, H_0 = 0 give the one-pass recurrence
        n y_n = sum_{k=1..n} (H_k - (n-k) F_k) y_(n-k).
    y is carried as Y_n = den^(2n) y_n, for which
        n Y_n = den sum_{k=1..n} (P_k - den (n-k) F_k) den^(2(k-1)) Y_(n-k)
    with P_k = den H0_k + num H1_k, H1_k = k F_k - H0_k.

    At a rational alpha, Y_n is an integer, so the division by n is exact.
    e~ and f are integer series and f = 1 + g with g of valuation >= 1, so
    y = e~ sum_m binom(alpha, m) g^m and y_n is a sum over m <= n of
    binom(alpha, m) times integers.  binom(alpha, m) = prod_{i<m} (num - i den)
    / (den^m m!).  At a prime p not dividing den, alpha is a p-adic integer,
    and so is binom(alpha, m).  At a prime p dividing den, every factor
    num - i den is prime to p, so p enters the denominator exactly
    m v_p(den) + v_p(m!) times.  The denominator of binom(alpha, m) is thus
    den^m prod_{p | den} p^(v_p(m!)), and as v_p(m!) <= m <= m v_p(den), it
    divides den^(2m), which divides den^(2n).  At a formal alpha, Y_n = y_n is
    a Polynomial over the rationals and the division by n is exact there.
    The list grows on demand.
    """

    def __init__(self, num, den: int, kind: str) -> None:
        self.num, self.den, self.kind = num, den, kind
        self.Y: list = [1]
        self.P: list = [0]  # den H0_k + num (k F_k - H0_k)
        self.dF: list = [den]  # den F_k

    def scaled(self, N: int) -> list:
        """Y_0 .. Y_(N-1)."""
        num, den, Y, P, dF = self.num, self.den, self.Y, self.P, self.dF
        if len(Y) < N:
            F, H0 = _power_base(N).kinds[self.kind]
            for k in range(len(P), N):
                P.append(den * H0[k] + num * (k * F[k] - H0[k]))
                dF.append(den * F[k])
            den2 = den * den
            for n in range(len(Y), N):
                # Horner in k: den^(2(k-1)) grows by den^2 per step
                acc = P[n] * Y[0]
                for k in range(n - 1, 0, -1):
                    m = n - k
                    acc = (P[k] - m * dF[k]) * Y[m] + den2 * acc
                Y.append(den * acc // n)
        return Y[:N]

    def coefficients(self, N: int) -> list:
        """Coefficients 0 .. N-1 of the a- or b-series: reduced Fractions, or
        Polynomials at a formal alpha."""
        shift = 1 if self.kind == "a" else 0  # a_0 = 0 and a_n = y_(n-1)
        Y = self.scaled(N - shift)
        return [Fraction(0)] * shift + [y * Fraction(1, self.den ** (2 * m))
                                        for m, y in enumerate(Y)]


@lru_cache(maxsize=None)  # one per (alpha, kind), kept for the process like _BASES
def _scaled_power(alpha: Coefficient, kind: str) -> _ScaledPower:
    if isinstance(alpha, Polynomial):
        return _ScaledPower(alpha, 1, kind)
    return _ScaledPower(alpha.numerator, alpha.denominator, kind)


def _coefficients(alpha, N: int, kind: str) -> TruncatedQSeries:
    if N < 2:
        raise ValueError("need N >= 2")
    return TruncatedQSeries(0, _scaled_power(_alpha_value(alpha), kind).coefficients(N), N)


def a_coeffs(alpha, N: int) -> TruncatedQSeries:
    """Coefficients a_n of E3b * (E3a / (E3a + 27 E3b))**alpha, order N."""
    return _coefficients(alpha, N, "a")


def b_coeffs(alpha, N: int) -> TruncatedQSeries:
    """Coefficients b_n of E3a * (E3b / (q (E3a + 27 E3b)))**alpha, order N."""
    return _coefficients(alpha, N, "b")
