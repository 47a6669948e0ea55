"""The exact integer kernel that the symbolic and numeric layers share.

Everything here is Python ints (a formal alpha brings its own Polynomial
arithmetic), so this module imports neither `fractions` nor mpmath: the
coefficient lists of the two weight-3 Eisenstein series on
Gamma_1(3) (eisenstein_ints), the recurrence lists built from them
(_IntegerBases), the scaled fractional powers Y_n = den^(2n) y_n of the
a- and b-series (_ScaledPower), one process-wide store of both, and the
standing assumption gcd(l, 6) = 1 with the Hodge bookkeeping it enables.
exact_series turns the integers into Fractions and Polynomials;
bigreal_periods sums them in fixed point.
"""

from __future__ import annotations

import math
from operator import mul

from .errors import UnsupportedL


def require_l(l: int) -> None:
    """Raise UnsupportedL unless l >= 1 and gcd(l, 6) = 1, the standing assumption on l."""
    if l < 1 or math.gcd(l, 6) != 1:
        raise UnsupportedL("need l >= 1 with gcd(l, 6) = 1, got l = {}".format(l))


def hodge_and_dims(l: int) -> dict:
    """Hodge numbers and the dimension bookkeeping of the example family."""
    require_l(l)
    h20 = (l - 1) // 3
    return {
        "l": l,
        "h20": h20,
        "h11": 10 * (1 + h20),
        "h": l - 1 - h20,
        "dim_Lambda1": l - 1 - h20,
        "dim_Lambda2": h20,
        "dim_E": l - 1,
        "dim_E_rel": 2 * l - 1,
    }


def chi3(n: int) -> int:
    """Quadratic character mod 3, with chi3(n) = 0, 1, -1 for n = 0, 1, 2 mod 3."""
    return (0, 1, -1)[n % 3]


def eisenstein_ints(kind: str, N: int) -> list:
    """Coefficients 0 .. N-1 of E3a or E3b as ints:

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


def _quotient(out: list, u: list, v: list, d: list, N: int) -> None:
    """Extend out, the coefficients of u v / d, to N entries; d_0 = 1, so they are ints.

    Coefficient n is (u v)_n - sum_{k=1..n} d_k out_(n-k).
    """
    d1 = d[1:]
    for n in range(len(out), N):
        out.append(sum(map(mul, u, v[n::-1])) - sum(map(mul, d1, reversed(out))))


class _IntegerBases:
    """The recurrence lists F and H0 of _ScaledPower, as ints.

    With D = E3a + 27 E3b, the power bases f_a = E3a/D and f_b = E3b/(q D),
    and e~ = E3b/q (kind "a") or e~ = E3a (kind "b"),
        F_k = sum_i e~_i f_(k-i),  H0_k = sum_i i e~_i f_(k-i).
    F = e~ f = E3a E3b/(q D) for both kinds, so kinds maps each kind to
    (F, H0) with one shared F list, and each list is one quotient by D:
        F = E3a (E3b/q) / D,  H0a = (theta (E3b/q)) E3a / D,
        H0b = (theta E3a) (E3b/q) / D.
    _ScaledPower also needs H1_k = sum_i (k-i) e~_i f_(k-i), the
    coefficients of e~ theta f, and theta (e~ f) = (theta e~) f + e~ theta f
    gives H1_k = k F_k - H0_k.  Coefficient n of each list does not depend
    on the truncation order, so the lists only ever grow.
    """

    def __init__(self) -> None:
        F = []
        self.kinds: dict = {"a": (F, []), "b": (F, [])}

    def extend(self, N: int) -> "_IntegerBases":
        """Make every list hold at least N coefficients."""
        (F, H0a), (_, H0b) = self.kinds["a"], self.kinds["b"]
        if N <= len(F):
            return self
        e3a, e3b = eisenstein_ints("E3a", N), eisenstein_ints("E3b", N + 1)
        d = [a + 27 * b for a, b in zip(e3a, e3b)]
        ea = e3b[1:]  # E3b/q, the e~ of kind "a"
        _quotient(F, e3a, ea, d, N)
        _quotient(H0a, e3a, [i * x for i, x in enumerate(ea)], d, N)
        _quotient(H0b, ea, [i * x for i, x in enumerate(e3a)], d, N)
        return self


class _ScaledPower:
    """The series y = e~ f**alpha of one kind, with e~ and f as in _IntegerBases
    and alpha = num/den in lowest terms, or num a formal Polynomial and den = 1.

    a_n = y_(n-1) (kind "a") and b_n = y_n (kind "b").  Since
    theta y / y = theta e~ / e~ + alpha theta f / f with theta = q d/dq,
    F theta y = H y for F = e~ f and H = f theta e~ + alpha e~ theta f = H0 + alpha H1,
    and F_0 = 1, H_0 = 0 give the one-pass recurrence
        n y_n = sum_{k=1..n} (H_k - (n-k) F_k) y_(n-k).
    y is carried as Y_n = scale(n) y_n with scale(n) = den^(2n), for which
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

    def __init__(self, num, den: int, kind: str, bases: _IntegerBases) -> None:
        self.num, self.den, self.kind, self.bases = num, den, kind, bases
        self.Y: list = [1]
        self.P: list = [0]  # den H0_k + num (k F_k - H0_k)
        self.dF: list = [den]  # den F_k

    def scale(self, m: int) -> int:
        """The integer scale of Y_m: y_m = Y_m / scale(m).

        Every reader of y (bigreal_periods._RunningSums, exact_series'
        a_coeffs and b_coeffs) divides by this; the recurrence in scaled is
        written for den^(2m) and changes with it.
        """
        return self.den ** (2 * m)

    def scaled(self, N: int) -> list:
        """Y_0 .. Y_(N-1)."""
        num, den, Y, P, dF = self.num, self.den, self.Y, self.P, self.dF
        if len(Y) < N:
            F, H0 = self.bases.extend(N).kinds[self.kind]
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


class _Store:
    """The process-wide exact data: one _IntegerBases, and one _ScaledPower per
    (num, den, kind) made on its bases.  Both only grow, so a second compute
    in the same process rebuilds nothing."""

    def __init__(self) -> None:
        self.bases = _IntegerBases()
        self.powers: dict = {}

    def power(self, num, den: int, kind: str) -> _ScaledPower:
        key = (num, den, kind)
        power = self.powers.get(key)
        if power is None:
            power = self.powers[key] = _ScaledPower(num, den, kind, self.bases)
        return power


_STORE = _Store()


def scaled_power(num, den: int, kind: str) -> _ScaledPower:
    """The stored _ScaledPower of alpha = num/den (lowest terms, or a formal num and den = 1)."""
    return _STORE.power(num, den, kind)
