"""Arbitrary-precision evaluation of the period series I(j), J(j).

Values are mpmath floats wrapped with a working precision and an
evaluation-agreement certificate: every sum is evaluated at two truncation
lengths (N and N + 16) and the number of matching digits is recorded; the
truncation length is grown until the certificate covers the requested digits.
Printed digits never exceed the certificate.

eval_IJ regroups I(j) and J(j) into four sums whose weights are rational
(A1, A2 over a_n, B1, B2 over b_n; see _RunningSums), reads their terms off
the exact scaled integers of exact_series._ScaledPower, and sums each new
block of terms by Horner's rule in Python-int fixed point with 64 bits beyond
the requested precision; for l <= 25 the fixed point adds an error below
2^-(p+53) to each sum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Union

from mpmath import mp

from .errors import PrecisionNotReached, UnsupportedL
from .exact_series import _scaled_power, eisenstein_q_expansion

SIGN_POLICY = "magnitudes only; sign left unresolved"

_MAX_ROUNDS = 8


def _digits_of_bits(bits: int) -> int:
    return int(bits * 0.30102999566398)


class BigReal:
    """A real value at a working precision, capped by an agreement certificate."""

    __slots__ = ("value", "precision", "agreement_certificate")

    def __init__(self, value, precision: int, agreement_certificate: Union[int, None] = None):
        self.value = mp.mpf(value) if not hasattr(value, "_mpf_") else value
        self.precision = int(precision)
        if agreement_certificate is None:
            agreement_certificate = _digits_of_bits(self.precision)
        self.agreement_certificate = int(agreement_certificate)

    def to_decimal(self, digits: Union[int, None] = None) -> str:
        cap = min(self.agreement_certificate, _digits_of_bits(self.precision))
        n = cap if digits is None else min(digits, cap)
        return mp.nstr(self.value, max(n, 1), strip_zeros=False)

    def __float__(self) -> float:
        return float(self.value)

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
    delta_period: BigReal
    gamma_period: BigReal
    delta_axis: str
    gamma_axis: str
    sign_policy: str


def _require_lj(l: int, j: int) -> None:
    """Reject (l, j) outside the period tables: l >= 1 with gcd(l, 6) = 1, 1 <= j <= l - 1."""
    if l < 1 or math.gcd(l, 6) != 1:
        raise UnsupportedL("need l >= 1 with gcd(l, 6) = 1, got l = {}".format(l))
    if not 1 <= j <= l - 1:
        raise ValueError("need 1 <= j <= l - 1")


def _to_mpf(v) -> "mp.mpf":
    """An exact rational (numerator / denominator), a BigReal or anything mpf accepts."""
    if isinstance(v, BigReal):
        return v.value
    if isinstance(v, int) or not hasattr(v, "numerator"):
        return mp.mpf(v)
    return mp.mpf(v.numerator) / v.denominator


def constants(p: int = 128) -> Constants:
    """pi, sqrt(3), and c = exp(-2 pi / sqrt 3) = 0.026579933... at p bits."""
    if p < 64:
        raise ValueError("need p >= 64 bits")
    with mp.workprec(p + 32):
        pi = +mp.pi
        sqrt3 = mp.sqrt(3)
        c = mp.exp(-2 * pi / sqrt3)
    return Constants(BigReal(pi, p), BigReal(sqrt3, p), BigReal(c, p))


class _RunningSums:
    """The four regrouped sums of eval_IJ for one (l, j), carried across certificate rounds.

    With a = j/l, c = exp(-2 pi / sqrt 3) and K = 2 pi / sqrt 3,
        A1 = sum_{n=1..N} a_n/n c^n,          A2 = sum_{n=1..N} a_n/n^2 c^n,
        B1 = sum_{n=0..N-1} b_n l/(nl+j) c^n,  B2 = sum_{n=0..N-1} b_n l^2/(nl+j)^2 c^n,
    so that only rational weights sit inside the sums, and
        I = A1 + 3^(3a-3) c^a (B1 + B2/K),  J = K A1 + A2 + 2 pi 3^(3a-7/2) c^a B1.

    advance(N) sums only the block of terms past the previous N, so no term
    is summed twice across certificate rounds.  Writing a_(m+1) = Ya_m/(den^m m!)
    and b_m = Yb_m/(den^m m!) with the exact integers of
    exact_series._ScaledPower, the block m = lo .. N-1 is summed by Horner's
    rule in w = p + 64 bit fixed point: each term is a floor quotient of
    (Y_m << w), each step is S <- floor(S C / 2^w) + t_m with C the integer
    part of c 2^w, and the A-blocks take one more factor C.  The block is
    then scaled by c^lo and added to the running sums in mpf at p + 32 bits.

    Error bound.  A fixed-point term is below its true value times 2^w by
    less than 1 unit (A1, A2, B1) or 1 + l/j units (B2, which divides the
    B1 term once more), and a Horner step loses less than |S|/2^w + 1 units
    to C and the floor.  An error made at term m reaches the sum multiplied
    by c^m, so over all blocks a sum is off by less than
        2^-w sum_m c^m (|s_m| + 2 + l/j),
    s_m being the exact sum of the terms from m on divided by c^m.  Here
    c^m |s_m| is about the size of term m, which falls by about 0.16 per
    step, so the bound is about 2^-w (1.2 t_max + 1.03 (2 + l/j)) with t_max
    the largest term, at most (l/j)^2 (the first term of B2): below
    2^-(p+53) for l <= 25.  The p + 32 bit mpf steps that combine the blocks
    round more than that, as a term-by-term mpf sum does.
    """

    def __init__(self, l: int, j: int, p: int) -> None:
        alpha = Fraction(j, l)
        self.l, self.j, self.den = l, j, alpha.denominator
        self.ya = _scaled_power(alpha, "a")
        self.yb = _scaled_power(alpha, "b")
        self.w = w = p + 64
        with mp.workprec(w + 16):
            c = mp.exp(-2 * mp.pi / mp.sqrt(3))
            self.C = int(mp.ldexp(c, w))
        self.c = +c  # rounded to the working precision
        self.K = 2 * mp.pi / mp.sqrt(3)
        ca = mp.power(self.c, mp.mpf(j) / l)
        ln3 = mp.ln(3)
        self.pref_I = mp.exp(_to_mpf(Fraction(3 * j - 3 * l, l)) * ln3) * ca
        self.pref_J = 2 * mp.pi * mp.exp(_to_mpf(Fraction(6 * j - 7 * l, 2 * l)) * ln3) * ca
        self.N = 0
        self.cn = mp.mpf(1)  # c^N
        self.A1 = self.A2 = self.B1 = self.B2 = mp.mpf(0)

    def advance(self, N: int) -> tuple:
        """(I, J) from the sums with N terms each; N never decreases."""
        lo, w, C, l, j, den = self.N, self.w, self.C, self.l, self.j, self.den
        Ya, Yb = self.ya.scaled(N), self.yb.scaled(N)
        a1 = a2 = b1 = b2 = 0
        scale = den ** (N - 1) * math.factorial(N - 1)  # den^m m! at m = N - 1
        for m in range(N - 1, lo - 1, -1):
            ta = (Ya[m] << w) // scale
            q = m * l + j
            tb = (Yb[m] * l << w) // (scale * q)
            n = m + 1
            a1 = ((a1 * C) >> w) + ta // n
            a2 = ((a2 * C) >> w) + ta // (n * n)
            b1 = ((b1 * C) >> w) + tb
            b2 = ((b2 * C) >> w) + tb * l // q
            if m:
                scale //= den * m
        a1, a2 = (a1 * C) >> w, (a2 * C) >> w
        cn = self.cn
        self.A1 += cn * mp.ldexp(a1, -w)
        self.A2 += cn * mp.ldexp(a2, -w)
        self.B1 += cn * mp.ldexp(b1, -w)
        self.B2 += cn * mp.ldexp(b2, -w)
        self.N, self.cn = N, cn * self.c ** (N - lo)
        I = self.A1 + self.pref_I * (self.B1 + self.B2 / self.K)
        J = self.K * self.A1 + self.A2 + self.pref_J * self.B1
        return I, J


def _agreement_digits(lo, hi, cap: int) -> int:
    diff = abs(hi - lo)
    if diff == 0:
        return cap
    scale = max(abs(hi), mp.mpf(1) * mp.eps)
    rel = diff / scale
    if rel >= 1:
        return 0
    return min(cap, int(-mp.log10(rel)))


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
    with mp.workprec(p + 32):
        sums = _RunningSums(l, j, p)
        for _ in range(_MAX_ROUNDS):
            N_hi = N + 16
            values = [sums.advance(n_used) for n_used in (N, N_hi)]
            (I_lo, J_lo), (I_val, J_val) = values
            # capped at the digits of p: the 32 guard bits carry no certified digit
            cert = min(_agreement_digits(I_lo, I_val, digits),
                       _agreement_digits(J_lo, J_val, digits))
            if cert >= digits:
                if not (I_val > 0 and J_val > 0):
                    raise PrecisionNotReached(
                        "I({}) or J({}) failed positivity at l={}".format(j, j, l))
                return PeriodPair(l, j, BigReal(I_val, p, cert), BigReal(J_val, p, cert), N_hi)
            # the next N is at least this N_hi, so the sums only move forward
            N += max(16, math.ceil(0.65 * digits))
    raise PrecisionNotReached(
        "series agreement stalled for (l, j) = ({}, {}) at N = {}".format(l, j, N))


def series_periods(pair: PeriodPair) -> SeriesPeriods:
    """Magnitudes |period over delta| = (54 pi / l) I(j) and |period over gamma| = (27 / l) J(j).

    The delta-arch period lies on the imaginary axis and the gamma-arch
    period on the real axis; only magnitudes are reported, with the axis
    recorded alongside.
    """
    p = pair.I.precision
    with mp.workprec(p + 32):
        delta = 54 * mp.pi / pair.l * pair.I.value
        gamma = mp.mpf(27) / pair.l * pair.J.value
    return SeriesPeriods(
        BigReal(delta, p, pair.I.agreement_certificate),
        BigReal(gamma, p, pair.J.agreement_certificate),
        "imaginary",
        "real",
        SIGN_POLICY,
    )


def periods_from_series(l: int, j: int, p: int = 128) -> SeriesPeriods:
    """series_periods of eval_IJ(l, j, p)."""
    return series_periods(eval_IJ(l, j, p))


def eisenstein_numeric(kind: str, q, N: int = 64, p: int = 128) -> BigReal:
    """Partial sum of the exact q-expansion at a real point 0 < q < 1."""
    series = eisenstein_q_expansion(kind, N)
    with mp.workprec(p + 32):
        qm = q.value if isinstance(q, BigReal) else mp.mpf(q)
        if not 0 < qm < 1:
            raise ValueError("need 0 < q < 1")
        acc = mp.mpf(0)
        for k in range(series.truncation_order - 1, -1, -1):
            coeff = series.coefficient(k) if k >= series.valuation else Fraction(0)
            acc = acc * qm + _to_mpf(coeff)
        # crude geometric tail bound: |coeff_n| <= 9 n^3 for both kinds
        tail = 27 * mp.mpf(N) ** 3 * qm**N / (1 - qm)
        scale = abs(acc) if acc != 0 else mp.mpf(1)
        cert = _agreement_digits(acc + tail, acc, _digits_of_bits(p + 32))
        if tail / scale >= 1:
            cert = 0
    return BigReal(acc, p, cert)


def eisenstein_transform_residual(z, N: int = 80, p: int = 128) -> BigReal:
    """|27 E3b(-1/(3z)) - 3 sqrt3 i z^3 E3a(z)| for z = iy on the imaginary axis.

    Both q-values are then real: q = exp(-2 pi y) and q' = exp(-2 pi / (3y)),
    and the prefactor 3 sqrt3 i (iy)^3 collapses to the real number 3 sqrt3 y^3.
    """
    with mp.workprec(p + 32):
        zm = mp.mpc(z.value if isinstance(z, BigReal) else z)
        if mp.re(zm) != 0 or mp.im(zm) <= 0:
            raise ValueError("z must lie on the positive imaginary axis")
        y = mp.im(zm)
        q_direct = mp.exp(-2 * mp.pi * y)
        q_flipped = mp.exp(-2 * mp.pi / (3 * y))
        lhs = 27 * eisenstein_numeric("E3b", BigReal(q_flipped, p + 32), N, p + 32).value
        rhs = 3 * mp.sqrt(3) * y**3 * eisenstein_numeric("E3a", BigReal(q_direct, p + 32), N, p + 32).value
        residual = abs(lhs - rhs)
    return BigReal(residual, p)
