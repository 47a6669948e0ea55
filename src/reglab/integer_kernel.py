"""The exact integer kernel that the symbolic and numeric layers share.

Everything here is Python ints, so this module imports no `fractions`: the
coefficient lists of the two weight-3 Eisenstein series on Gamma_1(3)
(eisenstein_ints), the recurrence lists built from them (_IntegerBases),
the scaled fractional powers of the a- and b-series at a rational exponent
(_ScaledPower), two functools caches that keep them for the process (the
scale lists of each den, _scale_lists, and each power on the one
_IntegerBases, scaled_power), and the standing assumption gcd(l, 6) = 1
(require_l, and require_lj for a period index j) with the Hodge
bookkeeping it enables.  exact_series turns the integers into Fractions;
bigreal_periods sums them in fixed point.

The a- and b-series are y = e~ f**alpha, with e~ and f built from
u = E3a, v = E3b/q and D = u + 27 q v.  Multiplying theta y / y by
C = u v D clears every denominator: C theta y = (A + alpha B) y, with C, A
and B products of integer series (derived in _IntegerBases).  Their
entries stay below 2^49 for k < 810, so the power-series recurrence
(J. C. P. Miller; Knuth, TAOCP vol. 2, 4.7) that this gives for y_n
multiplies each big integer by a small one only.  For alpha = num/den,
y_n is carried as the integer Y_n = scale(n) y_n with scale(n) = den^n
prod_{p | den} p^(v_p(n!)), the least scale that clears every
binom(alpha, m) with m <= n (not always y_n's own denominator); its Horner
multiplier is den prod_{p | den} p^(v_p(m)) = den gcd(m, den^bits(m))
(derived in _ScaledPower).
"""

import functools
import math
from operator import mul

from .errors import UnsupportedL


def require_l(l: int) -> None:
    """Raise UnsupportedL unless l >= 1 and gcd(l, 6) = 1, the standing assumption on l."""
    if l < 1 or math.gcd(l, 6) != 1:
        raise UnsupportedL("need l >= 1 with gcd(l, 6) = 1, got l = {}".format(l))


def require_lj(l: int, j: int) -> None:
    """Reject (l, j) outside the period tables: l >= 1 with gcd(l, 6) = 1, 1 <= j <= l - 1."""
    require_l(l)
    if not 1 <= j <= l - 1:
        raise ValueError("need 1 <= j <= l - 1")


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


def _product(out: list, x: list, y: list, N: int) -> None:
    """Extend out, the coefficients of x y, to N entries; x and y hold at least N."""
    for n in range(len(out), N):
        out.append(sum(map(mul, x, y[n::-1])))


class _IntegerBases:
    """The recurrence lists C, A and B of _ScaledPower, as small ints.

    With u = E3a, v = E3b/q and D = u + 27 q v, the power bases are
    f = u/D (kind "a") and f = v/D (kind "b"), and e~ = v (kind "a") or
    e~ = u (kind "b").  The logarithmic derivative
    theta y / y = theta e~ / e~ + alpha theta f / f of y = e~ f**alpha has
    denominators u, v and D only, so C = u v D clears them: C theta y =
    (A + alpha B) y, where, with W = v theta u - u theta v,
        kind "a": A = D u theta v,  B = 27 q v (W - u v),
        kind "b": A = D v theta u,  B = -u (W + 27 q v^2).
    For kind "a", theta f / f = theta u / u - theta D / D and
    D theta u - u theta D = 27 (q v theta u - u theta (q v)) = 27 q (W - u v),
    since theta (q v) = q v + q theta v; for kind "b",
    D theta v - v theta D = u theta v - v theta u - 27 q v^2 = -(W + 27 q v^2).
    C is the same for both kinds, so kinds maps each kind to (C, A, B) with
    one shared C list.  u_0 = v_0 = D_0 = 1 give C_0 = 1, and every theta
    term and the factor q give A_0 = B_0 = 0.

    Every list is a product of the integer series u, v, D and their theta,
    so no entry needs a division, and the entries stay small (measured, and
    tested below k = 400): below 2^40 (C) and 2^49 (A, B) for k < 810, and
    below 2^44 for k < 400.  The lists are formed from the products
    uv = u v and utv = u theta v, with vtu = v theta u = theta (u v) - utv
    and X = W - u v = vtu - utv - uv.  As 27 q v = D - u, 27 q v^2 =
    v D - u v, so B of kind "b" is -u X - C, and only u X is one more
    product.  Coefficient n of each list does not depend on the truncation
    order, so the lists only ever grow.
    """

    def __init__(self) -> None:
        C = []
        self.kinds: dict = {"a": (C, [], []), "b": (C, [], [])}
        self._uv, self._utv, self._uX = [], [], []

    def extend(self, N: int) -> "_IntegerBases":
        """Make every list hold at least N coefficients."""
        (C, Aa, Ba), (_, Ab, Bb) = self.kinds["a"], self.kinds["b"]
        if N <= len(C):
            return self
        u, e3b = eisenstein_ints("E3a", N), eisenstein_ints("E3b", N + 1)
        v = e3b[1:]
        D = [a + 27 * b for a, b in zip(u, e3b)]
        uv, utv, uX = self._uv, self._utv, self._uX
        _product(uv, u, v, N)
        _product(utv, u, [n * x for n, x in enumerate(v)], N)
        vtu = [n * x - y for n, (x, y) in enumerate(zip(uv, utv))]
        X = [x - y - z for x, y, z in zip(vtu, utv, uv)]
        _product(C, D, uv, N)
        _product(Aa, D, utv, N)
        _product(Ab, D, vtu, N)
        _product(Ba, v, [0] + [27 * x for x in X], N)
        _product(uX, u, X, N)
        Bb.extend(-x - c for x, c in zip(uX[len(Bb):], C[len(Bb):]))
        return self


@functools.lru_cache(maxsize=None)
def _scale_lists(den: int) -> tuple:
    """The lists [scale(m)] and [den g(m)] of _ScaledPower for one den, indexed
    by m; they only grow (_ScaledPower.extend_scales), and every num and both
    kinds of that den share them.  scale(m) = scale(m-1) den g(m) from
    scale(0) = 1, since v_p(m!) - v_p((m-1)!) = v_p(m).  The multiplier at
    m = 0 is never used, and is den."""
    return [1], [den]


class _ScaledPower:
    """The series y = e~ f**alpha of one kind, with e~ and f as in _IntegerBases
    and alpha = num/den in lowest terms.

    a_n = y_(n-1) (kind "a") and b_n = y_n (kind "b").  C theta y = (A + alpha B) y
    with theta = q d/dq and C_0 = 1, A_0 = B_0 = 0 give, at coefficient n,
    the one-pass recurrence
        n y_n = sum_{k=1..n} (A_k + alpha B_k - (n-k) C_k) y_(n-k).

    The scale.  e~ and f are integer series and f = 1 + g with g of
    valuation >= 1, so y = e~ sum_m binom(alpha, m) g^m and y_n is a sum over
    m <= n of binom(alpha, m) times integers.  binom(alpha, m) =
    prod_{i<m} (num - i den) / (den^m m!).  At a prime p not dividing den,
    alpha is a p-adic integer, and so is binom(alpha, m).  At a prime p
    dividing den, every factor num - i den is prime to p, so p enters the
    denominator exactly m v_p(den) + v_p(m!) times.  The denominator of
    binom(alpha, m) is thus den^m prod_{p | den} p^(v_p(m!)), which grows
    with m, so y is carried as the integers Y_n = scale(n) y_n with
        scale(n) = den^n prod_{p | den} p^(v_p(n!)),
    the least scale that clears binom(alpha, m) for every m <= n, which is
    all the exactness needs.  It need not be y_n's own denominator, as the
    sum over m can cancel factors: for n < 74, kind b at den 5 keeps up to
    45 factors of 5 in Y_n (47 at num 4), while kind a at den 5 and both
    kinds at den 7 and 13 keep none.  As v_p(n!) <= n <= n v_p(den),
    scale(n) divides den^(2n).

    The Horner multiplier.  With g(m) = prod_{p | den} p^(v_p(m)),
    scale(n) / scale(n-k) = den^k g(n-k+1) ... g(n), so multiplying the
    recurrence by scale(n) gives
        n Y_n = g(n) sum_{k=1..n} T_k den^(k-1) g(n-k+1) ... g(n-1) Y_(n-k)
    with T_k = P_k - (n-k) den C_k and P_k = den A_k + num B_k, small ints.
    Horner's rule from k = n down to 1 multiplies the running sum by
    den g(m) at m = n-k, and g(n) divides n, so Y_n = acc // (n / g(n)),
    an exact division because Y_n is an integer.  The big integers Y_(n-k)
    are only ever multiplied by the small T_k and den g(m).  At den = 1
    (an integer alpha) scale and multiplier are 1.

    g(m) is one gcd: g(m) = gcd(m, den^bits(m)), bits(m) the bit length of
    m.  For p | den, p^(v_p(m)) <= m < 2^bits(m) <= p^bits(m), so
    v_p(m) < bits(m) <= bits(m) v_p(den) and the gcd keeps all of v_p(m),
    while a prime not dividing den does not divide den^bits(m).  The lists
    scale(m) and den g(m) are those of _scale_lists(den), which every num
    and both kinds of den share, and Y, scale and multiplier grow on demand.
    """

    def __init__(self, num: int, den: int, kind: str, bases: _IntegerBases) -> None:
        self.num, self.den, self.kind, self.bases = num, den, kind, bases
        # y_m = Y_m / scales[m]: every reader of y (bigreal_periods._RunningSums,
        # exact_series' a_coeffs and b_coeffs) divides by it, and the recurrence
        # in scaled is written for it and changes with it
        self.scales, self.steps = _scale_lists(den)
        self.Y: list = [1]
        self.P: list = [0]  # den A_k + num B_k
        self.dC: list = [den]  # den C_k

    def extend_scales(self, N: int) -> list:
        """Make scales and steps hold at least N entries; return steps, den g(m) at m."""
        den, scales, steps = self.den, self.scales, self.steps
        for m in range(len(steps), N):
            steps.append(den * math.gcd(m, den ** m.bit_length()))
            scales.append(scales[-1] * steps[-1])
        return steps

    def scaled(self, N: int) -> list:
        """Y_0 .. Y_(N-1), for N >= 0; scales then holds at least N entries."""
        if N < 0:
            raise ValueError("need N >= 0, got {}".format(N))
        num, den, Y, P, dC = self.num, self.den, self.Y, self.P, self.dC
        if len(Y) < N:
            C, A, B = self.bases.extend(N).kinds[self.kind]
            step = self.extend_scales(N)  # den g(m), the Horner multiplier at m
            for k in range(len(P), N):
                P.append(den * A[k] + num * B[k])
                dC.append(den * C[k])
            for n in range(len(Y), N):
                acc = P[n] * Y[0]
                for k in range(n - 1, 0, -1):
                    m = n - k
                    acc = (P[k] - m * dC[k]) * Y[m] + step[m] * acc
                Y.append(acc // (n * den // step[n]))  # n / g(n)
        return Y[:N]


_BASES = _IntegerBases()


@functools.lru_cache(maxsize=None)
def scaled_power(num: int, den: int, kind: str) -> _ScaledPower:
    """The _ScaledPower of alpha = num/den in lowest terms, one per (num, den, kind)
    on the one _IntegerBases; both only grow, so a second compute in the same
    process rebuilds nothing."""
    return _ScaledPower(num, den, kind, _BASES)
