"""Independent numerical oracle for the periods via real elliptic integrals.

The cubic x^3 + 9x^2 + 24 T x + 16 T^2 (T = t^l) has three real roots on
0 < t < 1; the two arches between adjacent roots give complete elliptic
integrals, evaluated as Carlson's R_F(0, y, z) = pi / (2 agm(sqrt y, sqrt z))
on the root gaps (_rf_zero; its tests check it against the R_F duplication
algorithm).  Near t = 0 the upper pair of roots collides at O(T^(3/2))
separation and near t = 1 the lower pair collides; the roots come in closed
trigonometric form, which gives each gap as the sine of an angle and never
subtracts nearly equal root values, under a locally elevated working
precision.  The outer t-integral runs over dyadic panels accumulated toward
both endpoints, with a fitted logarithmic tail model closing the gap to the
endpoints.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from mpmath import mp

from .bigreal import BigReal, agreement_digits, digits_of_bits
from .errors import DomainError, QuadratureNotConverged, RootOrderingFailed
from .integer_kernel import require_lj


_TAIL_MODEL_DIGITS = 10
_PANELS = 20  # dyadic panels of _outer_integral toward each end of (0, 1)
_MAXDEGREE = 6  # mp.quad's maxdegree on each panel


class CubicRoots(NamedTuple):
    r1: BigReal
    r2: BigReal
    r3: BigReal
    gap21: BigReal  # r2 - r1, cancellation-free
    gap31: BigReal  # r3 - r1
    gap32: BigReal  # r3 - r2


class InnerIntegrals(NamedTuple):
    delta_inner: BigReal
    gamma_inner: BigReal


class OraclePeriods(NamedTuple):
    delta_abs: BigReal
    gamma_abs: BigReal
    error_estimate: BigReal


def _to_mpf(v) -> mp.mpf:
    """An exact rational (numerator / denominator), a BigReal or anything mpf accepts."""
    if isinstance(v, BigReal):
        return v.value
    if isinstance(v, int) or not hasattr(v, "numerator"):
        return mp.mpf(v)
    return mp.mpf(v.numerator) / v.denominator


def _root_data(l: int, t):
    """(r1, r2, r3, d21, d31, d32) at the ambient precision plus local guard bits.

    With x = y - 3 the cubic is y^3 - 3R^2 y + q, R = sqrt(9 - 8T), whose
    discriminant 6912 T^3 (1 - T) gives s = sqrt(4R^6 - q^2) without
    cancellation.  The trigonometric roots make every gap 2 sqrt3 R times the
    sine of an angle read from atan2, so near the O(T^(3/2)) and O(sqrt(1-T))
    collisions no nearly equal roots are subtracted; r2 and r3 come from their
    sum by Vieta.  The guard bits cover the sign of the cubic at both arch
    midpoints, which is certified before returning.
    """
    base = mp.prec
    extra = int(2 * l * max(0, -mp.log(t, 2)) + 2 * max(0, -mp.log(1 - t, 2))) + 48
    with mp.workprec(base + extra):
        t = mp.mpf(t)
        T = t ** l
        P = lambda x: ((x + 9) * x + 24 * T) * x + 16 * T * T
        q = (16 * T - 72) * T + 54
        R = mp.sqrt(9 - 8 * T)
        # 1 - T = (1 - t)(1 + t + ... + t^(l-1)), and 1 - t is exact under the guard bits
        s = 16 * T * mp.sqrt(T * (1 - t) * mp.fsum(t ** i for i in range(l)))
        k = 2 * mp.sqrt(3) * R
        phi = mp.atan2(s, -q) / 3
        d21 = k * mp.sin(phi)
        d32 = k * mp.sin(mp.atan2(s, q) / 3)
        d31 = k * mp.sin(mp.pi / 3 + phi)
        r1 = -3 - 2 * R * mp.cos(mp.pi / 3 - phi)
        sigma = (24 * T + 16 * T * T / r1) / r1  # r2 + r3
        r2, r3 = (sigma - d32) / 2, (sigma + d32) / 2
        if not (d21 > 0 and d32 > 0 and d31 > d21 and d31 > d32):
            raise RootOrderingFailed(
                "gaps not strictly positive at (l, t) = ({}, {})".format(l, t))
        if not (P(r1 + d21 / 2) > 0 and P(r2 + d32 / 2) < 0):
            raise RootOrderingFailed(
                "midpoint signs wrong at (l, t) = ({}, {})".format(l, t))
        return r1, r2, r3, d21, d31, d32


@lru_cache(maxsize=1 << 17)
def _arches(l: int, t, prec: int):
    """(delta, gamma) inner integrals at one node, memoised per precision prec.

    delta = 2 R_F(0, r3-r2, r3-r1) over the delta arch, gamma = 2 R_F(0,
    r2-r1, r3-r1) over the gamma arch.  The 2(l-1) adaptive quadratures of a
    `direct_periods` run visit the same tanh-sinh nodes, so each node's roots
    and AGMs are computed once.
    """
    d21, d31, d32 = _root_data(l, t)[3:]
    return 2 * _rf_zero(d32, d31), 2 * _rf_zero(d21, d31)


def _rf_zero(y, z):
    """R_F(0, y, z) = pi / (2 agm(sqrt y, sqrt z)); quadratic convergence."""
    a, b = mp.sqrt(y), mp.sqrt(z)
    while abs(a - b) > 4 * mp.eps * abs(a):
        a, b = (a + b) / 2, mp.sqrt(a * b)
    return mp.pi / (a + b)


def cubic_roots(l: int, t, p: int = 64) -> CubicRoots:
    """Certified ordered real roots of x^3 + 9x^2 + 24 t^l x + 16 t^(2l)."""
    if l < 1:
        raise ValueError("need l >= 1")
    with mp.workprec(p):
        tm = _to_mpf(t)
        if not 0 < tm < 1:
            raise DomainError("need 0 < t < 1")
        r1, r2, r3, d21, d31, d32 = _root_data(l, tm)
    return CubicRoots(*(BigReal(v, p) for v in (r1, r2, r3, d21, d31, d32)))


def inner_integrals(l: int, t, p: int = 64) -> InnerIntegrals:
    """Complete elliptic integrals over the two arches, as positive magnitudes.

    delta arch (r1, r2), where the cubic is positive:  2 R_F(0, r3-r2, r3-r1);
    gamma arch (r2, r3), sign-flipped cubic magnitude: 2 R_F(0, r2-r1, r3-r1).
    """
    if l < 1:
        raise ValueError("need l >= 1")
    with mp.workprec(p + 16):
        tm = _to_mpf(t)
        if not 0 < tm < 1:
            raise DomainError("need 0 < t < 1")
        delta_val, gamma_val = _arches(l, tm, mp.prec)
    return InnerIntegrals(BigReal(delta_val, p), BigReal(gamma_val, p))


def _outer_integral(l: int, j: int, arch: int):
    """2 sqrt(3) * integral of t^(j-1) inner(t) dt over (0,1) at ambient precision.

    inner is the arch's entry of _arches: 0 the delta arch, 1 the gamma arch.

    _PANELS dyadic panels [2^-k-1, 2^-k] toward t = 0 and mirrored toward
    t = 1, each by mp.quad at _MAXDEGREE; the end gaps are closed with a
    two-point logarithmic tail model inner(t) ~ C1 + C2 log(1/t) integrated
    in closed form.
    """
    inner = lambda u: _arches(l, u, mp.prec)[arch]
    f = lambda u: u ** (j - 1) * inner(u)
    total = mp.mpf(0)
    errsum = mp.mpf(0)
    a = mp.mpf(2) ** (-_PANELS)
    i1, i2 = inner(a), inner(2 * a)
    C2 = (i1 - i2) / mp.log(2)
    C1 = i1 - C2 * mp.log(1 / a)
    total += C1 * a**j / j + C2 * (a**j / j) * (mp.log(1 / a) + mp.mpf(1) / j)
    points = [mp.mpf(2) ** (-k) for k in range(_PANELS, 0, -1)]
    points += [1 - mp.mpf(2) ** (-k) for k in range(1, _PANELS + 1)]
    prev = a
    for pt in points:
        if pt > prev:
            value, err = mp.quad(f, [prev, pt], error=True, maxdegree=_MAXDEGREE)
            total += value
            errsum += err
        prev = pt
    i1, i2 = inner(1 - a), inner(1 - 2 * a)
    D2 = (i1 - i2) / mp.log(2)
    D1 = i1 - D2 * mp.log(1 / a)
    total += D1 * a + D2 * a * (mp.log(1 / a) + 1)
    return 2 * mp.sqrt(3) * total, 2 * mp.sqrt(3) * errsum


def direct_periods(l: int, j: int, p: int = 64) -> OraclePeriods:
    """|period| magnitudes over both arches by direct quadrature.

    delta_abs = 2 sqrt3 int_0^1 t^(j-1) delta_inner dt, and likewise gamma.
    This route never touches the q-series machinery; it exists to check it.
    """
    require_lj(l, j)
    with mp.workprec(p + 16):
        delta_val, delta_err = _outer_integral(l, j, 0)
        gamma_val, gamma_err = _outer_integral(l, j, 1)
        err = delta_err + gamma_err
        scale = min(abs(delta_val), abs(gamma_val))
        if not (delta_val > 0 and gamma_val > 0) or err > mp.mpf("1e-6") * scale:
            raise QuadratureNotConverged(
                "panel error {} too large for (l, j) = ({}, {})".format(
                    mp.nstr(err, 3), l, j))
        # panel error underestimates the endpoint tail-model error (~1e-11
        # relative), so the certificate is capped at the model's accuracy
        cap = min(digits_of_bits(p), _TAIL_MODEL_DIGITS)
        cert_d = agreement_digits(delta_val + err, delta_val, cap)
        cert_g = agreement_digits(gamma_val + err, gamma_val, cap)
    return OraclePeriods(
        BigReal(delta_val, p, cert_d),
        BigReal(gamma_val, p, cert_g),
        BigReal(err, p),
    )
