"""Independent numerical oracle for the periods via real elliptic integrals.

The cubic x^3 + 9x^2 + 24 T x + 16 T^2 (T = t^l) has three real roots on
0 < t < 1; the two arches between adjacent roots give complete elliptic
integrals, evaluated through Carlson's R_F on the root gaps.  Near t = 0 the
upper pair of roots collides at O(T^(3/2)) separation and near t = 1 the
lower pair collides, so the gaps are produced by regime-specific expansions
that never subtract nearly equal root values, under a locally elevated
working precision.  The outer t-integral runs over dyadic panels accumulated
toward both endpoints, with a fitted logarithmic tail model closing the gap
to the endpoints.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from mpmath import mp

from .bigreal_periods import BigReal, _agreement_digits, _digits_of_bits, _require_lj, _to_mpf
from .errors import DomainError, QuadratureNotConverged, RootOrderingFailed


_TAIL_MODEL_DIGITS = 10


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


def _newton(f, df, x, scale, maxit=80):
    for _ in range(maxit):
        dx = f(x) / df(x)
        x -= dx
        if abs(dx) <= mp.eps * scale:
            break
    return x


def _root_data(l: int, t):
    """(r1, r2, r3, d21, d31, d32) at the ambient precision plus local guard bits.

    Extra bits cover the O(T^(3/2)) and O(sqrt(1-T)) root collisions; the
    sign of the cubic at both arch midpoints is certified before returning.
    """
    base = mp.prec
    extra = int(2 * l * max(0, -mp.log(t, 2)) + 2 * max(0, -mp.log(1 - t, 2))) + 48
    with mp.workprec(base + extra):
        T = mp.mpf(t) ** l
        P = lambda x: ((x + 9) * x + 24 * T) * x + 16 * T * T
        dP = lambda x: (3 * x + 18) * x + 24 * T
        if T <= mp.mpf(2) ** -8:
            # r1 near -9; rescale x = T u so the collided pair solves
            # T u^3 + 9 u^2 + 24 u + 16 = 0 near u = -4/3
            r1 = _newton(P, dP, mp.mpf(-9), mp.mpf(10))
            g = lambda u: ((T * u + 9) * u + 24) * u + 16
            dg = lambda u: (3 * T * u + 18) * u + 24
            um = up = mp.mpf(-4) / 3
            for _ in range(4):
                um = -mp.mpf(4) / 3 - mp.sqrt(-T * um**3) / 3
                up = -mp.mpf(4) / 3 + mp.sqrt(-T * up**3) / 3
            um = _newton(g, dg, um, abs(um))
            up = _newton(g, dg, up, abs(up))
            r2, r3 = T * um, T * up
            d32 = T * (up - um)
            d31 = T * up - r1
            d21 = T * um - r1
        elif 1 - T <= mp.mpf(2) ** -8:
            # r3 near -1; shift x = -4 + w, the collided pair solves
            # (w - 3) w^2 + 8 (T - 1)(3w + 2T - 10) = 0 near w = 0
            r3 = _newton(P, dP, mp.mpf(-1), mp.mpf(1))
            h = lambda w: (w - 3) * w * w + 8 * (T - 1) * (3 * w + 2 * T - 10)
            dh = lambda w: (3 * w - 6) * w + 24 * (T - 1)
            wm = wp = mp.mpf(0)
            for _ in range(4):
                wm = -mp.sqrt(8 * (1 - T) * (10 - 2 * T - 3 * wm) / (3 - wm))
                wp = mp.sqrt(8 * (1 - T) * (10 - 2 * T - 3 * wp) / (3 - wp))
            wm = _newton(h, dh, wm, mp.mpf(1))
            wp = _newton(h, dh, wp, mp.mpf(1))
            r1, r2 = -4 + wm, -4 + wp
            d21 = wp - wm
            d31 = r3 + 4 - wm
            d32 = r3 + 4 - wp
        else:
            s = mp.sqrt(9 - 8 * T)
            cm, cp = -3 - s, -3 + s  # critical points separate the roots

            def solve(a, b):
                fa = P(a)
                for _ in range(30):
                    m = (a + b) / 2
                    fm = P(m)
                    if fa * fm <= 0:
                        b = m
                    else:
                        a, fa = m, fm
                return _newton(P, dP, (a + b) / 2, abs(a) + abs(b))

            r1 = solve(mp.mpf(-10), cm)
            r2 = solve(cm, cp)
            r3 = solve(cp, mp.mpf(0))
            d32, d31, d21 = r3 - r2, r3 - r1, r2 - r1
        if not (d21 > 0 and d32 > 0 and d31 > d21 and d31 > d32):
            raise RootOrderingFailed(
                "gaps not strictly positive at (l, t) = ({}, {})".format(l, t))
        if not (P(r1 + d21 / 2) > 0 and P(r2 + d32 / 2) < 0):
            raise RootOrderingFailed(
                "midpoint signs wrong at (l, t) = ({}, {})".format(l, t))
        return r1, r2, r3, d21, d31, d32


@lru_cache(maxsize=1 << 17)
def _root_data_cached(l: int, t, prec: int):
    return _root_data(l, t)


def _inner(l: int, t, which: str):
    """2 R_F(0, r3-r2, r3-r1) over the delta arch, 2 R_F(0, r2-r1, r3-r1) over the gamma arch."""
    d21, d31, d32 = _root_data_cached(l, t, mp.prec)[3:]
    return 2 * _rf_zero(d32 if which == "delta" else d21, d31)


def _rf_zero(y, z):
    """R_F(0, y, z) = pi / (2 agm(sqrt y, sqrt z)); quadratic convergence."""
    a, b = mp.sqrt(y), mp.sqrt(z)
    while abs(a - b) > 4 * mp.eps * abs(a):
        a, b = (a + b) / 2, mp.sqrt(a * b)
    return mp.pi / (a + b)


def _rf_duplication(x, y, z):
    """Classic R_F duplication iteration; returns (value, iteration count)."""
    cutoff = mp.power(mp.eps, mp.mpf(1) / 6)
    iterations = 0
    while True:
        mu = (x + y + z) / 3
        spread = max(abs(x - mu), abs(y - mu), abs(z - mu)) / mu
        if spread < cutoff:
            break
        lam = mp.sqrt(x) * mp.sqrt(y) + mp.sqrt(y) * mp.sqrt(z) + mp.sqrt(z) * mp.sqrt(x)
        x, y, z = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4
        iterations += 1
    X = (mu - x) / mu
    Y = (mu - y) / mu
    Z = -X - Y
    e2 = X * Y - Z * Z
    e3 = X * Y * Z
    value = (1 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44) / mp.sqrt(mu)
    return value, iterations


def carlson_rf(x, y, z, p: int = 64) -> BigReal:
    """Carlson symmetric integral R_F by the duplication algorithm."""
    with mp.workprec(p + 16):
        args = sorted(_to_mpf(v) for v in (x, y, z))
        if args[0] < 0:
            raise DomainError("R_F needs nonnegative arguments")
        if args[1] <= 0:
            raise DomainError("R_F needs at most one zero argument")
        if args[0] == 0:
            value = _rf_zero(args[1], args[2])
        else:
            value, _ = _rf_duplication(*args)
    return BigReal(value, p)


def cubic_roots(l: int, t, p: int = 64) -> CubicRoots:
    """Certified ordered real roots of x^3 + 9x^2 + 24 t^l x + 16 t^(2l)."""
    if l < 1:
        raise ValueError("need l >= 1")
    with mp.workprec(p):
        tm = _to_mpf(t)
        if not 0 < tm < 1:
            raise DomainError("need 0 < t < 1")
        r1, r2, r3, d21, d31, d32 = _root_data_cached(l, tm, mp.prec)
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
        delta_val = _inner(l, tm, "delta")
        gamma_val = _inner(l, tm, "gamma")
    return InnerIntegrals(BigReal(delta_val, p), BigReal(gamma_val, p))


def _outer_integral(l: int, j: int, which: str, K: int = 20, maxdegree: int = 6):
    """2 sqrt(3) * integral of t^(j-1) inner(t) dt over (0,1) at ambient precision.

    Dyadic panels [2^-k-1, 2^-k] toward t = 0 and mirrored toward t = 1;
    the end gaps are closed with a two-point logarithmic tail model
    inner(t) ~ C1 + C2 log(1/t) integrated in closed form.
    """
    inner = lambda u: _inner(l, u, which)
    f = lambda u: u ** (j - 1) * inner(u)
    total = mp.mpf(0)
    errsum = mp.mpf(0)
    a = mp.mpf(2) ** (-K)
    i1, i2 = inner(a), inner(2 * a)
    C2 = (i1 - i2) / mp.log(2)
    C1 = i1 - C2 * mp.log(1 / a)
    total += C1 * a**j / j + C2 * (a**j / j) * (mp.log(1 / a) + mp.mpf(1) / j)
    points = [mp.mpf(2) ** (-k) for k in range(K, 0, -1)]
    points += [1 - mp.mpf(2) ** (-k) for k in range(1, K + 1)]
    prev = a
    for pt in points:
        if pt > prev:
            value, err = mp.quad(f, [prev, pt], error=True, maxdegree=maxdegree)
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
    _require_lj(l, j)
    with mp.workprec(p + 16):
        delta_val, delta_err = _outer_integral(l, j, "delta")
        gamma_val, gamma_err = _outer_integral(l, j, "gamma")
        err = delta_err + gamma_err
        scale = min(abs(delta_val), abs(gamma_val))
        if not (delta_val > 0 and gamma_val > 0) or err > mp.mpf("1e-6") * scale:
            raise QuadratureNotConverged(
                "panel error {} too large for (l, j) = ({}, {})".format(
                    mp.nstr(err, 3), l, j))
        # panel error underestimates the endpoint tail-model error (~1e-11
        # relative), so the certificate is capped at the model's accuracy
        cap = min(_digits_of_bits(p), _TAIL_MODEL_DIGITS)
        cert_d = _agreement_digits(delta_val + err, delta_val, cap)
        cert_g = _agreement_digits(gamma_val + err, gamma_val, cap)
    return OraclePeriods(
        BigReal(delta_val, p, cert_d),
        BigReal(gamma_val, p, cert_g),
        BigReal(err, p),
    )
