"""Independent numerical oracle for the periods via real elliptic integrals.

The cubic x^3 + 9x^2 + 24 T x + 16 T^2 (T = t^l) has three real roots on
0 < t < 1; the two arches between adjacent roots give complete elliptic
integrals, evaluated as Carlson's R_F(0, y, z) = pi / (2 agm(sqrt y, sqrt z))
on the root gaps (_rf_zero; its tests check it against the R_F duplication
algorithm).  Near t = 0 the upper pair of roots collides at O(T^(3/2))
separation and near t = 1 the lower pair collides; the roots come in closed
trigonometric form, which gives each gap as the sine of an angle and never
subtracts nearly equal root values, at guard bits stated as a function of
(l, t) (_guard).  The outer t-integral runs over dyadic panels accumulated
toward both endpoints, each by Gauss-Legendre rules of m and 2m nodes, with
a fitted logarithmic tail model closing the gap to the endpoints.

Everything is Python-int fixed point on the kernels of bigreal.  The inner
integrals do not depend on j, so one table of node values per (l, p)
(_node_table) serves every j and both arches.
"""

import math
from collections import namedtuple
from functools import lru_cache

from .bigreal import (GUARD, BigReal, agreement_digits, atan2, digits_of_bits,
                      fixed_constants, fixed_pi, sin, sqrt)
from .errors import DomainError, QuadratureNotConverged, RootOrderingFailed
from .integer_kernel import require_lj


_PANELS = 20  # dyadic panels of _outer_integrals reach 2^-_PANELS from each end of (0, 1)


# BigReals each; gap21 = r2 - r1, gap31 = r3 - r1 and gap32 = r3 - r2, cancellation-free
CubicRoots = namedtuple("CubicRoots", "r1 r2 r3 gap21 gap31 gap32")
InnerIntegrals = namedtuple("InnerIntegrals", "delta_inner gamma_inner")
OraclePeriods = namedtuple("OraclePeriods", "delta_abs gamma_abs error_estimate")


def _read_t(t, w: int) -> tuple:
    """t as (man, exp) with 0 < t < 1, read exactly by BigReal: a (man, exp)
    pair of ints, a float or a BigReal; TypeError for anything else."""
    x = BigReal(t, w)
    man, exp = x.man, x.exp
    if not (man > 0 and exp < 0 and man < 1 << -exp):
        raise DomainError("need 0 < t < 1")
    return man, exp


def _guard(l: int, t: tuple) -> int:
    """Guard bits at t = man 2^exp: 3 l n0 / 2 + n1 + 16, rounded up, for
    t >= 2^-n0 and 1 - t >= 2^-n1 read from bit lengths.

    Near t = 0, d32 ~ T^(3/2) >= 2^(-3 l n0 / 2) needs that many bits beyond
    w to keep w bits of its own, and the scaled midpoint value
    P(sigma/2) / T^2 ~ T fewer; near t = 1, d21 ~ sqrt(1 - T) and
    P(r1 + d21/2) ~ 1 - T need fewer than n1.
    """
    man, exp = t
    n0 = 1 - exp - man.bit_length()
    n1 = 1 - exp - ((1 << -exp) - man).bit_length()
    return (3 * l * n0 + 1) // 2 + n1 + 16


def _root_data(l: int, t: tuple, w: int) -> tuple:
    """(W, r1, r2, r3, d21, d31, d32) at W = w + _guard(l, t) bits, t = (man, exp).

    With x = y - 3 the cubic is y^3 - 3R^2 y + q, R = sqrt(9 - 8T), whose
    discriminant 6912 T^3 (1 - T) gives s = sqrt(4R^6 - q^2) = 16 T
    sqrt(T (1 - t) (1 + t + ... + t^(l-1))) without cancellation.  The
    trigonometric roots make every gap 2 sqrt3 R times the sine of an angle
    read from theta = atan2(s, -q) or pi - theta.  Near t = 1, q < 0 and
    theta is the small angle; near t = 0, 0 < s <= q and atan2 returns
    theta as its own fixed_pi(W) minus atan(s/q), so pi - theta is that
    angle exactly.  Near the O(T^(3/2)) and O(sqrt(1-T)) collisions no
    nearly equal values are subtracted.  The roots add to -9, so by Vieta
    r1 = -3 - (d21 + d31)/3, floored, which is off by less than
    (e21 + e31)/3 + 1 units when d21 and d31 are off by less than e21 and
    e31 units; r2 and r3 come from their sum sigma, also by Vieta.  The gap
    order and the cubic's signs at both arch midpoints, P(r1 + d21/2) > 0
    and P(sigma/2) = T^2 (T y^3 + 9y^2 + 24y + 16) < 0 with sigma = 2T y,
    are certified on the integers before returning.
    """
    W = w + _guard(l, t)
    one = 1 << W
    man, exp = t
    shift = W + exp
    x = man << shift if shift >= 0 else man >> -shift  # t, floored at W bits
    shift = W + l * exp
    T = pow(man, l) << shift if shift >= 0 else pow(man, l) >> -shift
    powers, power = one, one  # 1 + t + ... + t^(l-1)
    for _ in range(l - 1):
        power = power * x >> W
        powers += power
    s = 16 * T * math.isqrt((T * (one - x) >> W) * powers) >> W
    q = ((16 * T - 72 * one) * T >> W) + 54 * one
    k = sqrt(108 * one - 96 * T, W)  # 2 sqrt3 R
    pi = fixed_pi(W)
    theta = atan2(s, -q, W)
    phi, psi = theta // 3, (pi - theta) // 3
    d21 = k * sin(phi, W) >> W
    d32 = k * sin(psi, W) >> W
    d31 = k * sin(pi // 3 + phi, W) >> W
    r1 = -3 * one - (d21 + d31) // 3  # r1 + r2 + r3 = 3 r1 + d21 + d31 = -9
    if not (d21 > 0 and d32 > 0 and d31 > d21 and d31 > d32):
        raise RootOrderingFailed("gaps not strictly positive at (l, t) = ({}, {})".format(
            l, BigReal(t, W)))
    u = r1 + d21 // 2
    y = (24 * one + (16 * T << W) // r1 << W) // (2 * r1)  # sigma / 2T = (24 + 16T/r1) / 2r1
    if not (((((u + 9 * one) * u >> W) + 24 * T) * u >> W) + (16 * T * T >> W) > 0
            and (T * (y * y >> W) * y >> 2 * W) + (9 * y * y >> W) + 24 * y + 16 * one < 0):
        raise RootOrderingFailed("midpoint signs wrong at (l, t) = ({}, {})".format(
            l, BigReal(t, W)))
    sigma = 2 * T * y >> W
    return W, r1, (sigma - d32) // 2, (sigma + d32) // 2, d21, d31, d32


def _rf_zero(y: int, z: int, w: int, pi: int) -> int:
    """R_F(0, y, z) = pi / (2 agm(sqrt y, sqrt z)) at w bits for y, z > 0, pi at w bits.

    The means a >= b start from bigreal's sqrt and run on math.isqrt.  The next step would bring them
    within (a - b)^2 / 8b units of each other, so the loop stops once that
    is at most 1 unit and takes the limit as (a + b)/2, within 1 unit.  Each
    of the n steps floors both means by less than 1 unit, and agm is
    homogeneous of degree 1 with nonnegative partial derivatives, so it
    moves by less than a relative 2^-w / b of that step; with the two
    square roots, (a + b)/2 is off by less than a relative (n + 4) 2^-w / b0,
    b0 = sqrt(min(y, z)) in units, and R_F by that plus 3 units.  Here
    n < log2 w + log2(2 + |log2(y/z)|): each step takes the square root of
    the ratio of the means until they are within a factor 2, and then
    squares their relative distance.
    """
    a, b = sqrt(y, w), sqrt(z, w)
    if a < b:
        a, b = b, a
    while (a - b) ** 2 > 8 * b:
        a, b = a + b >> 1, math.isqrt(a * b)
    return (pi << w) // (a + b)


def _arches(l: int, t: tuple, w: int) -> tuple:
    """(delta, gamma) inner integrals at t = (man, exp), at w bits.

    delta = 2 R_F(0, r3-r2, r3-r1) over the delta arch, gamma = 2 R_F(0,
    r2-r1, r3-r1) over the gamma arch, both at the guard bits of _root_data.
    """
    W, _, _, _, d21, d31, d32 = _root_data(l, t, w)
    pi = fixed_pi(W)
    return 2 * _rf_zero(d32, d31, W, pi) >> W - w, 2 * _rf_zero(d21, d31, W, pi) >> W - w


def cubic_roots(l: int, t, p: int = 64) -> CubicRoots:
    """Certified ordered real roots of x^3 + 9x^2 + 24 t^l x + 16 t^(2l), at precision p,
    each the integer _root_data computed at its W bits."""
    if l < 1:
        raise ValueError("need l >= 1")
    w = p + GUARD
    W, *values = _root_data(l, _read_t(t, w), w)
    return CubicRoots(*(BigReal((v, -W), p) for v in values))


def inner_integrals(l: int, t, p: int = 64) -> InnerIntegrals:
    """Complete elliptic integrals over the two arches, as positive magnitudes at precision p,
    each the integer _arches computed at w = p + GUARD bits.

    delta arch (r1, r2), where the cubic is positive:  2 R_F(0, r3-r2, r3-r1);
    gamma arch (r2, r3), sign-flipped cubic magnitude: 2 R_F(0, r2-r1, r3-r1).
    """
    if l < 1:
        raise ValueError("need l >= 1")
    w = p + GUARD
    return InnerIntegrals(*(BigReal((v, -w), p) for v in _arches(l, _read_t(t, w), w)))


def _order(p: int) -> int:
    """m of the m- and 2m-node rules: 2 ceil(p / 16), so that 4m log2(3 + sqrt 8) > 1.27 p.

    A dyadic panel [a, 2a] lies at one panel width from the nearest
    singularity of the integrand (t = 0 or t = 1; the roots of t^l = 1 off
    the real axis are farther in panel widths), so the integrand is analytic
    inside the Bernstein ellipse of parameter 3 + sqrt 8, and an n-node rule
    is off by O((3 + sqrt 8)^(-2n)): about 2^(-1.27 p) for the 2m-node value
    and 2^(-0.64 p) for the m-node one, whose difference is the error estimate.
    """
    return 2 * -(-p // 16)


@lru_cache(maxsize=8)
def _gauss_legendre(m: int, w: int) -> tuple:
    """(x, weight) of the m-node Gauss-Legendre rule on [-1, 1] at w bits, m even.

    Each positive node comes from Newton's method on P_m, started at the
    float cos(pi (i - 1/4) / (m + 1/2)), with P_m and P_(m-1) from the
    three-term recurrence (n + 1) P_(n+1) = (2n + 1) x P_n - n P_(n-1) at
    h = w + 16 bits, until a step moves x by at most 1 unit of h or by no
    less than the step before: the rounding of P_m then sets the steps.
    The weight is 2 (1 - x^2) / (m P_(m-1)(x))^2; the negative nodes mirror.
    """
    h = w + 16
    one = 1 << h
    rule = []
    for i in range(1, m // 2 + 1):
        x = int(math.cos(math.pi * (i - 0.25) / (m + 0.5)) * 2.0 ** 53) << h - 53
        dx, last = one, 2 * one
        while 1 < abs(dx) < last:
            last = abs(dx)
            prev, cur = one, x  # P_0, P_1
            for n in range(1, m):
                prev, cur = cur, ((2 * n + 1) * (x * cur >> h) - n * prev) // (n + 1)
            # P_m / P_m' = P_m (x^2 - 1) / (m (x P_m - P_(m-1)))
            dx = cur * ((x * x >> h) - one) // (m * ((x * cur >> h) - prev))
            x -= dx
        prev, cur = one, x
        for n in range(1, m - 1):
            prev, cur = cur, ((2 * n + 1) * (x * cur >> h) - n * prev) // (n + 1)
        weight = (2 * (one - (x * x >> h)) << 2 * h) // (m * cur) ** 2 >> 16
        rule += [(x >> 16, weight), (-x >> 16, weight)]
    return tuple(rule)


def _panels():
    """(numerator, k) per dyadic panel, whose nodes are t = (numerator + x) 2^-(k+2) for
    the rule's x in (-1, 1): [2^-(k+1), 2^-k] toward t = 0 and [1 - 2^-k, 1 - 2^-(k+1)]
    toward t = 1, 0 < k < _PANELS, which tile [2^-_PANELS, 1 - 2^-_PANELS]."""
    yield from ((3, k) for k in range(_PANELS - 1, 0, -1))
    yield from (((1 << k + 2) - 3, k) for k in range(1, _PANELS))


@lru_cache(maxsize=4)
def _node_table(l: int, p: int) -> tuple:
    """The j-independent part of every direct_periods(l, j, p), at w = p + GUARD bits.

    For each panel, one tuple per rule (m and 2m nodes): (t, delta, gamma) per
    node, t floored at w bits and delta and gamma the inner integrals times
    the node's weight and the panel's half width.  Then the inner integrals
    at the four points of the tail model: 2^-_PANELS, 2^(1-_PANELS) and
    their mirrors 1 - 2^-_PANELS, 1 - 2^(1-_PANELS).
    """
    w = p + GUARD
    m = _order(p)

    def node(numerator: int, k: int, x: int, weight: int) -> tuple:
        t = (numerator << w) + x
        delta, gamma = _arches(l, (t, -(w + k + 2)), w)
        return t >> k + 2, weight * delta >> w + k + 2, weight * gamma >> w + k + 2

    panels = tuple(tuple(tuple(node(numerator, k, x, weight) for x, weight in rule)
                         for rule in (_gauss_legendre(m, w), _gauss_legendre(2 * m, w)))
                   for numerator, k in _panels())
    ends = tuple(_arches(l, t, w) for t in ((1, -_PANELS), (1, 1 - _PANELS),
                                            ((1 << _PANELS) - 1, -_PANELS),
                                            ((1 << _PANELS - 1) - 1, 1 - _PANELS)))
    return panels, ends


def _outer_integrals(l: int, j: int, p: int) -> tuple:
    """(delta, gamma, error) at w = p + GUARD bits: 2 sqrt(3) times the integral of
    t^(j-1) inner(t) dt over (0, 1) for each arch, and their panel error.

    On each dyadic panel of _panels the 2m-node rule gives the value and
    its distance from the m-node rule the panel error, summed over panels
    and arches.  The end gaps are closed with a two-point logarithmic tail
    model inner(t) ~ C1 + C2 log(1/t), integrated in closed form, with
    log(1/a) = _PANELS ln 2 for a = 2^-_PANELS.
    """
    w = p + GUARD
    one = 1 << w
    panels, ends = _node_table(l, p)
    totals, err = [0, 0], 0
    for rules in panels:
        # sum over the nodes of t^(j-1) times each arch's entry, floored once
        coarse, fine = [[sum(node[1 + arch] * pow(node[0], j - 1) for node in nodes)
                         >> (j - 1) * w for arch in (0, 1)] for nodes in rules]
        for arch in (0, 1):
            totals[arch] += fine[arch]
            err += abs(fine[arch] - coarse[arch])
    ln2 = fixed_constants(w).ln2
    log_a = _PANELS * ln2  # log(1/a)
    for arch in (0, 1):
        (i1, i2), (e1, e2) = [(ends[n][arch], ends[n + 1][arch]) for n in (0, 2)]
        C2 = ((i1 - i2) << w) // ln2
        C1 = i1 - (C2 * log_a >> w)
        a_j = one >> _PANELS * j  # a^j
        totals[arch] += (C1 * a_j >> w) // j + ((C2 * a_j >> w) * (log_a + one // j) // j >> w)
        D2 = ((e1 - e2) << w) // ln2
        D1 = e1 - (D2 * log_a >> w)
        totals[arch] += (D1 >> _PANELS) + (D2 * (log_a + one) >> w + _PANELS)
    sqrt12 = 2 * fixed_constants(w).sqrt3
    return (sqrt12 * totals[0] >> w, sqrt12 * totals[1] >> w, sqrt12 * err >> w)


def direct_periods(l: int, j: int, p: int = 64) -> OraclePeriods:
    """|period| magnitudes over both arches by direct quadrature, at precision p, each
    the integer _outer_integrals computed at w = p + GUARD bits.

    delta_abs = 2 sqrt3 int_0^1 t^(j-1) delta_inner dt, and likewise gamma.
    This route never touches the q-series machinery; it exists to check it.
    """
    require_lj(l, j)
    w = p + GUARD
    delta, gamma, err = _outer_integrals(l, j, p)
    if not (delta > 0 and gamma > 0) or err * 10 ** 6 > min(delta, gamma):
        raise QuadratureNotConverged(
            "panel error {} too large for (l, j) = ({}, {})".format(
                BigReal((err, -w), p).to_decimal(3), l, j))
    # the panel error does not see the endpoint tail model's, so the
    # certificate is capped at the largest d <= 10 with 17 l^2 10^d <= 10^13.
    # Measured, not proven: against period_table at 200 bits the model's
    # relative error grows about as l^2 and is worst at j = l - 1 on the
    # gamma arch, about 8.5e-13 l^2 for l from 5 to 199; the cap doubles that.
    cap = min(digits_of_bits(p), 10)
    while cap and 17 * l * l * 10 ** cap > 10 ** 13:
        cap -= 1
    return OraclePeriods(
        BigReal((delta, -w), p, agreement_digits(delta + err, delta, cap)),
        BigReal((gamma, -w), p, agreement_digits(gamma + err, gamma, cap)),
        BigReal((err, -w), p),
    )
