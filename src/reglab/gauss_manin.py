"""Gauss-Manin connection and Picard-Fuchs operator for a Weierstrass family.

Everything is expressed in the frame (omega-hat, omega-star) of the de Rham
bundle, with all derivatives taken against the fixed affine coordinate t
(df = f' dt).  Entries are exact rational functions; no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Set, Tuple

from .errors import IsotrivialFamily
from .weierstrass import (
    Place,
    Polynomial,
    RationalFunction,
    WeierstrassFamily,
    squarefree_decomposition,
    uniform_pieces,
)


def _ee_form(W: WeierstrassFamily) -> RationalFunction:
    # 2 g2 g3' - 3 g2' g3; the companion 6 g2 g3' - 9 g2' g3 is exactly 3 times it
    return 2 * W.g2 * W.g3.derivative() - 3 * W.g2.derivative() * W.g3


class ConnectionMatrix:
    """2x2 connection matrix in the frame (omega-hat, omega-star), dt implicit.

    Row i holds the coefficients of nabla applied to the i-th frame vector.
    """

    __slots__ = ("m", "family")

    def __init__(self, m: Tuple[Tuple[RationalFunction, ...], ...],
                 family: WeierstrassFamily) -> None:
        if len(m) != 2 or any(len(row) != 2 for row in m):
            raise ValueError("connection matrix must be 2x2")
        trace = m[0][0] + m[1][1]
        if not trace.is_zero():
            raise ValueError("connection matrix must be trace-free")
        self.m = (tuple(m[0]), tuple(m[1]))
        self.family = family

    def trace(self) -> RationalFunction:
        return self.m[0][0] + self.m[1][1]

    @property
    def omega_hat_to_star(self) -> RationalFunction:
        """The (6 g2 g3' - 9 g2' g3) / Delta entry whose zeros degenerate the frame."""
        return self.m[0][1]

    def __repr__(self) -> str:
        return "ConnectionMatrix([[{}, {}], [{}, {}]])".format(
            self.m[0][0], self.m[0][1], self.m[1][0], self.m[1][1])


class PicardFuchsOperator:
    """Second-order operator f |-> f'' A + f' A' + f B acting against omega-star."""

    __slots__ = ("A", "B", "family")

    def __init__(self, A: RationalFunction, B: RationalFunction,
                 family: WeierstrassFamily) -> None:
        if A.is_zero():
            raise IsotrivialFamily("leading coefficient A vanishes identically")
        self.A = A
        self.B = B
        self.family = family

    def __repr__(self) -> str:
        return "PicardFuchsOperator(A={}, B={})".format(self.A, self.B)


def connection_matrix(W: WeierstrassFamily) -> ConnectionMatrix:
    """Gauss-Manin connection:

    nabla omega-hat  = -(Delta'/12Delta) omega-hat + ((6g2g3'-9g2'g3)/Delta) omega-star
    nabla omega-star = -(g2(2g2g3'-3g2'g3)/16Delta) omega-hat + (Delta'/12Delta) omega-star
    """
    delta = W.delta
    ee = _ee_form(W)
    diag = delta.derivative() / (12 * delta)
    upper = (3 * ee) / delta
    lower = -(W.g2 * ee) / (16 * delta)
    return ConnectionMatrix(((-diag, upper), (lower, diag)), W)


def degeneracy_locus(W: WeierstrassFamily) -> Set[Place]:
    """Places of the smooth base locus where (omega-hat, nabla omega-hat) degenerates.

    These are the zeros of (6g2g3'-9g2'g3)/Delta away from the singular
    fibers and poles; the pairing fails to be an isomorphism exactly there.
    """
    delta = W.delta
    ee = _ee_form(W)
    if ee.is_zero():
        raise IsotrivialFamily("j-invariant is constant")
    ratio = (3 * ee) / delta
    excluded = [p for p in (delta.numerator, delta.denominator,
                            W.g2.denominator, W.g3.denominator)
                if p.degree > 0]
    return {Place.finite(piece)
            for factor, _ in squarefree_decomposition(ratio.numerator)
            for piece, mults in uniform_pieces(factor, excluded) if not any(mults)}


def picard_fuchs(W: WeierstrassFamily) -> PicardFuchsOperator:
    """The operator PF(f omega-star) = (f'' A + f' A' + f B) dt tensor omega-hat with

    A = -Delta / (6g2g3' - 9g2'g3)
    B = (1/48) [ (g2 (g2')^2 - 12 (g3')^2) / (2g2g3' - 3g2'g3)
                 - (4 Delta' / (3 (2g2g3' - 3g2'g3)))' ]
    """
    delta = W.delta
    ee = _ee_form(W)
    if ee.is_zero():
        raise IsotrivialFamily("j-invariant is constant")
    A = -delta / (3 * ee)
    dg2 = W.g2.derivative()
    dg3 = W.g3.derivative()
    first = (W.g2 * dg2 * dg2 - 12 * dg3 * dg3) / ee
    second = (4 * delta.derivative() / (3 * ee)).derivative()
    B = Fraction(1, 48) * (first - second)
    return PicardFuchsOperator(A, B, W)


def pf_apply(PF: PicardFuchsOperator, f) -> RationalFunction:
    """f'' A + f' A' + f B, exactly."""
    if not isinstance(f, RationalFunction):
        f = RationalFunction(f)
    df = f.derivative()
    return df.derivative() * PF.A + df * PF.A.derivative() + f * PF.B


def pf_relation(PF: PicardFuchsOperator, m: int) -> RationalFunction:
    """Image of t^m under the Picard-Fuchs operator.

    The numerator's monomial coefficients encode a linear relation among the
    classes t^k dt dx/y; callers clear the denominator and read them off.
    """
    if m < 0:
        raise ValueError("need m >= 0")
    tm = Polynomial([Fraction(0)] * m + [Fraction(1)])
    return pf_apply(PF, tm)
