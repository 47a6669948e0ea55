"""Gauss-Manin connection and Picard-Fuchs operator for a Weierstrass family.

Everything is expressed in the frame (omega-hat, omega-star) of the de Rham
bundle, with all derivatives taken against the fixed affine coordinate t
(df = f' dt).  Entries are exact rational functions; no floating point.
The connection matrix (ConnectionMatrix) and the operator
(PicardFuchsOperator) are namedtuple records, compared by value;
gives_operator checks exactly that the one gives the other.  The
degeneracy locus takes its places from one radical, as fiber_list does.
"""

from collections import namedtuple
from fractions import Fraction

from .errors import IsotrivialFamily
from .weierstrass import (
    Place,
    Polynomial,
    RationalFunction,
    WeierstrassFamily,
    radical,
    uniform_pieces,
)


def _ee_form(W: WeierstrassFamily) -> RationalFunction:
    # 2 g2 g3' - 3 g2' g3; the companion 6 g2 g3' - 9 g2' g3 is exactly 3 times it
    return 2 * W.g2 * W.g3.derivative() - 3 * W.g2.derivative() * W.g3


class ConnectionMatrix(namedtuple("ConnectionMatrix", "m")):
    """2x2 connection matrix m in the frame (omega-hat, omega-star), dt implicit.

    Row i of m holds the coefficients of nabla applied to the i-th frame
    vector.  connection_matrix builds it trace-free.
    """

    __slots__ = ()

    def trace(self) -> RationalFunction:
        return self.m[0][0] + self.m[1][1]

    @property
    def omega_hat_to_star(self) -> RationalFunction:
        """The (6 g2 g3' - 9 g2' g3) / Delta entry whose zeros degenerate the frame."""
        return self.m[0][1]


# the second-order operator f |-> f'' A + f' A' + f B acting against omega-star;
# A = -Delta / (3 ee) is never 0: W.delta raises for Delta = 0, picard_fuchs for ee = 0
PicardFuchsOperator = namedtuple("PicardFuchsOperator", "A B")


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
    return ConnectionMatrix(((-diag, upper), (lower, diag)))


def degeneracy_locus(W: WeierstrassFamily) -> set[Place]:
    """Places of the smooth base locus where (omega-hat, nabla omega-hat) degenerates.

    These are the zeros of (6g2g3'-9g2'g3)/Delta away from the singular
    fibers and poles; the pairing fails to be an isomorphism exactly there.
    They are the uniform pieces of the numerator's radical, split by the
    numerator itself too, on which no other witness vanishes.
    """
    delta = W.delta
    ee = _ee_form(W)
    if ee.is_zero():
        raise IsotrivialFamily("j-invariant is constant")
    num = ((3 * ee) / delta).numerator
    witnesses = [num, delta.numerator, delta.denominator, W.g2.denominator, W.g3.denominator]
    return {Place.finite(piece) for piece, mults in uniform_pieces(radical(num), witnesses)
            if not any(mults[1:])}


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
    return PicardFuchsOperator(A, B)


def gives_operator(cm: ConnectionMatrix, PF: PicardFuchsOperator) -> bool:
    """Whether cm = ((a, b), (c, d)) is trace-free and gives PF's operator.

    Periods P of omega-hat and Q of omega-star satisfy P' = aP + bQ and
    Q' = cP + dQ; eliminating Q with a = -d gives
    P'' - (b'/b) P' + (d' - d b'/b - d^2 - bc) P = 0, which is PF's
    A P'' + A' P' + B P = 0 exactly when A b = -1 (picard_fuchs' normalization)
    and B = -(d' - d b'/b - d^2 - bc)/b.
    """
    (_, b), (c, d) = cm.m
    db = b.derivative() / b
    return (cm.trace().is_zero() and (PF.A * b + 1).is_zero()
            and PF.B == -(d.derivative() - d * db - d * d - b * c) / b)


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
