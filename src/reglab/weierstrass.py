"""Weierstrass families over Q(t): discriminant, j-invariant, Kodaira fibers.

Exact arithmetic throughout.  Finite places are squarefree monic factors of
the base polynomial ring; a factor is only accepted as a place when every
order computed at it is certified constant along its roots (f = pi^k h with
gcd(h, pi) = 1), so reducible factors like t^l - 1 behave like single points.
fiber_list reads the orders of g2, g3 and Delta at each finite place once,
from the multiplicities uniform_pieces finds while splitting the place off;
classify_fiber reads them with ord_at.  A place (Place) and a fiber
(KodairaFiber) are namedtuple records, compared and hashed by value.
"""

from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import IsotrivialFamily, NonIntegralEpsilon, NotMinimal
from .integer_kernel import hodge_and_dims  # re-exported: the dimensions of the fiber data

_ORD_INF = 10**9


class Polynomial:
    """Dense univariate polynomial in t over the exact rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable) -> None:
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return Polynomial(c / lead for c in self.coeffs)

    def derivative(self) -> "Polynomial":
        return Polynomial(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn, dd = self.degree, other.degree
        if dn < dd:
            return Polynomial([]), self
        inv_lead = Fraction(1) / other.coeffs[-1]
        quot = [Fraction(0)] * (dn - dd + 1)
        # zero terms are skipped: the places' polynomials, like t^l - 1, are sparse
        for k in range(dn - dd, -1, -1):
            if rem[k + dd]:
                c = quot[k] = rem[k + dd] * inv_lead
                for i, b in enumerate(other.coeffs):
                    if b:
                        rem[k + i] -= c * b
        return Polynomial(quot), Polynomial(rem[:dd])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # a constant hashes like its value, as it compares equal to it
        return hash(self.coeffs) if self.degree > 0 else hash(self(0))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "t" if k == 1 else "t^{}".format(k)
                body = var if mag == 1 else "{}*{}".format(mag, var)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return "Polynomial({})".format(self)


def _as_poly(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial([value])
    return NotImplemented


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over Q."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def squarefree_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun decomposition: pairwise-coprime monic squarefree (factor, mult) pairs."""
    if p.degree < 1:
        return []
    p = p.monic()
    dp = p.derivative()
    a0 = poly_gcd(p, dp)
    b = p // a0
    d = (dp // a0) - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        a = poly_gcd(b, d)
        if a.degree > 0:
            out.append((a, i))
        b = b // a
        d = (d // a) - b.derivative()
        i += 1
    return out


def split_by_multiplicity(pi: Polynomial, p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Partition squarefree pi into monic factors on which p has constant root multiplicity."""
    if p.is_zero():
        return [(pi.monic(), _ORD_INF)]
    pi = pi.monic()
    out = []
    k = 0
    while pi.degree > 0:
        d = poly_gcd(pi, p)
        exact = pi // d
        if exact.degree > 0:
            out.append((exact.monic(), k))
        pi = d
        # divide p by pi^e for the largest e: by pi, pi^2, pi^4, ... while each
        # divides, then by those powers again from the top down where one does
        powers = [pi] if pi.degree > 0 else []
        while powers:
            q, r = divmod(p, powers[-1])
            if not r.is_zero():
                break
            p, k = q, k + (1 << len(powers) - 1)
            powers.append(powers[-1] * powers[-1])
        for i in reversed(range(len(powers) - 1)):
            q, r = divmod(p, powers[i])
            if r.is_zero():
                p, k = q, k + (1 << i)
    return out


class Place(namedtuple("Place", "polynomial")):
    """A closed point of the base: a squarefree monic factor, or None for infinity."""

    __slots__ = ()

    def __new__(cls, polynomial: Polynomial | None) -> "Place":
        if polynomial is not None:
            if polynomial.degree < 1:
                raise ValueError("finite place needs a nonconstant polynomial")
            polynomial = polynomial.monic()
        return super().__new__(cls, polynomial)

    @classmethod
    def infinity(cls) -> "Place":
        return cls(None)

    @classmethod
    def finite(cls, polynomial: Polynomial) -> "Place":
        return cls(polynomial)

    @classmethod
    def at_point(cls, a) -> "Place":
        return cls(Polynomial([-Fraction(a), 1]))

    @property
    def is_infinity(self) -> bool:
        return self.polynomial is None

    @property
    def degree(self) -> int:
        return 1 if self.is_infinity else self.polynomial.degree

    def __str__(self) -> str:
        return "infinity" if self.is_infinity else str(self.polynomial)


class RationalFunction:
    """Quotient of polynomials, kept in lowest terms with a monic denominator."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator=1) -> None:
        num = _as_poly(numerator)
        den = _as_poly(denominator)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Polynomial([1])
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            lead = den.leading()
            if lead != 1:
                num = num * (Fraction(1) / lead)
                den = den.monic()
        self.numerator: Polynomial = num
        self.denominator: Polynomial = den

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def is_constant(self) -> bool:
        return self.numerator.degree <= 0 and self.denominator.degree <= 0

    def derivative(self) -> "RationalFunction":
        n, d = self.numerator, self.denominator
        return RationalFunction(n.derivative() * d - n * d.derivative(), d * d)

    def __call__(self, x) -> Fraction:
        return self.numerator(x) / self.denominator(x)

    def __add__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.numerator, self.denominator)

    def __sub__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.numerator * other.numerator,
                                self.denominator * other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.numerator * other.denominator,
                                self.denominator * other.numerator)

    def __rtruediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __eq__(self, other) -> bool:
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.numerator == other.numerator
                and self.denominator == other.denominator)

    def __hash__(self) -> int:
        # over denominator 1, hash like the numerator, as it compares equal to it
        if self.denominator.degree == 0:
            return hash(self.numerator)
        return hash((self.numerator, self.denominator))

    def ord_at(self, place: Place) -> int:
        """Certified order of vanishing at the place (poles negative)."""
        if self.is_zero():
            return _ORD_INF
        if place.is_infinity:
            return self.denominator.degree - self.numerator.degree
        return _order_along(self.numerator, place) - _order_along(self.denominator, place)

    def __str__(self) -> str:
        if self.denominator == Polynomial([1]):
            return str(self.numerator)
        return "({}) / ({})".format(self.numerator, self.denominator)

    def __repr__(self) -> str:
        return "RationalFunction({})".format(self)


def _as_ratfun(value):
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (int, Fraction, Polynomial)):
        return RationalFunction(value)
    return NotImplemented


def _order_along(p: Polynomial, place: Place) -> int:
    """The root multiplicity of nonzero p along a finite place; ValueError unless constant on it."""
    pieces = split_by_multiplicity(place.polynomial, p)
    if len(pieces) > 1:
        raise ValueError("order is not constant along the place {}; refine the factor".format(
            place.polynomial))
    return pieces[0][1]


class WeierstrassFamily:
    """The data (g2, g3) of y^2 = 4x^3 - g2 x - g3 over the rational base."""

    __slots__ = ("g2", "g3", "label", "_delta")

    def __init__(self, g2, g3, label: str = "") -> None:
        self.g2 = _as_ratfun(g2)
        self.g3 = _as_ratfun(g3)
        self.label = label
        self._delta = None

    @property
    def delta(self) -> RationalFunction:
        """g2^3 - 27 g3^2, built on first use and kept; IsotrivialFamily if it is 0."""
        if self._delta is None:
            self._delta = self.g2 * self.g2 * self.g2 - 27 * (self.g3 * self.g3)
        if self._delta.is_zero():
            raise IsotrivialFamily("discriminant vanishes identically")
        return self._delta

    def __repr__(self) -> str:
        return "WeierstrassFamily(g2={}, g3={}, label={!r})".format(self.g2, self.g3, self.label)


# type is "Smooth", "I_n", "I*_n", "II", ..., "II*"; epsilon_s is the fiber's
# Euler number, its share of 12 epsilon
KodairaFiber = namedtuple("KodairaFiber", "type epsilon_s is_additive place")


def example_family(l: int) -> WeierstrassFamily:
    """The family 3y^2 + x^3 + (3x + 4t^l)^2 = 0 in Weierstrass form."""
    if l < 1:
        raise ValueError("need l >= 1")
    tl = [Fraction(0)] * l
    g2 = Polynomial([108] + tl[:-1] + [-96])
    g3 = Polynomial([216] + tl[:-1] + [-288] + tl[:-1] + [64])
    return WeierstrassFamily(g2, g3, label="3y^2 + x^3 + (3x + 4t^{})^2 = 0".format(l))


def discriminant_and_j(W: WeierstrassFamily) -> tuple[RationalFunction, RationalFunction]:
    """(W.delta, j) with j = 1728 g2^3 / Delta."""
    return W.delta, 1728 * W.g2 * W.g2 * W.g2 / W.delta


def _kodaira(v4: int, v6: int, vd: int, place: Place) -> KodairaFiber:
    """Kodaira type at place from minimalized (ord g2, ord g3, ord Delta).

    Shifting by k0 = min(floor(v4/4), floor(v6/6)) makes the local equation
    minimal in one step; for negative orders (poles, or the infinite place
    where the raw orders are those of 1/t) the same shift performs the
    standard u^4, u^6 twist.
    """
    k0 = min(v4 // 4, v6 // 6)
    v4 -= 4 * k0
    v6 -= 6 * k0
    vd -= 12 * k0
    if vd == 0:
        return KodairaFiber("Smooth", 0, False, place)
    if v4 == 0:
        return KodairaFiber("I_{}".format(vd), vd, False, place)
    if v6 == 1:
        return KodairaFiber("II", 2, True, place)
    if v4 == 1 and v6 >= 2:
        return KodairaFiber("III", 3, True, place)
    if v4 >= 2 and v6 == 2:
        return KodairaFiber("IV", 4, True, place)
    if v4 >= 2 and v6 >= 3 and vd == 6 or v4 == 2 and v6 == 3 and vd > 6:
        return KodairaFiber("I*_{}".format(vd - 6), vd, True, place)
    if v4 >= 3 and v6 == 4:
        return KodairaFiber("IV*", 8, True, place)
    if v4 == 3 and v6 >= 5:
        return KodairaFiber("III*", 9, True, place)
    if v4 >= 4 and v6 == 5:
        return KodairaFiber("II*", 10, True, place)
    raise NotMinimal("orders (v4, v6, vDelta) = ({}, {}, {}) fit no minimal type".format(v4, v6, vd))


def classify_fiber(W: WeierstrassFamily, s: Place) -> KodairaFiber:
    """The fiber at s, from the orders ord_at gives of g2, g3 and Delta."""
    return _kodaira(W.g2.ord_at(s), W.g3.ord_at(s), W.delta.ord_at(s), s)


def uniform_pieces(factor: Polynomial,
                   witnesses: Sequence[Polynomial]) -> list[tuple[Polynomial, tuple[int, ...]]]:
    """Split squarefree factor into monic pieces on which every witness has constant root multiplicity.

    Returns (piece, multiplicity of each witness) pairs.  A piece is split
    again by each later witness, and every sub-piece keeps its parent's
    multiplicities.
    """
    pieces = [(factor.monic(), ())]
    for witness in witnesses:
        pieces = [(sub, mults + (k,)) for piece, mults in pieces
                  for sub, k in split_by_multiplicity(piece, witness)]
    return pieces


def fiber_list(W: WeierstrassFamily) -> list[KodairaFiber]:
    """All singular fibers, at uniform places plus infinity; smooth fibers omitted.

    Each witness's multiplicity on a uniform piece is constant along it, so
    the differences of numerator and denominator multiplicities are the
    orders of g2, g3 and Delta there: no place is split a second time.  A
    zero witness has multiplicity _ORD_INF, as ord_at gives a zero function.
    """
    g2, g3, delta = W.g2, W.g3, W.delta
    witnesses = [g2.numerator, g2.denominator, g3.numerator, g3.denominator,
                 delta.numerator, delta.denominator]
    # a place met in two sources is kept once: its multiplicities do not depend on the source
    orders = {Place.finite(piece): m
              for source in (delta.numerator, delta.denominator, g2.denominator, g3.denominator)
              for factor, _ in squarefree_decomposition(source)
              for piece, m in uniform_pieces(factor, witnesses)}
    fibers = [_kodaira(m[0] - m[1], m[2] - m[3], m[4] - m[5], place)
              for place, m in orders.items()]
    fibers.append(classify_fiber(W, Place.infinity()))
    return sorted((f for f in fibers if f.type != "Smooth"),
                  key=lambda f: (f.place.is_infinity, f.place.degree, str(f.place)))


def euler_epsilon(fibers: Sequence[KodairaFiber]) -> tuple[int, int, int, int]:
    """(epsilon, additive fiber count, deg H^{1,0}, deg H^{0,1}) of a fiber_list.

    epsilon = (1/12) sum of epsilon_s over all fibers, each place weighted by
    its degree (number of geometric points); deg H^{1,0} = epsilon - a and
    deg H^{0,1} = -epsilon with a the number of additive fibers.
    """
    total = 0
    additive = 0
    for fiber in fibers:
        total += fiber.epsilon_s * fiber.place.degree
        if fiber.is_additive:
            additive += fiber.place.degree
    if total % 12:
        raise NonIntegralEpsilon("sum of epsilon_s is {}, not divisible by 12".format(total))
    epsilon = total // 12
    return epsilon, additive, epsilon - additive, -epsilon
