from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reglab.errors import IsotrivialFamily, UnsupportedL
from reglab.weierstrass import (
    KodairaFiber,
    Place,
    Polynomial,
    RationalFunction,
    WeierstrassFamily,
    classify_fiber,
    discriminant_and_j,
    euler_epsilon,
    example_family,
    fiber_list,
    hodge_and_dims,
    multiplicity,
    poly_gcd,
    squarefree_decomposition,
    uniform_pieces,
)

F = Fraction
P = Polynomial

GOOD_L = [l for l in range(1, 36) if l % 2 and l % 3]


def delta_closed_form(l):
    # 110592 t^{3l} (1 - t^l)
    coeffs = [F(0)] * (4 * l + 1)
    coeffs[3 * l] = F(110592)
    coeffs[4 * l] = F(-110592)
    return P(coeffs)


class TestPolynomialLayer:
    def test_divmod_exact(self):
        a = P([-1, 0, 0, 0, 0, 1])  # t^5 - 1
        q, r = divmod(a, P([-1, 1]))
        assert r.is_zero()
        assert q == P([1, 1, 1, 1, 1])

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=6),
           st.lists(st.integers(-9, 9), min_size=2, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_divmod_identity(self, a, b):
        pa, pb = P(a), P(b)
        if pb.is_zero():
            return
        q, r = divmod(pa, pb)
        assert q * pb + r == pa
        assert r.degree < pb.degree

    def test_gcd_monic(self):
        a = P([-1, 1]) * P([2, 1]) * P([2, 1])
        b = P([2, 1]) * P([5, 0, 1])
        assert poly_gcd(a, b) == P([2, 1])

    def test_multiplicity(self):
        p = P([0, 0, 0, 1]) * P([-1, 1])  # t^3 (t - 1)
        assert multiplicity(p, P([0, 1])) == 3
        assert multiplicity(p, P([-1, 1])) == 1
        assert multiplicity(p, P([1, 1])) == 0

    def test_squarefree_decomposition(self):
        p = P([0, 1]) ** 3 * P([-1, 0, 0, 0, 0, 1])
        decomp = squarefree_decomposition(p)
        assert (P([-1, 0, 0, 0, 0, 1]), 1) in decomp
        assert (P([0, 1]), 3) in decomp

    def test_rational_function_normalized(self):
        f = RationalFunction(P([0, 2]), P([0, 0, 4]))  # 2t / 4t^2
        assert f.numerator == P([F(1, 2)])
        assert f.denominator == P([0, 1])

    def test_ord_at_uniform_place(self):
        f = RationalFunction(P([-1, 0, 0, 0, 0, 1]), P([0, 0, 1]))
        assert f.ord_at(Place.finite(P([-1, 0, 0, 0, 0, 1]))) == 1
        assert f.ord_at(Place.at_point(0)) == -2
        assert f.ord_at(Place.infinity()) == -3

    def test_ord_rejects_nonuniform_place(self):
        f = RationalFunction(P([-1, 1]) * P([-1, 1]) * P([1, 1]))
        with pytest.raises(ValueError):
            f.ord_at(Place.finite(P([-1, 0, 1])))


class TestExampleFamily:
    def test_l1_weierstrass_data(self):
        W = example_family(1)
        assert W.g2 == RationalFunction(P([108, -96]))
        assert W.g3 == RationalFunction(P([216, -288, 64]))
        delta, j = discriminant_and_j(W)
        assert delta == RationalFunction(delta_closed_form(1))

    @pytest.mark.parametrize("l", [1, 2, 5, 7, 11])
    def test_delta_closed_form(self, l):
        delta, _ = discriminant_and_j(example_family(l))
        assert delta == RationalFunction(delta_closed_form(l))

    def test_delta_sympy_crosscheck(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t")
        for l in (1, 5):
            g2 = 108 - 96 * t**l
            g3 = 216 - 288 * t**l + 64 * t ** (2 * l)
            delta = sympy.expand(g2**3 - 27 * g3**2)
            assert delta == sympy.expand(110592 * t ** (3 * l) * (1 - t**l))

    @pytest.mark.parametrize("l", [1, 2, 5, 7, 25, 35])
    def test_j_nonconstant(self, l):
        _, j = discriminant_and_j(example_family(l))
        assert not j.is_constant()

    def test_j_formula_l1(self):
        _, j = discriminant_and_j(example_family(1))
        g2 = RationalFunction(P([108, -96]))
        assert j == 1728 * g2 * g2 * g2 / RationalFunction(delta_closed_form(1))

    def test_isotrivial_rejected(self):
        with pytest.raises(IsotrivialFamily):
            discriminant_and_j(WeierstrassFamily(3, 1))

    def test_delta_is_built_once(self):
        W = example_family(5)
        assert discriminant_and_j(W)[0] is W.delta
        assert W.delta is W.delta

    def test_isotrivial_family_builds_but_every_delta_user_raises(self):
        W = WeierstrassFamily(3, 1)  # Delta = 27 - 27 = 0
        for use in (discriminant_and_j, fiber_list,
                    lambda W: classify_fiber(W, Place.at_point(0))):
            with pytest.raises(IsotrivialFamily):
                use(W)


class TestKodaira:
    def test_l5_fiber_at_zero(self):
        fib = classify_fiber(example_family(5), Place.at_point(0))
        assert fib.type == "I_15" and fib.epsilon_s == 15

    def test_l5_fiber_at_roots_of_unity(self):
        fib = classify_fiber(example_family(5), Place.finite(P([-1, 0, 0, 0, 0, 1])))
        assert fib.type == "I_1" and fib.epsilon_s == 1

    def test_l5_fiber_at_one(self):
        fib = classify_fiber(example_family(5), Place.at_point(1))
        assert fib.type == "I_1"

    def test_fibers_at_infinity(self):
        assert classify_fiber(example_family(5), Place.infinity()).type == "IV"
        assert classify_fiber(example_family(5), Place.infinity()).epsilon_s == 4
        assert classify_fiber(example_family(7), Place.infinity()).type == "IV*"
        assert classify_fiber(example_family(7), Place.infinity()).epsilon_s == 8

    @pytest.mark.parametrize("l", GOOD_L)
    def test_fiber_multiset(self, l):
        fibers = fiber_list(example_family(l))
        expected_inf = "IV*" if l % 3 == 1 else "IV"
        tagged = {(str(f.place), f.type) for f in fibers}
        unity = str(P([-1] + [0] * (l - 1) + [1])) if l > 1 else "t - 1"
        assert tagged == {("t", "I_{}".format(3 * l)), (unity, "I_1"),
                          ("infinity", expected_inf)}

    @pytest.mark.parametrize("l", GOOD_L)
    def test_epsilon_formula(self, l):
        epsilon, a, deg10, deg01 = euler_epsilon(fiber_list(example_family(l)))
        assert epsilon == (l - 1) // 3 + 1
        assert a == 1
        assert deg10 == epsilon - 1
        assert deg01 == -epsilon

    def test_epsilon_l5_l7_values(self):
        assert euler_epsilon(fiber_list(example_family(5))) == (2, 1, 1, -2)
        assert euler_epsilon(fiber_list(example_family(7)))[0] == 3

    def test_rescaling_invariance(self):
        W = example_family(5)
        u4 = RationalFunction(P([16]))
        u6 = RationalFunction(P([64]))
        scaled = WeierstrassFamily(W.g2 * u4, W.g3 * u6)
        for place in (Place.at_point(0), Place.at_point(1), Place.infinity()):
            assert classify_fiber(scaled, place).type == classify_fiber(W, place).type

    def test_rescaling_by_polynomial_unit(self):
        W = example_family(5)
        u = RationalFunction(P([-5, 1]))  # unit at t = 0
        scaled = WeierstrassFamily(W.g2 * u * u * u * u, W.g3 * u * u * u * u * u * u)
        assert classify_fiber(scaled, Place.at_point(0)).type == "I_15"

    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=4),
           st.lists(st.integers(-4, 4), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_epsilon_sum_divisible_by_12(self, c2, c3):
        W = WeierstrassFamily(P(c2), P(c3))
        try:
            discriminant_and_j(W)
        except IsotrivialFamily:
            return
        total = sum(f.epsilon_s * f.place.degree for f in fiber_list(W))
        assert total % 12 == 0


class TestUniformPieces:
    def test_factor_splits_by_every_witness(self):
        t = P([0, 1])
        # t (t - 1) (t + 1): t^2 (t^2 - 1) leaves t^2 - 1 whole, (t - 1)^3 splits it
        pieces = uniform_pieces(t * (t * t - 1), [t * t * (t * t - 1), (t - 1) ** 3])
        assert sorted(pieces, key=str) == sorted(
            [(t, (2, 0)), (t + 1, (1, 0)), (t - 1, (1, 3))], key=str)

    def test_no_witness_keeps_the_factor(self):
        assert uniform_pieces(P([2, 0, 2]), []) == [(P([1, 0, 1]), ())]


class TestHodge:
    def test_l5(self):
        d = hodge_and_dims(5)
        assert (d["h20"], d["h11"], d["h"]) == (1, 20, 3)
        assert (d["dim_E"], d["dim_E_rel"]) == (4, 9)

    def test_l7(self):
        d = hodge_and_dims(7)
        assert (d["h20"], d["h11"], d["h"]) == (2, 30, 4)

    def test_l1_rational_surface(self):
        assert hodge_and_dims(1)["h20"] == 0

    @pytest.mark.parametrize("l", [2, 3, 4, 6, 9, 10])
    def test_unsupported(self, l):
        with pytest.raises(UnsupportedL):
            hodge_and_dims(l)

    @pytest.mark.parametrize("l", GOOD_L)
    def test_epsilon_matches_hodge(self, l):
        epsilon, _, _, _ = euler_epsilon(fiber_list(example_family(l)))
        assert epsilon - 1 == hodge_and_dims(l)["h20"]
