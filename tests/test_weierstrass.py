from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reglab import weierstrass
from reglab.errors import IsotrivialFamily, UnsupportedL
from reglab.gauss_manin import connection_matrix, degeneracy_locus
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
    poly_gcd,
    radical,
    split_by_multiplicity,
    uniform_pieces,
)

F = Fraction
P = Polynomial

GOOD_L = [l for l in range(1, 36) if l % 2 and l % 3]

# monic rational linear and quadratic factors with small coefficients
_SMALL_FACTORS = st.one_of(
    st.builds(lambda a: P([-a, 1]), st.fractions(-3, 3, max_denominator=3)),
    st.builds(lambda b, c: P([c, b, 1]), st.integers(-3, 3), st.integers(-3, 3)))

# g2 and g3 with small integer coefficients, as in test_epsilon_sum_divisible_by_12
_SMALL_FAMILIES = st.builds(lambda c2, c3: WeierstrassFamily(P(c2), P(c3)),
                            st.lists(st.integers(-4, 4), min_size=1, max_size=4),
                            st.lists(st.integers(-4, 4), min_size=1, max_size=5))

# one family per branch of the Kodaira table, with every fiber as
# (place, type, epsilon_s, is_additive)
_t = P([0, 1])
_BRANCH_FAMILIES = {
    "II": (_t, _t, [("t", "II", 2, True), ("t - 27", "I_1", 1, False),
                    ("infinity", "III*", 9, True)]),
    "III": (_t, _t ** 2, [("t", "III", 3, True), ("t - 1/27", "I_1", 1, False),
                          ("infinity", "IV*", 8, True)]),
    "IV": (_t ** 2, _t ** 2, [("t", "IV", 4, True), ("t^2 - 27", "I_1", 1, False),
                              ("infinity", "I*_0", 6, True)]),
    "I*_0": (_t ** 2, _t ** 3, [("t", "I*_0", 6, True), ("infinity", "I*_0", 6, True)]),
    "IV*": (_t ** 3, _t ** 4, [("t", "IV*", 8, True), ("t - 27", "I_1", 1, False),
                               ("infinity", "III", 3, True)]),
    "III*": (_t ** 3, _t ** 5, [("t", "III*", 9, True), ("t - 1/27", "I_1", 1, False),
                                ("infinity", "II", 2, True)]),
    "II*": (_t ** 4, _t ** 5, [("t", "II*", 10, True), ("t^2 - 27", "I_1", 1, False)]),
    "III-g3-zero": (_t, 0, [("t", "III", 3, True), ("infinity", "III*", 9, True)]),
    "IV-g2-zero": (0, _t ** 2, [("t", "IV", 4, True), ("infinity", "IV*", 8, True)]),
}


# pairwise coprime irreducible factors, so any product of distinct ones is squarefree
_COPRIME_PIECES = (_t, _t - 1, _t * _t + 1)


def _split_one_power_at_a_time(pi, p):
    """split_by_multiplicity as it was before it divided by repeated squares of pi: the reference."""
    if p.is_zero():
        return [(pi.monic(), weierstrass._ORD_INF)]
    pi, out, k = pi.monic(), [], 0
    while pi.degree > 0:
        d = poly_gcd(pi, p)
        exact = pi // d
        if exact.degree > 0:
            out.append((exact.monic(), k))
        pi = d
        if pi.degree > 0:
            p = p // d
        k += 1
    return out


def _squarefree_decomposition(p):
    """Yun's decomposition: pairwise coprime monic squarefree (factor, multiplicity) pairs.

    fiber_list and degeneracy_locus split its factors before they took one
    radical; it is the reference of the tests that compare the two."""
    if p.degree < 1:
        return []
    p = p.monic()
    dp = p.derivative()
    a0 = poly_gcd(p, dp)
    b = p // a0
    d = (dp // a0) - b.derivative()
    out, i = [], 1
    while b.degree > 0:
        a = poly_gcd(b, d)
        if a.degree > 0:
            out.append((a, i))
        b = b // a
        d = (d // a) - b.derivative()
        i += 1
    return out


def _fiber_list_by_yun(W):
    """fiber_list with the places of each source's Yun factors, merged: the reference."""
    g2, g3, delta = W.g2, W.g3, W.delta
    witnesses = [g2.numerator, g2.denominator, g3.numerator, g3.denominator,
                 delta.numerator, delta.denominator]
    orders = {Place.finite(piece): m
              for source in (delta.numerator, delta.denominator, g2.denominator, g3.denominator)
              for factor, _ in _squarefree_decomposition(source)
              for piece, m in uniform_pieces(factor, witnesses)}
    fibers = [weierstrass._kodaira(m[0] - m[1], m[2] - m[3], m[4] - m[5], place)
              for place, m in orders.items()]
    fibers.append(classify_fiber(W, Place.infinity()))
    return sorted((f for f in fibers if f.type != "Smooth"),
                  key=lambda f: (f.place.is_infinity, f.place.degree, str(f.place)))


def _degeneracy_locus_by_yun(W):
    """degeneracy_locus from the Yun factors of the upper entry's numerator: the reference."""
    ratio = connection_matrix(W).omega_hat_to_star
    if ratio.is_zero():
        raise IsotrivialFamily("j-invariant is constant")
    excluded = [p for p in (W.delta.numerator, W.delta.denominator,
                            W.g2.denominator, W.g3.denominator) if p.degree > 0]
    return {Place.finite(piece)
            for factor, _ in _squarefree_decomposition(ratio.numerator)
            for piece, mults in uniform_pieces(factor, excluded) if not any(mults)}


def delta_closed_form(l):
    # 110592 t^{3l} (1 - t^l)
    coeffs = [F(0)] * (4 * l + 1)
    coeffs[3 * l] = F(110592)
    coeffs[4 * l] = F(-110592)
    return P(coeffs)


class TestPolynomialLayer:
    def test_mixed_coefficients_stay_exact(self):
        # Fractions are kept as given and ints wrapped; trailing zeros of either kind go
        half = F(1, 2)
        p = P([3, half, 0, F(-7, 3), F(0), 0])
        assert p.coeffs == (F(3), F(1, 2), F(0), F(-7, 3))
        assert all(type(c) is F for c in p.coeffs)
        assert p.coeffs[1] is half
        assert p.degree == 3
        assert P([F(0), 0, F(0)]).is_zero()

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
        assert split_by_multiplicity(P([0, 1]), p) == [(P([0, 1]), 3)]
        assert split_by_multiplicity(P([-1, 1]), p) == [(P([-1, 1]), 1)]
        assert split_by_multiplicity(P([1, 1]), p) == [(P([1, 1]), 0)]

    @given(st.lists(st.tuples(st.sampled_from(_COPRIME_PIECES), st.integers(0, 300)),
                    min_size=1, max_size=3, unique_by=lambda pair: str(pair[0]))
           .filter(lambda pieces: sum(m * piece.degree for piece, m in pieces) <= 300),
           st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any))
    @example([(_t, 147), (_t - 1, 1)], [1])  # Delta of example_family(49) along t (t - 1)
    @example([(_t * _t + 1, 150), (_t, 0)], [2, 0, 1])
    @settings(max_examples=10, deadline=None)
    def test_multiplicity_matches_one_power_at_a_time(self, pieces, cofactor):
        pi, p = P([1]), P(cofactor)
        for piece, m in pieces:
            pi, p = pi * piece, p * piece ** m
        assert split_by_multiplicity(pi, p) == _split_one_power_at_a_time(pi, p)

    def test_radical(self):
        p = P([0, 1]) ** 3 * P([-1, 0, 0, 0, 0, 1]) * 7  # 7 t^3 (t^5 - 1)
        assert radical(p) == P([0, -1, 0, 0, 0, 0, 1])
        assert radical(P([-1, 1]) ** 2 * P([1, 1]) * 2) == P([-1, 0, 1])
        assert radical(P([5])) == 1 and radical(P([])) == 1

    @given(st.lists(st.tuples(_SMALL_FACTORS, st.integers(1, 4)), min_size=1, max_size=4),
           st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_radical_is_the_product_of_yun_factors(self, factors, scale):
        p = P([scale])
        for g, m in factors:
            p = p * g ** m
        expected = P([1])
        for factor, _ in _squarefree_decomposition(p):
            expected = expected * factor
        assert radical(p) == expected

    def test_floordiv_and_mod_by_a_float_raise_type_error(self):
        with pytest.raises(TypeError):
            P([1, 1]) // 0.5
        with pytest.raises(TypeError):
            P([1, 1]) % 0.5

    def test_float_divided_by_a_rational_function_raises_type_error(self):
        with pytest.raises(TypeError):
            0.5 / RationalFunction(P([1, 1]))

    def test_trim_and_degree(self):
        p = P([1, 2, 0, 0])
        assert p.degree == 1

    def test_eval(self):
        p = P([9, F(-81, 2), F(729, 2)])
        assert p(F(1, 5)) == 9 - F(81, 10) + F(729, 50)

    def test_arithmetic(self):
        a = P([0, 1])
        assert (3 - 27 * a) == P([3, -27])
        assert a * a == P([0, 0, 1])
        assert (a + 1) - a == 1

    def test_constant_hashes_like_its_value(self):
        # a constant compares equal to its value, so sets must agree
        assert hash(P([5])) == hash(F(5))
        assert hash(P([])) == hash(0)
        assert len({P([5]), F(5)}) == 1

    def test_rational_function_normalized(self):
        f = RationalFunction(P([0, 2]), P([0, 0, 4]))  # 2t / 4t^2
        assert f.numerator == P([F(1, 2)])
        assert f.denominator == P([0, 1])

    def test_rational_function_hashes_like_what_it_equals(self):
        t = P([0, 1])
        assert RationalFunction(3) == 3 and RationalFunction(t) == t
        assert len({RationalFunction(3), 3}) == 1
        assert len({RationalFunction(t), t}) == 1

    def test_place(self):
        for build in (Place, Place.finite):
            with pytest.raises(ValueError):
                build(P([3]))
        assert Place.finite(P([-4, 2])) == Place.at_point(2)
        assert str(Place.finite(P([-4, 2]))) == "t - 2"
        assert Place.infinity() == Place.infinity()
        assert Place.infinity() != Place.at_point(0)
        assert str(Place.infinity()) == "infinity" and Place.infinity().degree == 1
        assert len({Place.at_point(0), Place.finite(P([0, 5])),
                    Place.infinity(), Place.infinity()}) == 2

    def test_ord_at_uniform_place(self):
        f = RationalFunction(P([-1, 0, 0, 0, 0, 1]), P([0, 0, 1]))
        assert f.ord_at(Place.finite(P([-1, 0, 0, 0, 0, 1]))) == 1
        assert f.ord_at(Place.at_point(0)) == -2
        assert f.ord_at(Place.infinity()) == -3

    def test_ord_rejects_nonuniform_place(self):
        f = RationalFunction(P([-1, 1]) * P([-1, 1]) * P([1, 1]))
        with pytest.raises(ValueError):
            f.ord_at(Place.finite(P([-1, 0, 1])))

    @given(st.lists(st.tuples(_SMALL_FACTORS, st.integers(0, 3), st.integers(0, 3), st.booleans()),
                    min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_ord_at_matches_sympy(self, factors):
        # f = prod g^a / prod g^b, and the place is the product of the flagged g
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        num = den = place = P([1])
        for g, a, b, on_place in factors:
            num, den = num * g ** a, den * g ** b
            if on_place:
                place = place * g

        def exponents(p):
            # monic irreducible factor over Q -> its multiplicity, the root multiplicity of p
            # at each of that factor's roots
            poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                               for c in reversed(p.coeffs)], t, domain="QQ")
            return {tuple(g.monic().all_coeffs()): k for g, k in poly.factor_list()[1]}

        pieces = exponents(place)
        assume(place.degree > 0 and set(pieces.values()) == {1})  # a squarefree place
        e_num, e_den = exponents(num), exponents(den)
        orders = {e_num.get(g, 0) - e_den.get(g, 0) for g in pieces}
        f = RationalFunction(num, den)
        if len(orders) == 1:
            assert f.ord_at(Place.finite(place)) == orders.pop()
        else:
            with pytest.raises(ValueError, match="refine the factor"):
                f.ord_at(Place.finite(place))


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

    @pytest.mark.parametrize("branch", list(_BRANCH_FAMILIES))
    def test_every_branch_of_the_table(self, branch):
        g2, g3, expected = _BRANCH_FAMILIES[branch]
        fibers = fiber_list(WeierstrassFamily(g2, g3))
        assert [(str(f.place), f.type, f.epsilon_s, f.is_additive) for f in fibers] == expected

    def test_smooth_place(self):
        place = Place.at_point(2)
        assert classify_fiber(example_family(5), place) == KodairaFiber("Smooth", 0, False, place)

    @given(st.one_of(
        _SMALL_FAMILIES, st.builds(example_family, st.integers(1, 25)),
        # poles too: g2 / g^a and g3 / g^b
        st.builds(lambda W, g, a, b: WeierstrassFamily(W.g2 / g ** a, W.g3 / g ** b),
                  _SMALL_FAMILIES, _SMALL_FACTORS, st.integers(1, 3), st.integers(0, 3))))
    @settings(max_examples=60, deadline=None)
    def test_one_pass_orders_agree_with_ord_at(self, W):
        try:
            fibers = fiber_list(W)
        except IsotrivialFamily:
            return
        for fiber in fibers:
            assert fiber == classify_fiber(W, fiber.place)

    def test_fiber_list_splits_no_place_twice(self, monkeypatch):
        calls = []
        real = weierstrass._order_along

        def counted(p, place):
            calls.append(place)
            return real(p, place)

        monkeypatch.setattr(weierstrass, "_order_along", counted)
        fibers = fiber_list(example_family(13))
        assert [(str(f.place), f.type) for f in fibers] == [
            ("t", "I_39"), ("t^13 - 1", "I_1"), ("infinity", "IV*")]
        assert calls == []

    def test_fiber_list_divides_by_repeated_squares(self, monkeypatch):
        # one power of each place at a time took 1081 divisions at l = 49, and
        # splitting each source's Yun factors 513
        calls = []
        real = P.__divmod__

        def counted(a, b):
            calls.append(b)
            return real(a, b)

        monkeypatch.setattr(P, "__divmod__", counted)
        fibers = fiber_list(example_family(49))
        assert [(str(f.place), f.type) for f in fibers] == [
            ("t", "I_147"), ("t^49 - 1", "I_1"), ("infinity", "IV*")]
        assert len(calls) < 100

    @given(_SMALL_FAMILIES, _SMALL_FACTORS, _SMALL_FACTORS,
           st.tuples(*[st.integers(0, 2)] * 4))
    @example(example_family(7), _t, _t - 1, (0, 0, 0, 0))
    # the upper entry's numerator is t^2 (4t - 1) times a unit: two pieces, by multiplicity
    @example(WeierstrassFamily(P([2]), P([0, 0, 0, 1, -3])), _t, _t, (0, 0, 0, 0))
    @settings(max_examples=60, deadline=None)
    def test_one_radical_finds_the_places_yun_found(self, W, g, h, powers):
        # g2 times g^a / h^b and g3 times h^c / g^d: poles and zeros off g2's and g3's own
        a, b, c, d = powers
        W = WeierstrassFamily(W.g2 * RationalFunction(g ** a, h ** b),
                              W.g3 * RationalFunction(h ** c, g ** d))
        for found, reference in ((fiber_list, _fiber_list_by_yun),
                                 (degeneracy_locus, _degeneracy_locus_by_yun)):
            try:
                expected = reference(W)
            except IsotrivialFamily:
                with pytest.raises(IsotrivialFamily):
                    found(W)
                continue
            assert found(W) == expected

    def test_i_star_n_with_n_positive(self):
        t = P([0, 1])
        W = WeierstrassFamily(3 * t * t * (1 + t), t ** 3)  # Delta = 27 t^7 (t^2 + 3t + 3)
        fibers = fiber_list(W)
        assert [(str(f.place), f.type, f.epsilon_s) for f in fibers] == [
            ("t", "I*_1", 7), ("t^2 + 3*t + 3", "I_1", 1), ("infinity", "III", 3)]
        assert euler_epsilon(fibers) == (1, 2, -1, -1)

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

    @given(_SMALL_FAMILIES)
    @settings(max_examples=60, deadline=None)
    def test_epsilon_sum_divisible_by_12(self, W):
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
