from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reglab.errors import IsotrivialFamily
from reglab.gauss_manin import (
    ConnectionMatrix,
    connection_matrix,
    degeneracy_locus,
    gives_operator,
    pf_apply,
    pf_relation,
    picard_fuchs,
)
from reglab.weierstrass import (
    Place,
    Polynomial,
    RationalFunction,
    WeierstrassFamily,
    example_family,
    uniform_pieces,
)

F = Fraction
P = Polynomial


def tpow(k, scale=1):
    return P([F(0)] * k + [F(scale)])


# g2 = 1 + 2t + 3t^3, g3 = 5 + t^2 + t^3 + 2t^4: no symmetry of the example families
GENERIC = WeierstrassFamily(P([1, 2, 0, 3]), P([5, 0, 1, 1, 2]))


def rank_over_q(rows):
    rows = [list(r) for r in rows]
    rank = 0
    cols = max(len(r) for r in rows)
    for r in rows:
        r.extend([F(0)] * (cols - len(r)))
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = F(1) / rows[rank][col]
        rows[rank] = [c * inv for c in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestConnection:
    def test_trace_zero(self):
        for l in (1, 5, 7):
            cm = connection_matrix(example_family(l))
            assert cm.trace().is_zero()

    def test_trace_zero_generic_family(self):
        cm = connection_matrix(WeierstrassFamily(P([1, 0, 1]), P([0, 1])))
        assert cm.trace().is_zero()

    def test_records_compare_by_value(self):
        # two builds of one family are distinct WeierstrassFamily objects
        assert connection_matrix(example_family(5)) == connection_matrix(example_family(5))
        assert picard_fuchs(example_family(5)) == picard_fuchs(example_family(5))

    @pytest.mark.parametrize("family", [example_family(l) for l in (1, 5, 7, 13)] + [GENERIC],
                             ids=["l=1", "l=5", "l=7", "l=13", "generic"])
    def test_connection_gives_the_picard_fuchs_operator(self, family):
        assert gives_operator(connection_matrix(family), picard_fuchs(family))

    # factors on the diagonal, the upper entry, the lower entry and B
    @pytest.mark.parametrize("diag, upper, lower, B", [
        (2, 1, 1, 1), (1, 1, F(101, 100), 1), (1, 2, 1, 1), (1, 1, 1, F(1001, 1000))])
    def test_operator_check_fails_trace_free_mutants(self, diag, upper, lower, B):
        # each mutant keeps the trace 0, which is all test_trace_zero sees
        family = example_family(5)
        (a, b), (c, d) = connection_matrix(family).m
        m = ((diag * a, upper * b), (lower * c, diag * d))
        assert (m[0][0] + m[1][1]).is_zero()
        PF = picard_fuchs(family)
        assert not gives_operator(ConnectionMatrix(m), PF._replace(B=B * PF.B))

    @pytest.mark.parametrize("l", [1, 5, 7])
    def test_upper_entry_closed_form(self, l):
        cm = connection_matrix(example_family(l))
        # (6 g2 g3' - 9 g2' g3) / Delta = -l / (6t (1 - t^l))
        expected = RationalFunction(P([-l]), 6 * (tpow(1) - tpow(l + 1)))
        assert cm.omega_hat_to_star == expected

    def test_entries_sympy_crosscheck(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t")
        for g2s, g3s, W in [
            (108 - 96 * t, 216 - 288 * t + 64 * t**2, example_family(1)),
            (t**2 + 1, t, WeierstrassFamily(P([1, 0, 1]), P([0, 1]))),
        ]:
            delta = g2s**3 - 27 * g3s**2
            ee3 = 6 * g2s * sympy.diff(g3s, t) - 9 * sympy.diff(g2s, t) * g3s
            ee2 = 2 * g2s * sympy.diff(g3s, t) - 3 * sympy.diff(g2s, t) * g3s
            expected = [
                [-sympy.diff(delta, t) / (12 * delta), ee3 / delta],
                [-g2s * ee2 / (16 * delta), sympy.diff(delta, t) / (12 * delta)],
            ]
            cm = connection_matrix(W)
            for i in range(2):
                for j in range(2):
                    got = cm.m[i][j]
                    num = sympy.Poly([sympy.Rational(c) for c in reversed(got.numerator.coeffs)]
                                     or [0], t).as_expr()
                    den = sympy.Poly([sympy.Rational(c) for c in reversed(got.denominator.coeffs)],
                                     t).as_expr()
                    assert sympy.simplify(num / den - expected[i][j]) == 0

    def test_isotrivial_rejected(self):
        with pytest.raises(IsotrivialFamily):
            connection_matrix(WeierstrassFamily(3, 1))


class TestDegeneracyLocus:
    @pytest.mark.parametrize("l", [l for l in range(1, 36) if l % 2 and l % 3])
    def test_example_family_empty(self, l):
        assert degeneracy_locus(example_family(l)) == set()

    def test_nonempty_case(self):
        W = WeierstrassFamily(P([1, 0, 1]), P([0, 1]))
        # 6 g2 g3' - 9 g2' g3 = 6 - 12 t^2, zero at t^2 = 1/2, away from Delta = 0
        assert degeneracy_locus(W) == {Place.finite(P([F(-1, 2), 0, 1]))}

    def test_drops_the_piece_on_an_excluded_place(self):
        # g2 = 1/t, g3 = t - 1: the ratio's numerator is a multiple of t (t - 3/5),
        # and t is a pole of g2
        W = WeierstrassFamily(RationalFunction(1, P([0, 1])), P([-1, 1]))
        ratio = 3 * (2 * W.g2 * W.g3.derivative() - 3 * W.g2.derivative() * W.g3) / W.delta
        assert ratio.numerator.monic() == P([0, F(-3, 5), 1])
        excluded = [W.delta.numerator, W.delta.denominator, W.g2.denominator]
        pieces = dict(uniform_pieces(P([0, F(-3, 5), 1]), excluded))
        assert pieces == {P([0, 1]): (0, 3, 1), P([F(-3, 5), 1]): (0, 0, 0)}
        assert degeneracy_locus(W) == {Place.at_point(F(3, 5))}

    def test_constant_j_rejected(self):
        with pytest.raises(IsotrivialFamily):
            degeneracy_locus(WeierstrassFamily(P([0, 0, 0, 0, 1]), 0))


class TestPicardFuchs:
    def test_A_l1(self):
        pf = picard_fuchs(example_family(1))
        assert pf.A == RationalFunction(P([0, 6, -6]))

    @pytest.mark.parametrize("l", [1, 5, 7, 11])
    def test_A_B_closed_forms(self, l):
        pf = picard_fuchs(example_family(l))
        assert pf.A == RationalFunction(F(6, l) * (tpow(1) - tpow(l + 1)))
        assert pf.B == RationalFunction(tpow(l - 1, F(-4 * l, 3)))

    def test_A_vanishes_exactly_on_multiplicative_locus(self):
        pf = picard_fuchs(example_family(5))
        num = pf.A.numerator
        assert num(F(0)) == 0 and num(F(1)) == 0
        assert num.degree == 6

    def test_B_sympy_crosscheck(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t")
        l = 5
        g2 = 108 - 96 * t**l
        g3 = 216 - 288 * t**l + 64 * t ** (2 * l)
        delta = g2**3 - 27 * g3**2
        ee = 2 * g2 * sympy.diff(g3, t) - 3 * sympy.diff(g2, t) * g3
        B = sympy.Rational(1, 48) * (
            (g2 * sympy.diff(g2, t) ** 2 - 12 * sympy.diff(g3, t) ** 2) / ee
            - sympy.diff(4 * sympy.diff(delta, t) / (3 * ee), t)
        )
        assert sympy.simplify(B + sympy.Rational(4 * l, 3) * t ** (l - 1)) == 0

    def test_isotrivial_rejected(self):
        with pytest.raises(IsotrivialFamily):
            picard_fuchs(WeierstrassFamily(P([0, 0, 0, 0, 1]), 0))

    def test_vanishing_discriminant_rejected(self):
        with pytest.raises(IsotrivialFamily):
            picard_fuchs(WeierstrassFamily(3, 1))


class TestPFApply:
    def test_zero(self):
        pf = picard_fuchs(example_family(5))
        assert pf_apply(pf, 0).is_zero()

    def test_constant_gives_B(self):
        pf = picard_fuchs(example_family(5))
        assert pf_apply(pf, 1) == pf.B

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=4),
           st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, fc, gc):
        pf = picard_fuchs(example_family(1))
        f, g = RationalFunction(P(fc)), RationalFunction(P(gc))
        assert pf_apply(pf, f + g) == pf_apply(pf, f) + pf_apply(pf, g)

    @pytest.mark.parametrize("l,m", [(1, 0), (1, 3), (5, 1), (5, 4), (7, 2), (7, 6)])
    def test_monomial_closed_form(self, l, m):
        got = pf_relation(picard_fuchs(example_family(l)), m)
        expected = RationalFunction(
            tpow(m - 1, F(6 * m * m, l)) - tpow(m + l - 1, F(2 * (3 * m + l) * (3 * m + 2 * l), 3 * l))
            if m >= 1 else tpow(l - 1, F(-4 * l, 3)))
        assert got == expected


class TestRelations:
    def test_l5_i1_relation_in_span(self):
        # (104 t^5 - 9) must be an exact rational multiple of pf_relation(1)
        rel = pf_relation(picard_fuchs(example_family(5)), 1)
        target = tpow(5, 104) - P([9])
        scaled = F(-15, 2) * rel
        assert scaled == RationalFunction(target)

    @pytest.mark.parametrize("l,i", [(5, 1), (7, 1), (7, 2)])
    def test_relation_proportionality(self, l, i):
        rel = pf_relation(picard_fuchs(example_family(l)), i)
        target = tpow(i - 1, 9 * i * i) - tpow(i + l - 1, (l + 3 * i) * (2 * l + 3 * i))
        assert F(3 * l, 2) * rel == RationalFunction(target)

    @pytest.mark.parametrize("l", [5, 7])
    def test_relations_full_rank(self, l):
        h = (l - 1) - (l - 1) // 3
        rows = []
        for m in range(h):
            rel = pf_relation(picard_fuchs(example_family(l)), m)
            assert rel.denominator == P([1])
            rows.append(rel.numerator.coeffs)
        assert rank_over_q(rows) == h

    @pytest.mark.parametrize("l", [l for l in range(5, 50) if l % 2 and l % 3])
    def test_two_term_relation_is_the_gamma_recurrence(self, l):
        # the image of t^m relates the forms of j = m and j = m + l, with ratio
        # I(a + 1)/I(a) = a^2/((a + 1/3)(a + 2/3)), a = m/l, for the Gamma form
        # I(a) = Gamma(a)^2/(27 Gamma(a + 1/3) Gamma(a + 2/3)) of hypergeometric
        pf = picard_fuchs(example_family(l))
        for m in range(1, l):
            rel = pf_relation(pf, m)
            assert rel.denominator == P([1])
            coeffs = rel.numerator.coeffs
            assert [k for k, c in enumerate(coeffs) if c] == [m - 1, m - 1 + l]
            a = F(m, l)
            assert -coeffs[m - 1] / coeffs[m - 1 + l] == a * a / ((a + F(1, 3)) * (a + F(2, 3)))

    def test_polynomial_output(self):
        for m in range(6):
            rel = pf_relation(picard_fuchs(example_family(5)), m)
            assert rel.denominator == P([1])
