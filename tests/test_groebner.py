import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricgraph.atlas import enumerate_connected_bipartite
from toricgraph.graphs import complete_bipartite, cycle_graph
from toricgraph.groebner import (
    DEGLEX,
    DEGREVLEX,
    EQ,
    GT,
    LEX,
    LT,
    MonomialOrder,
    ReducedGB,
    _mask,
    buchberger,
    compare,
    initial_ideal,
    normal_form,
)
from toricgraph.hilbert import _minimal
from toricgraph.toric import Binomial, leading_cycles, toric_generators

from test_graphs import bipartite_graphs


def spoly(f, g, q):
    """Independent S-polynomial for the Groebner oracle below."""
    lcm = tuple(max(x, y) for x, y in zip(f.plus, g.plus))
    u = tuple(lcm[k] - f.plus[k] + f.minus[k] for k in range(q))
    v = tuple(lcm[k] - g.plus[k] + g.minus[k] for k in range(q))
    return None if u == v else (u, v)


def assert_reduced_groebner_basis(order, gb, gens):
    """Oracle: structural reducedness, then every S-pair (no pruning at all)
    reduces to zero, then every original generator reduces to zero."""
    elements = gb.elements
    for i, b in enumerate(elements):
        assert compare(order, b.plus, b.minus) == GT
        for j, c in enumerate(elements):
            if i != j:
                assert not all(x <= y for x, y in zip(c.plus, b.plus)), "leading antichain"
                assert not all(x <= y for x, y in zip(c.plus, b.minus)), "tail not reduced"
    for f, g in itertools.combinations(elements, 2):
        s = spoly(f, g, gb.nvars)
        if s is not None:
            assert normal_form(order, elements, Binomial(*s) if
                               compare(order, s[0], s[1]) == GT else Binomial(s[1], s[0])) is None
    for gen in gens:
        oriented = gen if compare(order, gen.plus, gen.minus) == GT else Binomial(gen.minus, gen.plus)
        assert normal_form(order, elements, oriented) is None


class TestCompare:
    def test_degrevlex_alternating(self):
        assert compare(DEGREVLEX, (1, 0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 1)) == GT

    def test_lex(self):
        assert compare(LEX, (0, 2), (1, 0)) == LT

    def test_reflexive(self):
        for order in (DEGREVLEX, DEGLEX, LEX):
            assert compare(order, (1, 2, 0), (1, 2, 0)) == EQ

    def test_degree_dominates_graded_orders(self):
        assert compare(DEGREVLEX, (3, 0), (1, 1)) == GT
        assert compare(DEGLEX, (0, 3), (1, 1)) == GT

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compare(LEX, (1, 0), (1, 0, 0))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            MonomialOrder("grevlex")

    @settings(max_examples=100, deadline=None)
    @given(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    )
    def test_antisymmetric_and_multiplicative(self, m1, m2, w):
        for order in (DEGREVLEX, DEGLEX, LEX):
            c = compare(order, m1, m2)
            assert c == -compare(order, m2, m1)
            assert (c == EQ) == (m1 == m2)
            # multiplying both sides by the same monomial preserves the order
            assert compare(
                order,
                tuple(x + y for x, y in zip(m1, w)),
                tuple(x + y for x, y in zip(m2, w)),
            ) == c
            # graded orders refine total degree
            if order is not LEX and sum(m1) != sum(m2):
                assert c == (GT if sum(m1) > sum(m2) else LT)


class TestNormalForm:
    def setup_method(self):
        g = cycle_graph(6)
        self.basis = list(buchberger(DEGREVLEX, toric_generators(g).generators).elements)

    def test_single_step(self):
        assert normal_form(DEGREVLEX, self.basis, (1, 0, 1, 0, 1, 0)) == (0, 1, 0, 1, 0, 1)

    def test_untouched(self):
        m = (1, 1, 0, 1, 0, 1)
        assert normal_form(DEGREVLEX, self.basis, m) == m

    def test_basis_element_reduces_to_zero(self):
        assert normal_form(DEGREVLEX, self.basis, self.basis[0]) is None

    def test_misoriented_basis_rejected(self):
        flipped = Binomial(self.basis[0].minus, self.basis[0].plus)
        with pytest.raises(ValueError, match="oriented"):
            normal_form(DEGREVLEX, [flipped], (1, 0, 1, 0, 1, 0))


class TestBuchberger:
    def test_c6_single_generator_fixed(self):
        gens = toric_generators(cycle_graph(6)).generators
        gb = buchberger(DEGREVLEX, gens)
        assert gb.elements == gens
        assert_reduced_groebner_basis(DEGREVLEX, gb, gens)

    def test_k23(self):
        gens = toric_generators(complete_bipartite(2, 3)).generators
        gb = buchberger(DEGREVLEX, gens)
        assert len(gb.elements) == 3
        assert_reduced_groebner_basis(DEGREVLEX, gb, gens)

    def test_k33_quadratic(self):
        gens = toric_generators(complete_bipartite(3, 3)).generators
        gb = buchberger(DEGREVLEX, gens)
        assert all(b.degree == 2 for b in gb.elements)
        assert_reduced_groebner_basis(DEGREVLEX, gb, gens)

    def test_empty_needs_nvars(self):
        gb = buchberger(DEGREVLEX, (), nvars=5)
        assert gb.elements == ()
        with pytest.raises(ValueError):
            buchberger(DEGREVLEX, ())

    @pytest.mark.parametrize("order", [DEGREVLEX, DEGLEX, LEX])
    def test_orders_all_give_groebner_bases(self, order):
        gens = toric_generators(complete_bipartite(2, 4)).generators
        gb = buchberger(order, gens)
        assert_reduced_groebner_basis(order, gb, gens)

    @settings(max_examples=25, deadline=None)
    @given(bipartite_graphs(max_a=2, max_b=4), st.randoms())
    def test_generator_permutation_invariance(self, g, rng):
        gens = list(toric_generators(g).generators)
        gb1 = buchberger(DEGREVLEX, gens, nvars=g.q)
        rng.shuffle(gens)
        gb2 = buchberger(DEGREVLEX, gens, nvars=g.q)
        assert gb1 == gb2

    @settings(max_examples=25, deadline=None)
    @given(bipartite_graphs(max_a=2, max_b=4))
    def test_oracle_on_random_graphs(self, g):
        gens = toric_generators(g).generators
        gb = buchberger(DEGREVLEX, gens, nvars=g.q)
        for b in gb.elements:
            assert sum(b.plus) == sum(b.minus)
        assert_reduced_groebner_basis(DEGREVLEX, gb, gens)


class TestReduceUniversal:
    """The even-cycle binomials are a universal Groebner basis, so the
    invariant pipeline reduces the cycles it keeps to their minimal leading
    halves without forming an S-pair; Buchberger must find the same
    initial ideal."""

    @pytest.mark.parametrize("order", [DEGREVLEX, DEGLEX, LEX], ids=lambda o: o.kind)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_buchberger_on_every_class(self, n, order):
        for g in enumerate_connected_bipartite(n):
            leads = _minimal(lead for lead, _ in leading_cycles(g, order))
            gb = buchberger(order, toric_generators(g).generators, nvars=g.q)
            assert sorted(leads) == sorted(_mask(m) for m in initial_ideal(gb).gens), g.edges


class TestInitialIdeal:
    def test_c6(self):
        gb = buchberger(DEGREVLEX, toric_generators(cycle_graph(6)).generators)
        assert initial_ideal(gb).gens == ((1, 0, 1, 0, 1, 0),)

    def test_tree_empty(self):
        gb = buchberger(DEGREVLEX, (), nvars=4)
        ideal = initial_ideal(gb)
        assert ideal.gens == () and ideal.nvars == 4

    def test_k23_three_quadrics_antichain(self):
        gb = buchberger(DEGREVLEX, toric_generators(complete_bipartite(2, 3)).generators)
        ideal = initial_ideal(gb)
        assert len(ideal.gens) == 3
        assert all(sum(m) == 2 for m in ideal.gens)
        for a in ideal.gens:
            for b in ideal.gens:
                if a != b:
                    assert not all(x <= y for x, y in zip(a, b))

    def test_rejects_leading_monomials_that_divide(self):
        gb = ReducedGB(DEGREVLEX, 4, (
            Binomial((1, 1, 0, 0), (0, 0, 1, 1)),
            Binomial((2, 1, 0, 0), (0, 0, 1, 2)),
        ))
        with pytest.raises(ValueError, match="antichain"):
            initial_ideal(gb)

    def test_support_inside_another_is_not_divisibility(self):
        # x1^2 and x1*x2: the support {x1} lies in {x1, x2}, yet neither divides
        gb = ReducedGB(DEGREVLEX, 4, (
            Binomial((2, 0, 0, 0), (0, 0, 1, 1)),
            Binomial((1, 1, 0, 0), (0, 0, 0, 2)),
        ))
        assert initial_ideal(gb).gens == ((1, 1, 0, 0), (2, 0, 0, 0))


class TestOrderIndependence:
    def test_h_polynomial_spot_check(self):
        from toricgraph.hilbert import edge_ring_hilbert

        for g in (cycle_graph(6), complete_bipartite(3, 3), complete_bipartite(2, 4)):
            assert edge_ring_hilbert(g, DEGREVLEX).h_poly == edge_ring_hilbert(g, LEX).h_poly
