import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricgraph.atlas import enumerate_connected_bipartite
from toricgraph.graphs import complete_bipartite, cycle_graph
from toricgraph.groebner import (
    ReducedGB,
    _key,
    _mask,
    buchberger,
    initial_ideal,
    normal_form,
)
from toricgraph.hilbert import _minimal
from toricgraph.toric import Binomial, leading_cycles, toric_generators

from test_graphs import bipartite_graphs, rotated


def spoly(f, g, q):
    """Independent S-polynomial for the Groebner oracle below."""
    lcm = tuple(max(x, y) for x, y in zip(f.plus, g.plus))
    u = tuple(lcm[k] - f.plus[k] + f.minus[k] for k in range(q))
    v = tuple(lcm[k] - g.plus[k] + g.minus[k] for k in range(q))
    return None if u == v else (u, v)


def oriented(a, b):
    """The binomial a - b or b - a whose plus is the degrevlex-larger side."""
    return Binomial(a, b) if _key(a) > _key(b) else Binomial(b, a)


def assert_reduced_groebner_basis(gb, gens):
    """Oracle: structural reducedness, then every S-pair (no pruning at all)
    reduces to zero, then every original generator reduces to zero."""
    elements = gb.elements
    for i, b in enumerate(elements):
        assert _key(b.plus) > _key(b.minus)
        for j, c in enumerate(elements):
            if i != j:
                assert not all(x <= y for x, y in zip(c.plus, b.plus)), "leading antichain"
                assert not all(x <= y for x, y in zip(c.plus, b.minus)), "tail not reduced"
    for f, g in itertools.combinations(elements, 2):
        s = spoly(f, g, gb.nvars)
        if s is not None:
            assert normal_form(elements, oriented(*s)) is None
    for gen in gens:
        assert normal_form(elements, oriented(gen.plus, gen.minus)) is None


@st.composite
def binomial_ideals(draw):
    """(q, gens): 1-6 homogeneous pure-difference binomials of degree 1-3 in
    2-6 variables, plus != minus.  Unlike cycle binomials these are not a
    Groebner basis to begin with, so most S-pairs do real work."""
    q = draw(st.integers(2, 6))

    def monomials(d):  # exponent vectors of degree d
        return st.lists(st.integers(0, q - 1), min_size=d, max_size=d).map(
            lambda vs: tuple(vs.count(k) for k in range(q)))

    gens = []
    for _ in range(draw(st.integers(1, 6))):
        d = draw(st.integers(1, 3))
        plus = draw(monomials(d))
        gens.append(Binomial(plus, draw(monomials(d).filter(lambda m: m != plus))))
    return q, gens


class TestCompare:
    """The degrevlex key, e_1 the highest variable."""

    def test_degrevlex_alternating(self):
        assert _key((1, 0, 1, 0, 1, 0)) > _key((0, 1, 0, 1, 0, 1))

    def test_degree_dominates_graded_orders(self):
        assert _key((3, 0)) > _key((1, 1))
        assert _key((0, 3)) > _key((1, 1))

    @settings(max_examples=100, deadline=None)
    @given(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    )
    def test_antisymmetric_and_multiplicative(self, m1, m2, w):
        assert (_key(m1) == _key(m2)) == (m1 == m2)
        # multiplying both sides by the same monomial preserves the order
        shifted = [_key(tuple(x + y for x, y in zip(m, w))) for m in (m1, m2)]
        assert (shifted[0] > shifted[1]) == (_key(m1) > _key(m2))
        # the order refines total degree
        if sum(m1) != sum(m2):
            assert (_key(m1) > _key(m2)) == (sum(m1) > sum(m2))


class TestNormalForm:
    def setup_method(self):
        g = cycle_graph(6)
        self.basis = list(buchberger(toric_generators(g).generators).elements)

    def test_single_step(self):
        assert normal_form(self.basis, (1, 0, 1, 0, 1, 0)) == (0, 1, 0, 1, 0, 1)

    def test_untouched(self):
        m = (1, 1, 0, 1, 0, 1)
        assert normal_form(self.basis, m) == m

    def test_basis_element_reduces_to_zero(self):
        assert normal_form(self.basis, self.basis[0]) is None

    def test_misoriented_basis_rejected(self):
        flipped = Binomial(self.basis[0].minus, self.basis[0].plus)
        with pytest.raises(ValueError, match="oriented"):
            normal_form([flipped], (1, 0, 1, 0, 1, 0))


class TestBuchberger:
    def test_c6_single_generator_fixed(self):
        gens = toric_generators(cycle_graph(6)).generators
        gb = buchberger(gens)
        assert gb.elements == gens
        assert_reduced_groebner_basis(gb, gens)

    def test_k23(self):
        gens = toric_generators(complete_bipartite(2, 3)).generators
        gb = buchberger(gens)
        assert len(gb.elements) == 3
        assert_reduced_groebner_basis(gb, gens)

    def test_k33_quadratic(self):
        gens = toric_generators(complete_bipartite(3, 3)).generators
        gb = buchberger(gens)
        assert all(b.degree == 2 for b in gb.elements)
        assert_reduced_groebner_basis(gb, gens)

    def test_empty_needs_nvars(self):
        gb = buchberger((), nvars=5)
        assert gb.elements == ()
        with pytest.raises(ValueError):
            buchberger(())

    def test_k24(self):
        gens = toric_generators(complete_bipartite(2, 4)).generators
        gb = buchberger(gens)
        assert_reduced_groebner_basis(gb, gens)

    @settings(max_examples=25, deadline=None)
    @given(bipartite_graphs(max_a=2, max_b=4), st.randoms())
    def test_generator_permutation_invariance(self, g, rng):
        gens = list(toric_generators(g).generators)
        gb1 = buchberger(gens, nvars=g.q)
        rng.shuffle(gens)
        gb2 = buchberger(gens, nvars=g.q)
        assert gb1 == gb2

    @settings(max_examples=25, deadline=None)
    @given(bipartite_graphs(max_a=2, max_b=4))
    def test_oracle_on_random_graphs(self, g):
        gens = toric_generators(g).generators
        gb = buchberger(gens, nvars=g.q)
        for b in gb.elements:
            assert sum(b.plus) == sum(b.minus)
        assert_reduced_groebner_basis(gb, gens)


class TestBuchbergerBinomialIdeals:
    """Random binomial ideals that are not toric ideals of graphs."""

    @settings(max_examples=40, deadline=None)
    @given(binomial_ideals(), st.randoms())
    def test_reduced_basis_independent_of_generator_order(self, ideal, rng):
        q, gens = ideal
        gb = buchberger(gens, nvars=q)
        assert_reduced_groebner_basis(gb, gens)
        rng.shuffle(gens)
        assert buchberger(gens, nvars=q) == gb

    def test_s_pair_creates_a_new_element(self):
        # x1 x2 - x3^2 and x1 x3 - x2^2, led by x1 x2 and x2^2: neither
        # leading monomial divides the other, and their S-pair
        # x1^2 x3 - x2 x3^2 joins the basis
        gb = buchberger([Binomial((1, 1, 0), (0, 0, 2)), Binomial((1, 0, 1), (0, 2, 0))])
        assert gb.elements == (
            Binomial((0, 2, 0), (1, 0, 1)),
            Binomial((1, 1, 0), (0, 0, 2)),
            Binomial((2, 0, 1), (0, 1, 2)),
        )


class TestReduceUniversal:
    """The even-cycle binomials are a universal Groebner basis, so their
    minimal leading halves generate its initial ideal, and Buchberger must
    find the same one.  The invariant pipeline reduces the cycles its search
    keeps to their minimal leading halves without forming an S-pair; it is
    checked on each graph and on its rotated copy, each against Buchberger's
    basis of that copy."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_buchberger_on_every_class(self, n):
        for g in enumerate_connected_bipartite(n):
            for h in (g, rotated(g)):
                cycles = toric_generators(h).generators
                gb = buchberger(cycles, nvars=h.q)
                expected = sorted(_mask(m) for m in initial_ideal(gb).gens)
                leads = _minimal(_mask(max(b.plus, b.minus, key=_key)) for b in cycles)
                assert sorted(leads) == expected, h.edges
                kept = _minimal(lead for lead, _ in leading_cycles(h))
                assert sorted(kept) == expected, h.edges


class TestInitialIdeal:
    def test_c6(self):
        gb = buchberger(toric_generators(cycle_graph(6)).generators)
        assert initial_ideal(gb).gens == ((1, 0, 1, 0, 1, 0),)

    def test_tree_empty(self):
        gb = buchberger((), nvars=4)
        ideal = initial_ideal(gb)
        assert ideal.gens == () and ideal.nvars == 4

    def test_k23_three_quadrics_antichain(self):
        gb = buchberger(toric_generators(complete_bipartite(2, 3)).generators)
        ideal = initial_ideal(gb)
        assert len(ideal.gens) == 3
        assert all(sum(m) == 2 for m in ideal.gens)
        for a in ideal.gens:
            for b in ideal.gens:
                if a != b:
                    assert not all(x <= y for x, y in zip(a, b))

    def test_rejects_leading_monomials_that_divide(self):
        gb = ReducedGB(4, (
            Binomial((1, 1, 0, 0), (0, 0, 1, 1)),
            Binomial((2, 1, 0, 0), (0, 0, 1, 2)),
        ))
        with pytest.raises(ValueError, match="antichain"):
            initial_ideal(gb)

    def test_support_inside_another_is_not_divisibility(self):
        # x1^2 and x1*x2: the support {x1} lies in {x1, x2}, yet neither divides
        gb = ReducedGB(4, (
            Binomial((2, 0, 0, 0), (0, 0, 1, 1)),
            Binomial((1, 1, 0, 0), (0, 0, 0, 2)),
        ))
        assert initial_ideal(gb).gens == ((1, 1, 0, 0), (2, 0, 0, 0))


class TestOrderIndependence:
    def test_h_polynomial_spot_check(self):
        # the pipeline's h, on g and on its rotated copy, is the h of
        # Buchberger's initial ideal
        from toricgraph.hilbert import edge_ring_hilbert, h_polynomial, hilbert_numerator

        for g in (cycle_graph(6), complete_bipartite(3, 3), complete_bipartite(2, 4)):
            h = edge_ring_hilbert(g).h_poly
            assert edge_ring_hilbert(rotated(g)).h_poly == h
            gb = buchberger(toric_generators(g).generators, nvars=g.q)
            numerator = hilbert_numerator(initial_ideal(gb))
            assert h_polynomial(numerator, g.q, g.n - 1) == h
