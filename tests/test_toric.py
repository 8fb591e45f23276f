import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricgraph.atlas import enumerate_connected_bipartite
from toricgraph.graphs import (
    Graph,
    NotBipartiteError,
    complete_bipartite,
    complete_core_graph,
    cycle_core_graph,
    cycle_from_vertices,
    cycle_graph,
    enumerate_cycles,
    path_graph,
    star,
)
from toricgraph.groebner import DEGLEX, DEGREVLEX, LEX, _mask
from toricgraph.hilbert import _minimal
from toricgraph.toric import (
    Binomial,
    EmptyEdgeSetError,
    binomial_str,
    cycle_binomial,
    leading_cycles,
    monomial_str,
    toric_generators,
    validate_kernel_membership,
    vertex_degree_vector,
)

from test_graphs import bipartite_graphs


class TestBinomialType:
    def test_rejects_equal_sides(self):
        with pytest.raises(ValueError):
            Binomial((1, 0), (1, 0))

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            Binomial((2, 0), (0, 1))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Binomial((1, 0), (0, 1, 0))

    def test_rendering(self):
        assert monomial_str((0, 0, 0)) == "1"
        assert monomial_str((1, 2, 0)) == "e1*e2^2"
        assert binomial_str(Binomial((1, 0, 1, 0), (0, 1, 0, 1))) == "e1*e3 - e2*e4"
        assert binomial_str(None) == "0"


class TestCycleBinomial:
    def test_c4(self):
        g = cycle_graph(4)
        b = cycle_binomial(g, cycle_from_vertices(g, (0, 1, 2, 3)))
        assert binomial_str(b) == "e1*e3 - e2*e4"

    def test_c6(self):
        g = cycle_graph(6)
        b = cycle_binomial(g, cycle_from_vertices(g, (0, 1, 2, 3, 4, 5)))
        assert binomial_str(b) == "e1*e3*e5 - e2*e4*e6"

    def test_reversal_and_rotation_invariance(self):
        g = cycle_graph(6)
        base = cycle_binomial(g, cycle_from_vertices(g, (0, 1, 2, 3, 4, 5)))
        reverse = cycle_binomial(g, cycle_from_vertices(g, (0, 5, 4, 3, 2, 1)))
        rotated = cycle_binomial(g, cycle_from_vertices(g, (2, 3, 4, 5, 0, 1)))
        assert base == reverse == rotated

    def test_odd_cycle_rejected(self):
        g = cycle_graph(5)
        with pytest.raises(NotBipartiteError):
            cycle_binomial(g, cycle_from_vertices(g, (0, 1, 2, 3, 4)))

    def test_plus_is_degrevlex_larger(self):
        graphs = [g for n in range(2, 9) for g in enumerate_connected_bipartite(n)]
        for g in graphs + [cycle_graph(12)]:
            for c in enumerate_cycles(g):
                b = cycle_binomial(g, c)
                assert DEGREVLEX.key(b.plus) > DEGREVLEX.key(b.minus), (g.edges, c)


class TestToricGenerators:
    def test_trees_have_zero_ideal(self):
        for g in (star(5), path_graph(6)):
            assert toric_generators(g).generators == ()

    def test_k23_three_quadrics(self):
        pres = toric_generators(complete_bipartite(2, 3))
        assert len(pres.generators) == 3
        assert all(b.degree == 2 for b in pres.generators)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_even_cycle_single_generator(self, r):
        pres = toric_generators(cycle_graph(2 * r))
        assert len(pres.generators) == 1
        assert pres.generators[0].degree == r

    def test_not_bipartite(self):
        with pytest.raises(NotBipartiteError):
            toric_generators(cycle_graph(3))

    def test_empty_edge_set(self):
        with pytest.raises(EmptyEdgeSetError):
            toric_generators(Graph(1, ()))

    @settings(max_examples=60, deadline=None)
    @given(bipartite_graphs())
    def test_generators_are_homogeneous_coprime_kernel_members(self, g):
        pres = toric_generators(g)
        for b in pres.generators:
            assert sum(b.plus) == sum(b.minus)
            assert all(min(x, y) == 0 for x, y in zip(b.plus, b.minus))
            assert validate_kernel_membership(g, b)

    @settings(max_examples=60, deadline=None)
    @given(bipartite_graphs())
    def test_forest_iff_zero_ideal(self, g):
        from toricgraph.graphs import enumerate_cycles

        pres = toric_generators(g)
        assert (pres.generators == ()) == (enumerate_cycles(g) == ())


def witness_grid():
    """Every constructor witness at n = 10, 11 (118 graphs)."""
    out = []
    for n in (10, 11):
        for r in range(1, n // 2):
            out += [cycle_core_graph(n, r, p) for p in range(1, r * r + 1)]
            out += [complete_core_graph(n, r, p) for p in range(r * r, r * (n - 2 - r) + 1)]
    return out


def assert_same_initial_ideal(g, orders):
    """The pruned search keeps only cycle binomials of g as (lead, trail)
    masks oriented for the order, and their minimal leading halves are the
    minimal leading monomials of all of g's cycle binomials: the leading
    terms of the same reduced basis."""
    cycles = toric_generators(g).generators
    for order in orders:
        oriented = set()
        for b in cycles:
            lead, trail = sorted((b.plus, b.minus), key=order.key, reverse=True)
            oriented.add((_mask(lead), _mask(trail)))
        kept = leading_cycles(g, order)
        assert set(kept) <= oriented, (g.edges, order.kind)
        assert sorted(_minimal(lead for lead, _ in kept)) == sorted(
            _minimal(lead for lead, _ in oriented)), (g.edges, order.kind)


class TestLeadingCycleBinomials:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_same_basis_on_every_class(self, n):
        for g in enumerate_connected_bipartite(n):
            assert_same_initial_ideal(g, (DEGREVLEX, DEGLEX, LEX))

    def test_same_basis_on_dense_graphs(self):
        graphs = witness_grid() + [complete_bipartite(5, 5), complete_bipartite(5, 6), cycle_graph(12)]
        assert len(graphs) == 121
        for g in graphs:
            assert_same_initial_ideal(g, (DEGREVLEX, LEX))

    def test_k56_keeps_under_a_tenth_of_its_cycles(self):
        g = complete_bipartite(5, 6)
        assert len(enumerate_cycles(g)) == 15390
        for order in (DEGREVLEX, LEX):
            assert len(leading_cycles(g, order)) < 1539, order.kind

    def test_not_bipartite(self):
        with pytest.raises(NotBipartiteError):
            leading_cycles(cycle_graph(5), DEGREVLEX)

    def test_empty_edge_set(self):
        with pytest.raises(EmptyEdgeSetError):
            leading_cycles(Graph(1, ()), LEX)

    def test_tree_yields_nothing(self):
        for order in (DEGREVLEX, LEX):
            assert leading_cycles(path_graph(6), order) == ()


class TestDegreeVector:
    def test_single_edge_variable(self):
        g = complete_bipartite(2, 2)
        vec = vertex_degree_vector(g, (1, 0, 0, 0))
        u, v = g.edges[0]
        assert vec[u] == vec[v] == 1 and sum(vec) == 2

    def test_perfect_matching_covers_once(self):
        g = cycle_graph(4)
        assert vertex_degree_vector(g, (1, 0, 1, 0)) == (1, 1, 1, 1)

    def test_constant_monomial(self):
        g = cycle_graph(4)
        assert vertex_degree_vector(g, (0, 0, 0, 0)) == (0, 0, 0, 0)


class TestKernelValidation:
    def test_distinct_edges_not_in_kernel(self):
        g = complete_bipartite(2, 2)
        assert not validate_kernel_membership(g, Binomial((1, 0, 0, 0), (0, 1, 0, 0)))

    @settings(max_examples=40, deadline=None)
    @given(bipartite_graphs())
    def test_all_cycle_binomials_in_kernel(self, g):
        for b in toric_generators(g).generators:
            assert validate_kernel_membership(g, b)
