import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricgraph.atlas import enumerate_connected_bipartite
from toricgraph.graphs import (
    Graph,
    NotBipartiteError,
    SizeGuardExceededError,
    complete_bipartite,
    complete_core_graph,
    cycle_core_graph,
    cycle_from_vertices,
    cycle_graph,
    enumerate_cycles,
    path_graph,
    star,
)
from toricgraph.groebner import _key, _mask
from toricgraph.hilbert import _minimal, invariant_tuple
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

from test_graphs import bipartite_graphs, rotated


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
                assert _key(b.plus) > _key(b.minus), (g.edges, c)


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


def assert_same_initial_ideal(g):
    """On g and on its rotated copy, the pruned search keeps only cycle
    binomials of that copy as (lead, trail) masks oriented for degrevlex,
    each once, among them every 4-cycle binomial, and their minimal leading
    halves are the minimal leading monomials of all of its cycle binomials:
    the leading terms of the same reduced basis."""
    for h in (g, rotated(g)):
        oriented = set()
        for b in toric_generators(h).generators:
            lead, trail = sorted((b.plus, b.minus), key=_key, reverse=True)
            oriented.add((_mask(lead), _mask(trail)))
        kept = leading_cycles(h)
        assert len(set(kept)) == len(kept), h.edges
        assert set(kept) <= oriented, h.edges
        assert sorted(p for p in kept if p[0].bit_count() == 2) == sorted(
            p for p in oriented if p[0].bit_count() == 2), h.edges
        assert sorted(_minimal(lead for lead, _ in kept)) == sorted(
            _minimal(lead for lead, _ in oriented)), h.edges


class TestLeadingCycleBinomials:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_same_basis_on_every_class(self, n):
        for g in enumerate_connected_bipartite(n):
            assert_same_initial_ideal(g)

    def test_same_basis_on_dense_graphs(self):
        graphs = witness_grid() + [complete_bipartite(5, 5), complete_bipartite(5, 6), cycle_graph(12)]
        assert len(graphs) == 121
        for g in graphs:
            assert_same_initial_ideal(g)

    def test_k56_keeps_under_a_tenth_of_its_cycles(self):
        g = complete_bipartite(5, 6)
        assert len(enumerate_cycles(g)) == 15390
        for h in (g, rotated(g)):
            assert len(leading_cycles(h)) < 1539, h.edges

    @pytest.mark.parametrize("g, kept", [
        (complete_bipartite(5, 6), 150),
        (complete_bipartite(5, 5), 100),
        (complete_bipartite(4, 7), 126),
        (complete_core_graph(14, 5, 35), 420),
    ], ids=["K5,6", "K5,5", "K4,7", "hnrp-14-5-35"])
    def test_kept_cycles_of_dense_graphs(self, g, kept):
        # the 4-cycles are listed first, so a complete bipartite graph
        # K_{a,b}, whose ideal has a quadratic Groebner basis, keeps its
        # comb(a, 2) * comb(b, 2) quadrics and nothing else
        for h in (g, rotated(g)):
            assert len(leading_cycles(h)) == kept, h.edges

    def test_dense_witness_past_the_benchmark(self):
        # q = 63 on 16 vertices: the complete-core witness of (6, 48)
        g = complete_core_graph(16, 6, 48)
        assert g.q == 63
        for h in (g, rotated(g)):
            assert invariant_tuple(h).as_tuple() == (6, 6, 48, 15, 15)

    def test_hubs_on_both_sides_stay_cheap(self):
        # two adjacent hubs with 3,000 leaves each, one hub in each part: the
        # 4-cycle listing holds the paths from one vertex at a time (at most
        # 3,000 here), where a listing that held every wedge centred in
        # either part would hold about 4.5 million
        import tracemalloc

        k = 3000
        g = Graph(2 + 2 * k, ((0, 1),) + tuple((h, 2 + h * k + t) for h in (0, 1) for t in range(k)))
        tracemalloc.start()
        try:
            assert leading_cycles(g) == ()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_pendant_trees_are_peeled_before_the_search(self):
        # a star whose hub has the largest label: every root would meet the
        # hub last and try each smaller edge there, quadratic in the leaves
        import time

        k = 20000
        hub_last = Graph(k + 1, tuple((t, k) for t in range(k)))
        start = time.perf_counter()
        assert leading_cycles(hub_last) == ()
        assert time.perf_counter() - start < 2
        # C_6 on 0..5 with a pendant tree hung on its largest vertex
        g = Graph(10, tuple((i, (i + 1) % 6) for i in range(6)) + ((5, 6), (6, 7), (6, 8), (8, 9)))
        assert len(leading_cycles(g)) == 1
        assert_same_initial_ideal(g)

    def test_not_bipartite(self):
        with pytest.raises(NotBipartiteError):
            leading_cycles(cycle_graph(5))

    def test_empty_edge_set(self):
        with pytest.raises(EmptyEdgeSetError):
            leading_cycles(Graph(1, ()))

    def test_tree_yields_nothing(self):
        assert leading_cycles(path_graph(6)) == ()

    def test_cycle_past_the_recursion_limit_is_a_size_guard(self):
        with pytest.raises(SizeGuardExceededError, match="recursion limit"):
            leading_cycles(cycle_graph(1200))
        with pytest.raises(SizeGuardExceededError, match="recursion limit"):
            toric_generators(cycle_graph(1200))


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
