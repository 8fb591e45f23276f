import os
import subprocess
import sys
import textwrap
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import toricgraph
from toricgraph.atlas import enumerate_connected_bipartite
from toricgraph.graphs import (
    DisconnectedError,
    Graph,
    NotBipartiteError,
    complete_bipartite,
    complete_core_graph,
    cycle_core_graph,
    cycle_graph,
    is_connected,
    path_graph,
    star,
)
from toricgraph.groebner import (
    MonomialIdeal,
    _mask,
    initial_ideal,
)
from toricgraph.hilbert import (
    InexactDivisionError,
    _in_kernel,
    _minimal,
    _numerator,
    a_invariant,
    codegree,
    dim_and_h,
    edge_ring_gb,
    edge_ring_hilbert,
    h_polynomial,
    hilbert_numerator,
    invariant_tuple,
    krull_dimension,
    poly_mul,
    poly_trim,
    tuple_as_json_dict,
)
from toricgraph.toric import EmptyEdgeSetError, leading_cycles

from test_graphs import rotated


def count_standard_monomials(gens, q, d):
    """Oracle: directly count degree-d monomials divisible by no generator."""
    count = 0
    for combo in combinations_with_replacement(range(q), d):
        m = [0] * q
        for v in combo:
            m[v] += 1
        if not any(all(g[i] <= m[i] for i in range(q)) for g in gens):
            count += 1
    return count


def series_coefficient(numerator, q, d):
    """Coefficient of t^d in numerator / (1-t)^q."""
    return sum(
        numerator[k] * comb(q - 1 + d - k, q - 1)
        for k in range(min(len(numerator), d + 1))
    )


def assert_numerator_matches_counting(gens, q, numerator, max_degree=8):
    for d in range(max_degree + 1):
        assert series_coefficient(numerator, q, d) == count_standard_monomials(gens, q, d)


# Reference oracles: the exponent-tuple numerator recursion and the frozenset
# transversal that `hilbert_numerator` and `krull_dimension` used before they
# moved to polarized bitmasks.


def reference_minimalize(gens):
    kept = []
    for m in sorted(set(gens), key=lambda g: (sum(g), g)):
        if not any(all(x <= y for x, y in zip(k, m)) for k in kept):
            kept.append(m)
    return tuple(kept)


def poly_add(a, b):
    n = max(len(a), len(b))
    return poly_trim(tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                           for i in range(n)))


def reference_numerator(gens):
    if not gens:
        return (1,)
    # complete-intersection base case: pairwise disjoint supports
    seen = 0
    disjoint = True
    for m in gens:
        mask = _mask(m)
        if mask & seen:
            disjoint = False
            break
        seen |= mask
    if disjoint:
        out = (1,)
        for m in gens:
            deg = sum(m)
            if deg == 0:
                return ()  # unit ideal, zero quotient
            out = poly_mul(out, (1,) + (0,) * (deg - 1) + (-1,))
        return out
    q = len(gens[0])
    freq = [0] * q
    for m in gens:
        for i, e in enumerate(m):
            if e:
                freq[i] += 1
    pivot = max(range(q), key=lambda i: freq[i])
    assert freq[pivot] >= 2
    unit = tuple(1 if i == pivot else 0 for i in range(q))
    left = tuple(sorted([m for m in gens if m[pivot] == 0] + [unit]))
    colon = reference_minimalize(
        tuple(m[:pivot] + (m[pivot] - 1,) + m[pivot + 1:] if m[pivot] else m for m in gens)
    )
    right = reference_numerator(colon)
    return poly_add(reference_numerator(left), (0,) + right)


def reference_min_transversal(supports):
    # drop dominated supports (supersets of another support)
    minimal = []
    for s in sorted(supports, key=len):
        if not any(t <= s for t in minimal):
            minimal.append(s)

    def lower_bound(rest):
        used = set()
        count = 0
        for s in rest:
            if not (s & used):
                count += 1
                used |= s
        return count

    best = len({v for s in minimal for v in s})

    def solve(rest, depth):
        nonlocal best
        if not rest:
            best = min(best, depth)
            return
        if depth + lower_bound(rest) >= best:
            return
        s = min(rest, key=len)
        for v in sorted(s):
            solve([t for t in rest if v not in t], depth + 1)

    solve(minimal, 0)
    return best


def reference_krull_dimension(gens, q):
    if not gens:
        return q
    return q - reference_min_transversal(
        [frozenset(i for i, e in enumerate(m) if e) for m in gens])


def assert_matches_reference(ideal, q):
    numerator = hilbert_numerator(ideal)
    assert numerator == reference_numerator(tuple(sorted(ideal.gens)))
    dim = krull_dimension(ideal)
    assert dim == reference_krull_dimension(ideal.gens, q)
    # the pipeline reads dim off the pole at t = 1; the transversal is its oracle
    pole, h = dim_and_h(numerator, q)
    assert pole == dim
    assert poly_mul(h, _one_minus_t_power(q - dim)) == numerator


def pipeline_ideal(g):
    """The initial ideal `edge_ring_hilbert` builds: the minimal leading
    halves of the cycles the search keeps, as exponent tuples."""
    leads = _minimal(lead for lead, _ in leading_cycles(g))
    gens = sorted((tuple(m >> i & 1 for i in range(g.q)) for m in leads), key=lambda m: (sum(m), m))
    return MonomialIdeal(g.q, tuple(gens))


class TestAgainstReference:
    def test_initial_ideals_up_to_8(self):
        for n in range(2, 9):
            for g in enumerate_connected_bipartite(n):
                for h in (g, rotated(g)):
                    ideal = pipeline_ideal(h)
                    assert_matches_reference(ideal, h.q)
                    assert edge_ring_hilbert(h).numerator == hilbert_numerator(ideal)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6).flatmap(lambda q: st.tuples(
            st.just(q),
            st.lists(st.tuples(*[st.integers(0, 3)] * q), min_size=1, max_size=8),
        ))
    )
    def test_random_antichains(self, drawn):
        q, raw = drawn
        gens = reference_minimalize(m for m in raw if sum(m) > 0)
        assert_matches_reference(MonomialIdeal(q, gens), q)


def as_exponents(masks, q):
    return tuple(sorted(tuple(m >> i & 1 for i in range(q)) for m in masks))


class TestMaskNumerator:
    """`_numerator` on squarefree masks against the exponent-tuple recursion,
    with up to 20 generators on up to 16 bits."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(6, 16).flatmap(lambda q: st.tuples(
            st.just(q),
            st.lists(st.integers(1, (1 << q) - 1), min_size=2, max_size=20),
        ))
    )
    def test_random_squarefree_ideals(self, drawn):
        q, raw = drawn
        gens = _minimal(raw)
        assert _numerator(gens) == reference_numerator(as_exponents(gens, q))

    def test_empty_ideal(self):
        assert _numerator([]) == reference_numerator(()) == (1,)

    def test_single_bit_generator(self):
        assert _numerator([1 << 3]) == reference_numerator(as_exponents([1 << 3], 6)) == (1, -1)

    def test_unit_generator(self):
        gens = _minimal([0b101, 0, 0b11])
        assert gens == [0]
        assert _numerator(gens) == reference_numerator(as_exponents(gens, 3)) == ()


class TestKernelCheck:
    def test_tampered_pair_fails(self):
        g = complete_bipartite(3, 3)
        pairs = leading_cycles(g)
        lead, trail = pairs[0]
        low = trail & -trail
        used = lead | trail
        outside = ~used & used + 1  # the lowest edge off the cycle
        assert outside < 1 << g.q
        for bad in ((lead, lead), (lead, trail ^ low), (lead, trail ^ low | outside)):
            with pytest.raises(AssertionError, match="kernel"):
                _in_kernel(g, pairs[1:] + (bad,))

    def test_packs_only_the_edges_of_kept_cycles(self):
        # a star keeps no cycle, so the check packs no edge; packing all
        # 7,999 edges into one field per vertex took about 60 MiB
        import tracemalloc

        g = star(8000)
        tracemalloc.start()
        try:
            assert invariant_tuple(g).as_tuple() == (0, 0, 0, 7999, 7999)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_check_survives_python_optimize(self):
        # -O strips assert statements; the kernel checks of the pipeline and
        # of the Groebner oracle must still raise
        script = textwrap.dedent("""
            import toricgraph.hilbert as hilbert
            from toricgraph.graphs import complete_bipartite

            assert False, "not reached under -O"
            g = complete_bipartite(3, 3)
            pairs = hilbert.leading_cycles(g)
            lead, trail = pairs[0]
            try:
                hilbert._in_kernel(g, pairs[1:] + ((lead, trail ^ trail & -trail),))
            except AssertionError as exc:
                print(exc)
            hilbert.validate_kernel_membership = lambda g, b: False
            try:
                hilbert.edge_ring_gb(complete_bipartite(2, 2))
            except AssertionError as exc:
                print(exc)
            """)
        src = os.path.dirname(os.path.dirname(toricgraph.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "cycle escaped the kernel\nbasis element escaped the kernel\n"


class TestNumerator:
    def test_empty_ideal(self):
        assert hilbert_numerator(MonomialIdeal(6, ())) == (1,)

    def test_principal_cubic(self):
        ideal = MonomialIdeal(6, ((1, 0, 1, 0, 1, 0),))
        n = hilbert_numerator(ideal)
        assert n == (1, 0, 0, -1)
        assert_numerator_matches_counting(ideal.gens, 6, n)

    def test_k23_initial_ideal(self):
        ideal = initial_ideal(edge_ring_gb(complete_bipartite(2, 3)))
        n = hilbert_numerator(ideal)
        assert n == (1, 0, -3, 2)
        assert_numerator_matches_counting(ideal.gens, 6, n)

    def test_unit_generator_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            hilbert_numerator(MonomialIdeal(3, ((0, 0, 0),)))
        with pytest.raises(ValueError, match="unit"):
            krull_dimension(MonomialIdeal(3, ((0, 0, 0),)))

    @pytest.mark.parametrize(
        "gens,q",
        [
            (((2, 0, 0), (0, 3, 0)), 3),
            (((1, 1, 0), (0, 1, 1), (1, 0, 1)), 3),
            (((2, 1, 0, 0), (0, 1, 2, 0), (1, 0, 0, 3)), 4),
            (((1, 1, 1, 1),), 4),
        ],
    )
    def test_against_counting_oracle(self, gens, q):
        n = hilbert_numerator(MonomialIdeal(q, gens))
        assert_numerator_matches_counting(gens, q, n)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
            min_size=1,
            max_size=6,
        )
    )
    def test_random_antichains_match_counting(self, raw):
        raw = [m for m in raw if sum(m) > 0]
        assume(raw)
        kept = []
        for m in sorted(set(raw), key=lambda g: (sum(g), g)):
            if not any(all(x <= y for x, y in zip(k, m)) for k in kept):
                kept.append(m)
        gens = tuple(kept)
        n = hilbert_numerator(MonomialIdeal(4, gens))
        assert_numerator_matches_counting(gens, 4, n, max_degree=6)


class TestPoleOrder:
    def test_zero_numerator_rejected(self):
        for numerator in ((), (0,), (0, 0, 0)):
            with pytest.raises(ValueError, match="nonzero"):
                dim_and_h(numerator, 3)

    def test_divides_at_most_q_times(self):
        cube = _one_minus_t_power(3)
        assert dim_and_h(cube, 3) == (0, (1,))
        with pytest.raises(InexactDivisionError):
            dim_and_h(cube, 2)
        with pytest.raises(InexactDivisionError):
            dim_and_h((1, -1), 0)


class TestKrullDimension:
    def test_empty(self):
        assert krull_dimension(MonomialIdeal(6, ())) == 6

    def test_principal(self):
        assert krull_dimension(MonomialIdeal(6, ((1, 0, 1, 0, 1, 0),))) == 5

    def test_k23_is_n_minus_1(self):
        ideal = initial_ideal(edge_ring_gb(complete_bipartite(2, 3)))
        assert krull_dimension(ideal) == 4

    def test_matches_pole_order(self):
        # dimension equals the pole order of the series at t = 1
        for g in (cycle_graph(6), complete_bipartite(3, 3), complete_bipartite(2, 4)):
            ideal = initial_ideal(edge_ring_gb(g))
            n = hilbert_numerator(ideal)
            dim = krull_dimension(ideal)
            h = h_polynomial(n, g.q, dim)
            assert sum(h) != 0
            assert poly_mul(h, _one_minus_t_power(g.q - dim)) == n


def _one_minus_t_power(k):
    out = (1,)
    for _ in range(k):
        out = poly_mul(out, (1, -1))
    return out


class TestHPolynomial:
    def test_c6(self):
        assert h_polynomial((1, 0, 0, -1), 6, 5) == (1, 1, 1)

    def test_free_ring(self):
        assert h_polynomial((1,), 9, 9) == (1,)

    def test_k23(self):
        assert h_polynomial((1, 0, -3, 2), 6, 4) == (1, 2)

    def test_inexact_division(self):
        with pytest.raises(InexactDivisionError):
            h_polynomial((1, -2, 1), 5, 2)  # (1-t)^2 exactly, not (1-t)^3

    def test_dim_too_large(self):
        with pytest.raises(InexactDivisionError):
            h_polynomial((1, -2, 1), 5, 4)  # quotient would still vanish at 1

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            h_polynomial((1,), 3, 4)

    def test_zero_numerator(self):
        with pytest.raises(ValueError, match="nonzero"):
            h_polynomial((0, 0), 3, 2)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(-4, 4), min_size=1, max_size=6),
        st.integers(0, 5),
    )
    def test_roundtrip_with_multiplication(self, coeffs, codim):
        h = tuple(coeffs)
        assume(poly_trim(h) and sum(h) != 0)
        h = poly_trim(h)
        numerator = poly_mul(h, _one_minus_t_power(codim))
        q = codim + 3
        assert h_polynomial(numerator, q, q - codim) == h


class TestInvariantTuple:
    def test_c6(self):
        assert invariant_tuple(cycle_graph(6)).as_tuple() == (2, 2, 1, 5, 5)

    def test_figure_graphs(self):
        assert invariant_tuple(cycle_core_graph(10, 3, 2)).as_tuple() == (3, 3, 2, 9, 9)
        assert invariant_tuple(complete_core_graph(10, 3, 12)).as_tuple() == (3, 3, 12, 9, 9)

    def test_k33(self):
        assert invariant_tuple(complete_bipartite(3, 3)).as_tuple() == (2, 2, 4, 5, 5)

    def test_long_cycle(self):
        # the cycle search recurses once per edge, well inside the default limit
        assert invariant_tuple(cycle_graph(500)).as_tuple() == (249, 249, 1, 499, 499)

    def test_trees(self):
        assert invariant_tuple(star(5)).as_tuple() == (0, 0, 0, 4, 4)
        assert invariant_tuple(path_graph(7)).as_tuple() == (0, 0, 0, 6, 6)
        assert invariant_tuple(Graph(2, ((0, 1),))).as_tuple() == (0, 0, 0, 1, 1)

    def test_realizing_graph_downstream(self):
        from toricgraph.graphs import realizing_graph

        assert invariant_tuple(realizing_graph(1, 1)).as_tuple() == (1, 1, 1, 3, 3)
        assert invariant_tuple(realizing_graph(2, 7)).as_tuple() == (2, 2, 7, 10, 10)

    def test_rejects_bad_inputs(self):
        with pytest.raises(EmptyEdgeSetError):
            invariant_tuple(Graph(1, ()))
        with pytest.raises(DisconnectedError):
            invariant_tuple(Graph(4, ((0, 1), (2, 3))))
        # n - 1 edges, but a square and a separate edge
        with pytest.raises(DisconnectedError):
            invariant_tuple(Graph(6, ((0, 1), (1, 2), (2, 3), (0, 3), (4, 5))))
        with pytest.raises(NotBipartiteError):
            invariant_tuple(cycle_graph(5))

    def test_too_few_edges_rejected_before_adjacency(self):
        # fewer than n - 1 edges cannot connect n vertices; the adjacency of a
        # huge vertex count is never built
        g = Graph(10**6, ((0, 1),))
        with pytest.raises(DisconnectedError):
            invariant_tuple(g)
        assert "neighbors" not in vars(g)

    def test_reuses_hilbert_data_of_any_order(self):
        for g in (cycle_graph(8), complete_bipartite(3, 4), cycle_core_graph(10, 3, 2)):
            expected = invariant_tuple(g)
            for h in (g, rotated(g)):
                assert invariant_tuple(g, edge_ring_hilbert(h)) == expected

    def test_edge_ring_hilbert_is_not_cached(self):
        assert not hasattr(edge_ring_hilbert, "cache_info")

    def test_numerator_factors_exactly(self):
        for g in (cycle_graph(8), complete_bipartite(2, 4)):
            data = edge_ring_hilbert(g)
            assert poly_mul(data.h_poly, _one_minus_t_power(g.q - data.krull_dim)) == data.numerator


class TestDerivedInvariants:
    def test_a_invariant(self):
        assert a_invariant(invariant_tuple(cycle_graph(6))) == -3
        assert a_invariant(invariant_tuple(star(6))) == 1 - 6
        assert a_invariant(invariant_tuple(complete_bipartite(3, 3))) == -3

    def test_codegree(self):
        assert codegree(invariant_tuple(cycle_graph(6)), 6) == 4
        assert codegree(invariant_tuple(star(7)), 7) == 7
        assert codegree(invariant_tuple(complete_bipartite(3, 3)), 6) == 4

    def test_json_dict(self):
        d = tuple_as_json_dict(invariant_tuple(cycle_graph(6)), 6)
        assert d == {
            "reg": 2, "deg_h": 2, "pdim": 1, "depth": 5, "dim": 5,
            "a_invariant": -3, "codegree": 4,
        }

    def test_a_invariant_identity_on_small_graphs(self):
        # deg h - dim = reg - n + 1 for connected bipartite graphs
        for n in range(2, 7):
            for g in enumerate_connected_bipartite(n):
                t = invariant_tuple(g)
                assert a_invariant(t) == t.reg - g.n + 1
                assert codegree(t, g.n) == g.n - t.reg


class TestSubgraphMonotonicity:
    def test_single_edge_deletions_never_increase_reg(self):
        for n in range(2, 8):
            for g in enumerate_connected_bipartite(n):
                reg = invariant_tuple(g).reg
                for drop in range(g.q):
                    sub = Graph(g.n, g.edges[:drop] + g.edges[drop + 1:])
                    if sub.q == 0 or not is_connected(sub):
                        continue
                    assert invariant_tuple(sub).reg <= reg


class TestOrderIndependence:
    def test_small_enumeration(self):
        for n in range(2, 7):
            for g in enumerate_connected_bipartite(n):
                assert edge_ring_hilbert(g).h_poly == edge_ring_hilbert(rotated(g)).h_poly
