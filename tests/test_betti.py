import hashlib
import json
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricgraph import betti, groebner, hilbert, toric
from toricgraph.atlas import enumerate_connected_bipartite
from toricgraph.betti import (
    _block_rank,
    _column_rank,
    _KoszulContext,
    betti_table,
    betti_to_json_dict,
    euler_numerator,
    invariants_from_betti,
    koszul_homology_dim,
    render_betti,
)
from toricgraph.graphs import (
    Graph,
    NotBipartiteError,
    SizeGuardExceededError,
    complete_bipartite,
    cycle_core_graph,
    cycle_graph,
    path_graph,
    star,
)
from toricgraph.groebner import _divides, _mask, _nf_monomial
from toricgraph.hilbert import edge_ring_gb, edge_ring_hilbert, invariant_tuple
from toricgraph.toric import EmptyEdgeSetError, vertex_degree_vector

# sha256 over the JSON of betti_to_json_dict per class with n vertices and q
# edges, in enumeration order: pins tables past the atlas's q <= 8 oracle bound
BETTI_DIGESTS = {
    (9, 9): "fd49ab2ae36ea36d9ce30e5fd51578bf4bfa0cb02a182faafab0aba3c41aff61",
}


def fraction_rank(rows):
    """Rank oracle over exact rationals."""
    mat = [[Fraction(x) for x in row] for row in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    rank = 0
    for c in range(n):
        pivot = next((r for r in range(rank, m) if mat[r][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][c]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(m):
            if r != rank and mat[r][c]:
                f = mat[r][c]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def elementwise_bareiss_rank(mat):
    """Rank by fraction-free (Bareiss) elimination, one entry at a time: the
    rank code the Groebner route was first checked with, kept apart from the
    sparse column reduction it checks."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    r = 0
    prev = 1
    for c in range(n):
        pivot = next((rr for rr in range(r, m) if mat[rr][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        head = mat[r]
        hc = head[c]
        for rr in range(r + 1, m):
            row = mat[rr]
            rc = row[c]
            for cc in range(c + 1, n):
                row[cc] = (row[cc] * hc - rc * head[cc]) // prev
            row[c] = 0
        prev = hc
        r += 1
    return r


def sparse_columns(rows):
    """The columns of a dense matrix as {row: nonzero entry} dicts."""
    width = len(rows[0]) if rows else 0
    return [{r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(width)]


def standard_monomials(gb, d):
    """All degree-d monomials not divisible by a leading monomial of gb;
    a vector-space basis of the degree-d piece of the quotient."""
    q = gb.nvars
    lms = gb.leading_monomials
    masks = [_mask(m) for m in lms]
    out = []
    for combo in combinations_with_replacement(range(q), d):
        m = [0] * q
        for v in combo:
            m[v] += 1
        m = tuple(m)
        mm = _mask(m)
        if not any(masks[i] & mm == masks[i] and _divides(lm, m) for i, lm in enumerate(lms)):
            out.append(m)
    return tuple(out)


class ReferenceKoszul:
    """The Groebner route to the same Koszul complex: the degree-d piece of
    the edge ring has the standard monomials of the reduced degrevlex basis
    as basis, x_t times a standard monomial is its normal form, blocks are
    keyed by vertex-degree vectors, and no block skips elimination."""

    def __init__(self, g):
        self.graph = g
        self.gb = edge_ring_gb(g)
        self.lms = list(self.gb.leading_monomials)
        self.tails = [b.minus for b in self.gb.elements]
        self.masks = [_mask(m) for m in self.lms]
        self.std = {}
        self.products = {}
        self.layers = {}
        self.ranks = {}

    def basis(self, d):
        if d < 0:
            return ()
        if d not in self.std:
            self.std[d] = standard_monomials(self.gb, d)
        return self.std[d]

    def mult(self, t, m):
        if (t, m) not in self.products:
            shifted = m[:t] + (m[t] + 1,) + m[t + 1:]
            self.products[(t, m)] = _nf_monomial(shifted, self.lms, self.tails, self.masks)
        return self.products[(t, m)]

    def layer(self, i, j):
        g = self.graph
        if (i, j) in self.layers:
            return self.layers[(i, j)]
        blocks = self.layers[(i, j)] = {}
        if 0 <= i <= g.q:
            for t_set in combinations(range(g.q), i):
                for m in self.basis(j - i):
                    full = list(m)
                    for t in t_set:
                        full[t] += 1
                    blocks.setdefault(vertex_degree_vector(g, full), []).append((t_set, m))
        return blocks

    def rank(self, i, j):
        if (i, j) not in self.ranks:
            total = 0
            if 1 <= i <= self.graph.q:
                cod = self.layer(i - 1, j)
                for md, delems in self.layer(i, j).items():
                    index = {elem: r for r, elem in enumerate(cod[md])}
                    mat = [[0] * len(delems) for _ in index]
                    for c, (t_set, m) in enumerate(delems):
                        for k, t in enumerate(t_set):
                            target = (t_set[:k] + t_set[k + 1:], self.mult(t, m))
                            mat[index[target]][c] = -1 if k % 2 else 1
                    total += elementwise_bareiss_rank(mat)
            self.ranks[(i, j)] = total
        return self.ranks[(i, j)]

    def homology_dim(self, i, j):
        dim = comb(self.graph.q, i) * len(self.basis(j - i)) if i <= self.graph.q else 0
        return dim - self.rank(i, j) - self.rank(i + 1, j)


def reference_betti_entries(ref, reg, pdim):
    entries = {}
    for i in range(pdim + 2):
        for d in range(reg + 2):
            b = ref.homology_dim(i, i + d)
            if b:
                entries[(i, i + d)] = b
    return entries


class TestIntRank:
    def test_simple(self):
        assert _column_rank(sparse_columns([[1, 0], [0, 1]])) == 2
        assert _column_rank(sparse_columns([[1, 2], [2, 4]])) == 1
        assert _column_rank(sparse_columns([[0, 0], [0, 0]])) == 0

    def test_rank_over_the_rationals_not_mod_2(self):
        assert _column_rank(sparse_columns([[1, 1], [1, -1]])) == 2

    def test_non_unit_pivots(self):
        # the second column meets a pivot entry 4 with entry 6, then 5
        assert _column_rank(sparse_columns([[2, 3], [4, 6]])) == 1
        assert _column_rank(sparse_columns([[2, 3], [4, 5]])) == 2

    def test_zero_columns(self):
        assert _column_rank([{}, {0: 1}, {}, {0: -2}, {}]) == 1

    def test_empty_matrix(self):
        assert _column_rank([]) == 0
        assert _column_rank(sparse_columns([])) == 0

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.data(),
    )
    def test_matches_fraction_oracle(self, m, n, data):
        rows = [
            [data.draw(st.integers(-7, 7)) for _ in range(n)] for _ in range(m)
        ]
        assert _column_rank(sparse_columns(rows)) == fraction_rank(rows)
        order = data.draw(st.permutations(range(n)))
        reordered = [[row[c] for c in order] for row in rows]
        assert _column_rank(sparse_columns(reordered)) == fraction_rank(rows)


def boundary_columns(masks):
    """The boundary matrix of the i-sets `masks` as sparse columns, built
    from each set's sorted elements: dropping the k-th smallest element t
    gives the row without t, with sign (-1)**k."""
    columns = []
    for mask in masks:
        elems = [t for t in range(mask.bit_length()) if mask >> t & 1]
        columns.append({mask & ~(1 << t): (-1) ** k for k, t in enumerate(elems)})
    return columns


def coned(family, e):
    """The family with (T - t) + e added for every T without e and t in T,
    which makes e an apex."""
    bit = 1 << e
    out = set(family)
    for mask in family:
        if not mask & bit:
            out.update((mask & ~(1 << t)) | bit for t in range(mask.bit_length()) if mask >> t & 1)
    return out


class TestBlockRank:
    """The cone rule: a block with an apex e has rank #{T : e in T}, with
    no elimination; every other block is reduced."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_matches_the_full_boundary_matrix(self, i, data):
        isets = [sum(1 << t for t in c) for c in combinations(range(7), i)]
        family = set(data.draw(st.lists(st.sampled_from(isets), min_size=1, max_size=12)))
        apex = data.draw(st.none() | st.integers(0, 6))
        if apex is not None:
            family = coned(family, apex)
        masks = data.draw(st.permutations(sorted(family)))
        rank = _block_rank(masks)
        assert rank == _column_rank(boundary_columns(masks))
        if apex is not None:
            assert rank == sum(1 for mask in masks if mask >> apex & 1)

    def test_two_disjoint_triangles_have_no_apex(self, monkeypatch):
        # C_6 in multidegree (1, ..., 1): the squarefree divisor complex is
        # two disjoint filled triangles, its perfect matchings {0, 2, 4} and
        # {1, 3, 5}; the block of their edges (rank 4) leaves the one cycle
        # that gives beta_{1,3} = 1, and no edge is an apex of it
        reduced = []
        real = betti._column_rank

        def spy(columns):
            columns = list(columns)
            reduced.append(sorted(map(sorted, columns)))
            return real(columns)

        monkeypatch.setattr(betti, "_column_rank", spy)
        edges = [0b000101, 0b010001, 0b010100, 0b001010, 0b100010, 0b101000]
        assert _block_rank(edges) == 4
        assert reduced == [sorted(map(sorted, boundary_columns(edges)))]
        reduced.clear()
        assert betti_table(cycle_graph(6), 2, 1).entries == {(0, 0): 1, (1, 3): 1}
        # the same block and the block of the two triangles themselves
        # are the only ones the table reduces
        triangles = [0b010101, 0b101010]
        assert sorted(reduced) == sorted(
            sorted(map(sorted, boundary_columns(block))) for block in (edges, triangles))


class TestStandardMonomials:
    def test_c6_degree_3(self):
        gb = edge_ring_gb(cycle_graph(6))
        assert len(standard_monomials(gb, 3)) == 55

    def test_degree_zero(self):
        gb = edge_ring_gb(cycle_graph(4))
        assert standard_monomials(gb, 0) == ((0, 0, 0, 0),)

    def test_tree_has_all_variables(self):
        gb = edge_ring_gb(star(5))
        assert len(standard_monomials(gb, 1)) == 4


class TestSemigroupLayers:
    """S_d, the semigroup layer, against the Hilbert function of the
    Groebner route: the standard monomials of degree d."""

    def test_every_class_up_to_7(self):
        graphs = [g for n in range(2, 8) for g in enumerate_connected_bipartite(n)]
        assert len(graphs) == 71
        for g in graphs:
            ctx = _KoszulContext(g, 4)
            gb = edge_ring_gb(g)
            for d in range(5):
                assert len(ctx.semigroup(d)) == len(standard_monomials(gb, d)), (g.edges, d)

    @pytest.mark.parametrize("g", [cycle_graph(4), complete_bipartite(2, 3)], ids=["C4", "K23"])
    def test_high_degree(self, g):
        # vertex-degree entries reach 20, past any field width taken from q
        ctx = _KoszulContext(g, 20)
        gb = edge_ring_gb(g)
        for d in range(21):
            assert len(ctx.semigroup(d)) == len(standard_monomials(gb, d)), d

    def test_high_degree_homology(self):
        assert koszul_homology_dim(cycle_graph(4), 1, 18) == 0


class TestKoszulHomology:
    def test_c6_first_syzygies(self):
        g = cycle_graph(6)
        dims = {j: koszul_homology_dim(g, 1, j) for j in range(1, 5)}
        assert dims == {1: 0, 2: 0, 3: 1, 4: 0}

    def test_tree_zero_above_zero(self):
        g = path_graph(5)
        assert koszul_homology_dim(g, 0, 0) == 1
        for i in range(1, 5):
            for j in range(i, i + 2):
                assert koszul_homology_dim(g, i, j) == 0

    def test_k23(self):
        g = complete_bipartite(2, 3)
        assert koszul_homology_dim(g, 1, 2) == 3
        assert koszul_homology_dim(g, 2, 3) == 2
        assert koszul_homology_dim(g, 1, 3) == 0
        assert koszul_homology_dim(g, 3, 4) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            koszul_homology_dim(cycle_graph(4), -1, 0)

    def test_size_guard(self):
        with pytest.raises(SizeGuardExceededError):
            koszul_homology_dim(complete_bipartite(4, 4), 8, 11)

    @pytest.mark.parametrize("g, reg, pdim", [
        (cycle_core_graph(10, 3, 4), 3, 4),
        (complete_bipartite(4, 4), 3, 9),
    ], ids=["gnrp-10-3-4", "K44"])
    def test_table_guard_fires_before_any_rank(self, monkeypatch, g, reg, pdim):
        # the guard runs before the context is built, so no edge is packed
        # and no rank is taken: star(100000) needs q**2 basis elements in
        # cell (1, 2), and packing its edges alone ran out of memory
        built = []
        monkeypatch.setattr(betti, "_KoszulContext", lambda *args: built.append(args))
        with pytest.raises(SizeGuardExceededError):
            betti_table(g, reg, pdim)
        assert built == []

    @pytest.mark.parametrize("cell", [
        lambda g: koszul_homology_dim(g, 1, 2),
        lambda g: betti_table(g, 1, 1),
    ], ids=["koszul_homology_dim", "betti_table"])
    def test_domain_errors(self, cell):
        with pytest.raises(NotBipartiteError, match="not bipartite: odd cycle"):
            cell(cycle_graph(5))
        with pytest.raises(EmptyEdgeSetError, match="graph has no edges"):
            cell(Graph(3, ()))


class TestBettiTable:
    def test_c6(self):
        table = betti_table(cycle_graph(6), 2, 1)
        assert table.entries == {(0, 0): 1, (1, 3): 1}
        assert (table.i_max, table.j_max) == (1, 3)

    def test_c4(self):
        assert betti_table(cycle_graph(4), 1, 1).entries == {(0, 0): 1, (1, 2): 1}

    def test_k23(self):
        table = betti_table(complete_bipartite(2, 3), 1, 2)
        assert table.entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}

    @pytest.mark.parametrize("b", [3, 4, 5])
    def test_eagon_northcott(self, b):
        # K_{2,b}: the 2-minors of a 2 x b matrix, reg 1 and pdim b - 1
        expected = {(0, 0): 1}
        expected.update({(i, i + 1): i * comb(b, i + 1) for i in range(1, b)})
        assert betti_table(complete_bipartite(2, b), 1, b - 1).entries == expected

    def test_k33_segre(self):
        # q = 9: the Segre embedding of P2 x P2, as pinned by CI
        assert betti_table(complete_bipartite(3, 3), 2, 4).entries == {
            (0, 0): 1, (1, 2): 9, (2, 3): 16, (3, 4): 9, (4, 6): 1}

    def test_invariants_from_betti(self):
        assert invariants_from_betti(betti_table(cycle_graph(6), 2, 1)) == (2, 1)
        assert invariants_from_betti(betti_table(star(4), 0, 0)) == (0, 0)
        assert invariants_from_betti(betti_table(complete_bipartite(2, 3), 1, 2)) == (1, 2)

    def test_render(self):
        text = render_betti(betti_table(complete_bipartite(2, 3), 1, 2))
        lines = text.splitlines()
        assert lines[1].startswith("total:")
        assert "3" in text and "2" in text and "." in text

    def test_json(self):
        d = betti_to_json_dict(betti_table(cycle_graph(6), 2, 1))
        assert d == {"entries": [[0, 0, 1], [1, 3, 1]], "i_max": 1, "j_max": 3}

    @pytest.mark.parametrize("n, q", sorted(BETTI_DIGESTS))
    def test_tables_past_the_atlas_bound_are_pinned(self, n, q):
        digest = hashlib.sha256()
        graphs = [g for g in enumerate_connected_bipartite(n) if g.q == q]
        for g in graphs:
            t = invariant_tuple(g)
            digest.update((json.dumps(betti_to_json_dict(betti_table(g, t.reg, t.pdim))) + "\n").encode())
        assert len(graphs) == 85
        assert digest.hexdigest() == BETTI_DIGESTS[(n, q)]


class TestAgainstGroebnerRoute:
    def test_every_class_up_to_8(self):
        graphs = [g for n in range(2, 9) for g in enumerate_connected_bipartite(n) if g.q <= 8]
        assert len(graphs) == 115
        for g in graphs:
            t = invariant_tuple(g)
            ref = ReferenceKoszul(g)
            # every rank the table reads, not just the table: equal tables
            # could hide errors in two neighbouring ranks that cancel
            ctx = _KoszulContext(g, t.pdim + t.reg + 2)
            for i in range(t.pdim + 2):
                for j in range(i, i + t.reg + 2):
                    for k in (i, i + 1):
                        assert ctx.rank(k, j) == ref.rank(k, j), (g.edges, k, j)
            assert betti_table(g, t.reg, t.pdim).entries == reference_betti_entries(ref, t.reg, t.pdim), g.edges

    def test_no_groebner_basis(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the Betti oracle took the Groebner route")

        for module, name in [(betti, "edge_ring_gb"),
                             (hilbert, "buchberger"), (groebner, "buchberger"),
                             (groebner, "_nf_monomial"), (toric, "vertex_degree_vector")]:
            monkeypatch.setattr(module, name, refuse)
        assert betti_table(cycle_graph(6), 2, 1).entries == {(0, 0): 1, (1, 3): 1}
        assert koszul_homology_dim(complete_bipartite(2, 3), 2, 3) == 2


class TestOracleAgreement:
    def test_small_exhaustive(self):
        # single-source agreement on everything with at most 5 vertices,
        # plus a couple of named 6-vertex cases
        graphs = [g for n in range(2, 6) for g in enumerate_connected_bipartite(n)]
        graphs += [complete_bipartite(2, 4), cycle_graph(6)]
        for g in graphs:
            t = invariant_tuple(g)
            table = betti_table(g, t.reg, t.pdim)
            assert invariants_from_betti(table) == (t.reg, t.pdim), g.edges
            assert euler_numerator(table) == edge_ring_hilbert(g).numerator, g.edges
