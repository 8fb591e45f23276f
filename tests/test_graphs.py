import collections
import itertools
import random
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_code as reference_mod
import toricgraph.graphs as graphs_mod
from reference_code import reference_code
from toricgraph.graphs import (
    DisconnectedError,
    Graph,
    GraphFormatError,
    NotBipartiteError,
    SizeGuardExceededError,
    _code_form,
    _code_graph,
    _doubly_sorted,
    _doubly_sorted_forms,
    _form_code,
    _form_rows,
    _split_classes,
    biadjacency_connected,
    bipartition,
    canonical_form,
    complete_bipartite,
    complete_core_graph,
    cycle_core_graph,
    cycle_graph,
    enumerate_cycles,
    graph_to_json,
    is_connected,
    jackson_min_edges,
    matching_number,
    max_edges_for_reg,
    parse_graph,
    parse_graph_json,
    path_graph,
    realizing_graph,
    star,
)


@st.composite
def bipartite_graphs(draw, max_a=3, max_b=4):
    a = draw(st.integers(1, max_a))
    b = draw(st.integers(1, max_b))
    mask = draw(st.integers(1, 2 ** (a * b) - 1))
    edges = tuple(
        (i, a + j) for i in range(a) for j in range(b) if (mask >> (i * b + j)) & 1
    )
    return Graph(a + b, edges)


def rotated(g):
    """g with its edge list rotated by q // 2, as the atlas's second h run
    lists it: another degrevlex initial ideal, the same Hilbert series."""
    k = g.q // 2
    return Graph(g.n, g.edges[k:] + g.edges[:k])


@st.composite
def connected_bipartite_graphs(draw, max_a=5, max_b=5):
    # a monotone staircase of cells from (0, 0) to (a-1, b-1) meets every
    # row and every column, so it is a spanning tree of K_{a,b}
    a = draw(st.integers(1, max_a))
    b = draw(st.integers(1, max_b))
    mask = draw(st.integers(0, 2 ** (a * b) - 1)) | 1
    row = col = 0
    for down in draw(st.permutations([True] * (a - 1) + [False] * (b - 1))):
        row, col = (row + 1, col) if down else (row, col + 1)
        mask |= 1 << (row * b + col)
    edges = tuple(
        (i, a + j) for i in range(a) for j in range(b) if (mask >> (i * b + j)) & 1
    )
    return Graph(a + b, edges)


def brute_force_cycles(g):
    """Independent cycle oracle: try every vertex subset and every ordering."""
    out = set()
    for k in range(3, g.n + 1):
        for subset in itertools.combinations(range(g.n), k):
            s = subset[0]
            for perm in itertools.permutations(subset[1:]):
                if perm[0] > perm[-1]:
                    continue
                walk = (s,) + perm
                if all(
                    walk[(i + 1) % k] in g.neighbors[walk[i]] for i in range(k)
                ):
                    out.add(walk)
    return out


def wl_colors(neighbors, colors):
    """Reference refinement: iterated neighbourhood refinement on a whole
    graph, ranking every vertex by (colour, sorted neighbour colours) until
    the number of classes stops growing; ranks are isomorphism-invariant."""
    k = len(set(colors))
    while True:
        sig = [
            (colors[v], tuple(sorted(colors[w] for w in neighbors[v])))
            for v in range(len(colors))
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        colors = [rank[s] for s in sig]
        k2 = len(set(colors))
        if k2 == k:
            return colors
        k = k2


def full_scan_code(g):
    """Full scan for the reference code of a connected bipartite graph: the
    smallest row-major biadjacency code over every permutation of every
    refinement class, rows and columns alike, in both orientations for
    equal parts."""
    parts = bipartition(g)
    best = None
    for rows in (parts.part_a, parts.part_b):
        if 2 * len(rows) > g.n:
            continue
        row_set = set(rows)
        colors = wl_colors(g.neighbors, [0 if v in row_set else 1 for v in range(g.n)])
        classes = [[v for v in range(g.n) if colors[v] == c] for c in sorted(set(colors))]
        for perms in itertools.product(*map(itertools.permutations, classes)):
            order = [v for perm in perms for v in perm]
            bits = "".join(
                "1" if w in g.neighbors[u] else "0"
                for u in order if u in row_set
                for w in order if w not in row_set
            )
            code = bytes([1, g.n, len(rows)]) + int(bits, 2).to_bytes((len(bits) + 7) // 8, "big")
            if best is None or code < best:
                best = code
    return best


def brute_force_code(g):
    """The canonical code by its definition: the smallest doubly sorted
    arrangement of the biadjacency matrix, over every column permutation, in
    both orientations for equal parts.  For each column permutation the rows
    are sorted; rows that tie give the same matrix in any order, so this
    meets every row and column permutation whose result is doubly sorted."""
    parts = bipartition(g)
    best = None
    for row_part, col_part in ((parts.part_a, parts.part_b), (parts.part_b, parts.part_a)):
        a, b = len(row_part), len(col_part)
        if a > b:
            continue
        for perm in itertools.permutations(col_part):
            rows = sorted(sum(1 << j for j, w in enumerate(perm) if w in g.neighbors[u])
                          for u in row_part)
            cols = [sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(b)]
            if cols != sorted(cols):
                continue
            packed = sum(r << ((a - 1 - i) * b) for i, r in enumerate(rows))
            code = bytes([2, g.n, a]) + packed.to_bytes((a * b + 7) // 8, "big")
            if best is None or code < best:
                best = code
    return best


def candidates(n):
    """Every doubly sorted matrix the enumerator builds on n vertices, as
    (a, b, packed rows, Graph), rows 0..a-1 being part A."""
    for a in range(1, n // 2 + 1):
        b = n - a
        for packed in _doubly_sorted(a, b):
            rows = [(packed >> ((a - 1 - i) * b)) & ((1 << b) - 1) for i in range(a)]
            yield a, b, rows, Graph(n, tuple(
                (i, a + j) for i in range(a) for j in range(b) if (rows[i] >> j) & 1
            ))


def connected_candidates(n):
    """The connected graphs among the enumerator's candidates."""
    for _, _, _, g in candidates(n):
        if is_connected(g):
            yield g


def relabel(g, perm):
    return Graph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))


def brute_force_matching(g):
    best = 0
    for r in range(g.q, 0, -1):
        for sub in itertools.combinations(g.edges, r):
            used = [v for e in sub for v in e]
            if len(used) == len(set(used)):
                return r
    return best


class TestGraphType:
    def test_normalizes_and_validates(self):
        g = Graph(3, ((2, 0), (1, 2)))
        assert g.edges == ((0, 2), (1, 2))
        assert g.q == 2

    def test_rejects_loop(self):
        with pytest.raises(ValueError, match="loop"):
            Graph(2, ((1, 1),))

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(2, ((0, 1), (1, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 2),))


class TestParse:
    def test_single_edge(self):
        g = parse_graph("0 1")
        assert (g.n, g.q) == (2, 1)

    def test_four_cycle(self):
        g = parse_graph("0 1\n1 2\n2 3\n3 0\n")
        assert (g.n, g.q) == (4, 4)

    def test_comments_and_blanks(self):
        g = parse_graph("# a square\n0 1\n\n1 2  # chord next\n2 3\n3 0\n")
        assert (g.n, g.q) == (4, 4)

    def test_labels_compact_in_first_occurrence_order(self):
        g = parse_graph("5 7\n7 9\n")
        assert g.n == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="loop"):
            parse_graph("0 0")

    def test_duplicate_rejected(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            parse_graph("0 1\n1 0\n")

    def test_malformed_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_graph("0 1 2")
        with pytest.raises(GraphFormatError):
            parse_graph("a b")
        with pytest.raises(GraphFormatError):
            parse_graph("")

    def test_json_roundtrip(self):
        g = complete_bipartite(2, 3)
        assert parse_graph_json(graph_to_json(g)) == g

    def test_json_rejects_garbage(self):
        with pytest.raises(GraphFormatError):
            parse_graph_json("[1, 2]")
        with pytest.raises(GraphFormatError):
            parse_graph_json('{"n": 2, "edges": [[0, 0]]}')

    @pytest.mark.parametrize("text", [
        '{"n": 2.7, "edges": [[0.9, 1.2]]}',
        '{"n": 2, "edges": [[true, 0]]}',
        '{"n": "2", "edges": [["0", "1"]]}',
    ])
    def test_json_accepts_integers_only(self, text):
        # int() would truncate 0.9 to 0 and read true as 1
        with pytest.raises(GraphFormatError, match="JSON integer"):
            parse_graph_json(text)


class TestBipartition:
    def test_c4(self):
        parts = bipartition(cycle_graph(4))
        assert sorted(map(len, (parts.part_a, parts.part_b))) == [2, 2]

    def test_k23(self):
        parts = bipartition(complete_bipartite(2, 3))
        assert sorted(map(len, (parts.part_a, parts.part_b))) == [2, 3]

    def test_triangle_raises(self):
        with pytest.raises(NotBipartiteError):
            bipartition(cycle_graph(3))

    def test_every_edge_crosses(self):
        g = cycle_core_graph(8, 2, 3)
        parts = bipartition(g)
        a = set(parts.part_a)
        assert all((u in a) != (v in a) for u, v in g.edges)


class TestConnectivity:
    def test_path_connected(self):
        assert is_connected(path_graph(4))

    def test_two_disjoint_edges(self):
        assert not is_connected(Graph(4, ((0, 1), (2, 3))))

    def test_k33(self):
        assert is_connected(complete_bipartite(3, 3))

    def test_masks_agree_on_every_candidate(self):
        # the enumerator tests connectivity on the packed rows
        outcomes = collections.Counter()
        for n in range(2, 9):
            for a, b, rows, g in candidates(n):
                connected = is_connected(g)
                assert biadjacency_connected(b, rows) == connected
                outcomes[connected] += 1
        assert outcomes[False] > 0 and outcomes[True] > 0

    def test_single_vertex(self):
        assert is_connected(Graph(1, ()))


class TestEnumerateCycles:
    def test_tree_has_none(self):
        assert enumerate_cycles(star(5)) == ()
        assert enumerate_cycles(path_graph(5)) == ()

    def test_k23_matches_brute_force(self):
        g = complete_bipartite(2, 3)
        got = enumerate_cycles(g)
        assert len(got) == 3
        assert all(c.length == 4 for c in got)
        assert {c.vertices for c in got} == brute_force_cycles(g)

    def test_k45_closed_form_counts(self):
        # 2k-cycles of K_{a,b}: C(a,k) C(b,k) k! (k-1)! / 2
        g = complete_bipartite(4, 5)
        got = enumerate_cycles(g)
        by_len = {}
        for c in got:
            by_len[c.length] = by_len.get(c.length, 0) + 1
        expected = {
            2 * k: comb(4, k) * comb(5, k) * factorial(k) * factorial(k - 1) // 2
            for k in range(2, 5)
        }
        assert by_len == expected
        assert len(got) == 660

    def test_canonical_rooting(self):
        g = complete_bipartite(3, 3)
        for c in enumerate_cycles(g):
            assert c.vertices[0] == min(c.vertices)
            assert c.vertices[1] < c.vertices[-1]
            assert len(set(c.edge_indices)) == c.length

    def test_cycle_past_the_recursion_limit_is_a_size_guard(self):
        # the search recurses once per vertex
        with pytest.raises(SizeGuardExceededError, match="recursion limit"):
            enumerate_cycles(cycle_graph(1200))
        (c,) = enumerate_cycles(cycle_graph(500))
        assert c.length == 500

    @settings(max_examples=60, deadline=None)
    @given(bipartite_graphs())
    def test_bipartite_cycles_even_and_complete(self, g):
        got = enumerate_cycles(g)
        assert all(c.length % 2 == 0 for c in got)
        assert {c.vertices for c in got} == brute_force_cycles(g)


class TestMatching:
    def test_complete_bipartite(self):
        assert matching_number(complete_bipartite(2, 3)) == 2
        assert matching_number(complete_bipartite(4, 4)) == 4

    def test_cycle_and_path(self):
        assert matching_number(cycle_graph(6)) == 3
        assert matching_number(path_graph(4)) == 2

    def test_not_bipartite(self):
        with pytest.raises(NotBipartiteError):
            matching_number(cycle_graph(5))

    @settings(max_examples=60, deadline=None)
    @given(bipartite_graphs())
    def test_matches_brute_force_and_bound(self, g):
        mat = matching_number(g)
        assert mat == brute_force_matching(g)
        assert mat <= g.n // 2


class TestFamilies:
    def test_k22(self):
        g = complete_bipartite(2, 2)
        assert (g.n, g.q) == (4, 4)

    def test_c6(self):
        g = cycle_graph(6)
        assert (g.n, g.q) == (6, 6)
        assert g.edges[0] == (0, 1)

    def test_star4(self):
        g = star(4)
        assert (g.n, g.q) == (4, 3)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            complete_bipartite(0, 2)
        with pytest.raises(ValueError):
            cycle_graph(2)
        with pytest.raises(ValueError):
            star(1)


class TestWitnessConstructions:
    def test_figure_cases(self):
        g = cycle_core_graph(10, 3, 2)
        assert (g.n, g.q) == (10, 11)
        h = complete_core_graph(10, 3, 12)
        assert (h.n, h.q) == (10, 21)

    def test_degenerate_cases_are_c4(self):
        c4 = canonical_form(cycle_graph(4))
        assert canonical_form(cycle_core_graph(4, 1, 1)) == c4
        assert canonical_form(complete_core_graph(4, 1, 1)) == c4

    def test_cycle_core_contains_its_core_cycle(self):
        g = cycle_core_graph(10, 3, 2)
        lengths = {c.length for c in enumerate_cycles(g)}
        assert 8 in lengths  # the 2r+2 core

    def test_complete_core_contains_block(self):
        g = complete_core_graph(9, 2, 5)
        block = {(u, v) for u in range(3) for v in range(3, 6)}
        assert block <= set(g.edges)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_edge_count_connected_bipartite(self, n):
        for r in range(1, n // 2):
            for p in range(1, r * r + 1):
                g = cycle_core_graph(n, r, p)
                assert (g.n, g.q) == (n, n + p - 1)
                assert is_connected(g)
                bipartition(g)
            for p in range(r * r, r * (n - 2 - r) + 1):
                g = complete_core_graph(n, r, p)
                assert (g.n, g.q) == (n, n + p - 1)
                assert is_connected(g)
                bipartition(g)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cycle_core_graph(10, 3, 10)  # p > r^2
        with pytest.raises(ValueError):
            cycle_core_graph(10, 5, 1)  # r >= floor(n/2)
        with pytest.raises(ValueError):
            complete_core_graph(10, 3, 8)  # p < r^2
        with pytest.raises(ValueError):
            complete_core_graph(10, 3, 16)  # p > r(n-2-r)
        with pytest.raises(ValueError):
            cycle_core_graph(3, 1, 1)  # n < 4

    def test_realizing_graph(self):
        assert realizing_graph(0, 0).edges == ((0, 1),)
        assert canonical_form(realizing_graph(1, 1)) == canonical_form(cycle_graph(4))
        g = realizing_graph(2, 7)
        assert g.n == 11
        with pytest.raises(ValueError):
            realizing_graph(0, 1)
        with pytest.raises(ValueError):
            realizing_graph(3, 0)

    def test_guard_inequality(self):
        # r <= floor(n/2) - 1 forces n - 2 - 2r >= 0
        for n in range(2, 40):
            for r in range(0, n // 2):
                assert n - 2 - 2 * r >= 0


class TestBounds:
    def test_jackson_values(self):
        assert jackson_min_edges(2, 2, 3) == 4
        # both branches coincide at the overlap a = 2m-2
        assert jackson_min_edges(2, 2, 2) == 3
        assert jackson_min_edges(3, 4, 4) == 10

    def test_jackson_validation(self):
        with pytest.raises(ValueError):
            jackson_min_edges(1, 2, 2)
        with pytest.raises(ValueError):
            jackson_min_edges(3, 2, 4)

    def test_jackson_sound_exhaustively(self):
        # every bipartite graph with parts (a, b), a <= 3, b <= 4, and more
        # than the threshold many edges contains a cycle of length >= 2m
        for a in range(2, 4):
            for b in range(a, 5):
                for m in range(2, a + 1):
                    threshold = jackson_min_edges(m, a, b)
                    for mask in range(1 << (a * b)):
                        if bin(mask).count("1") <= threshold:
                            continue
                        edges = tuple(
                            (i, a + j)
                            for i in range(a)
                            for j in range(b)
                            if (mask >> (i * b + j)) & 1
                        )
                        g = Graph(a + b, edges)
                        longest = max(
                            (c.length for c in enumerate_cycles(g)), default=0
                        )
                        assert longest >= 2 * m, (m, a, b, edges)

    def test_max_edges_for_reg(self):
        assert max_edges_for_reg(0, 7) == 6  # trees
        assert max_edges_for_reg(3, 8) == 16  # K_{4,4}
        assert max_edges_for_reg(3, 10) == 24


class TestCanonicalForm:
    def test_relabelings_of_c6_agree(self):
        g = cycle_graph(6)
        code = canonical_form(g)
        for perm in itertools.islice(itertools.permutations(range(6)), 0, 720, 37):
            relabeled = Graph(6, tuple((perm[u], perm[v]) for u, v in g.edges))
            assert canonical_form(relabeled) == code

    def test_distinct_graphs_differ(self):
        assert canonical_form(cycle_graph(6)) != canonical_form(complete_bipartite(3, 3))
        assert canonical_form(path_graph(4)) != canonical_form(star(4))

    def test_k23_minus_any_edge_all_agree(self):
        g = complete_bipartite(2, 3)
        codes = set()
        for drop in range(g.q):
            edges = g.edges[:drop] + g.edges[drop + 1:]
            codes.add(canonical_form(Graph(5, edges)))
        assert len(codes) == 1

    def test_single_vertex(self):
        assert canonical_form(Graph(1, ())) == bytes([2, 1, 0])

    def test_odd_cycle_raises(self):
        with pytest.raises(NotBipartiteError):
            canonical_form(cycle_graph(5))

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedError):
            canonical_form(Graph(4, ((0, 1), (2, 3))))

    @settings(max_examples=40, deadline=None)
    @given(connected_bipartite_graphs(), st.randoms())
    def test_relabeling_invariance(self, g, rng):
        assert is_connected(g)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == canonical_form(g)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_full_scan(self, n):
        # the code against its definition by exhaustion, on the candidates
        # as generated and on a relabeled copy of each; and the reference's
        # row-only scan against every row and column arrangement
        rng = random.Random(n)
        for g in connected_candidates(n):
            perm = list(range(n))
            rng.shuffle(perm)
            expected = brute_force_code(g)
            assert canonical_form(g) == expected
            assert canonical_form(relabel(g, perm)) == expected
            assert reference_code(g) == full_scan_code(g)

    def test_c12_within_guard_and_invariant(self):
        # 6! row orders, and as many column orders: the guard reads both
        # sides, and the search places the rows and transposes each form
        g = cycle_graph(12)
        code = canonical_form(g)
        for seed in range(4):
            perm = list(range(12))
            random.Random(seed).shuffle(perm)
            assert canonical_form(relabel(g, perm)) == code
        assert code != canonical_form(path_graph(12))

    @pytest.mark.parametrize("m", [14, 16])
    def test_even_cycles_up_to_the_guard(self, m):
        # (m/2)! row orders: 5,040 and 40,320, inside _PERM_GUARD
        g = cycle_graph(m)
        perm = list(range(m))
        random.Random(m).shuffle(perm)
        assert canonical_form(relabel(g, perm)) == canonical_form(g)

    def test_c18_exceeds_the_guard_before_scanning(self, monkeypatch):
        # 9 distinct rows, so 9! = 362,880 row orders > _PERM_GUARD: no row
        # is placed.  The path P_18 has 9 distinct rows too.  With equal
        # parts the column orders count as well: in the last graph column j
        # meets the rows k with bit k of j + 1 set, row 0 taken six times,
        # so 9! / 6! = 504 row orders but 9 distinct columns
        assert factorial(9) > graphs_mod._PERM_GUARD >= factorial(8)
        distinct = [sum(1 << j for j in range(9) if (j + 1) >> k & 1) for k in range(4)]
        rows = distinct[:1] * 6 + distinct[1:]
        assert graphs_mod._row_orders(rows) == 504
        columns_distinct = Graph(18, tuple(
            (i, 9 + j) for i, r in enumerate(rows) for j in range(9) if r >> j & 1))
        placed = []
        monkeypatch.setattr(graphs_mod, "_place_rows", lambda *args: placed.append(args))
        for g in (cycle_graph(18), path_graph(18), columns_distinct):
            with pytest.raises(SizeGuardExceededError, match="row orders"):
                canonical_form(g)
        assert placed == []

    @pytest.mark.parametrize("a", range(1, 6))
    def test_transposing_maps_the_square_candidates_onto_themselves(self, a):
        # the fact the square forms search rests on: the transpose of a
        # doubly sorted a x a matrix is doubly sorted, entry (i, j) of a
        # form being bit j of row i, and row i at bit (a - 1 - i) * a
        def transpose(form):
            return sum(1 << ((a - 1 - j) * a + i) for i in range(a) for j in range(a)
                       if form >> ((a - 1 - i) * a + j) & 1)

        held = set(_doubly_sorted(a, a))
        assert {transpose(form) for form in held} == held
        assert all(transpose(transpose(form)) == form for form in held)
        assert all(graphs_mod._transpose(a, form) == transpose(form) for form in held)

    def test_one_side_and_its_transposes_list_both_sides_at_5_plus_5(self):
        # on every class of the 5 + 5 split, from its form and from that
        # form with its columns reversed, the forms are those of a search
        # that places the rows and, apart, the columns
        full = (1 << 5) - 1
        count = 0
        for code in _split_classes(5, 5):
            form_rows = _form_rows(5, 5, _code_form(code))
            for rows in (form_rows, [int(format(r, "05b")[::-1], 2) for r in form_rows]):
                cols = [sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(5)]
                both = set()
                for side in (rows, cols):
                    graphs_mod._place_rows(both, sorted(side), [(0, full, 5)], full, 0, 0, 5)
                assert _doubly_sorted_forms(5, 5, rows) == both
            count += 1
        assert count == 1897

    def test_a_square_graph_is_searched_once_on_its_side_with_fewer_orders(self, monkeypatch):
        # the rows 0011, 0111, 1011, 1111 are distinct, 4! orders; the
        # columns 1111, 1111, 1010, 1100 have 4! / 2! orders, so the search
        # places the columns, once, and so it does for the transposed graph
        rows = [0b0011, 0b0111, 0b1011, 0b1111]
        cols = [0b1111, 0b1111, 0b1010, 0b1100]
        assert (graphs_mod._row_orders(rows), graphs_mod._row_orders(cols)) == (24, 12)
        top = []
        real = graphs_mod._place_rows

        def spy(out, left, runs, bound, packed, shift, b):
            if shift == 0:
                top.append(left)
            real(out, left, runs, bound, packed, shift, b)

        monkeypatch.setattr(graphs_mod, "_place_rows", spy)
        g, transposed = (Graph(8, tuple((i, 4 + j) for i, r in enumerate(side)
                                        for j in range(4) if r >> j & 1))
                         for side in (rows, cols))
        assert canonical_form(g) == canonical_form(transposed)
        assert top == [sorted(cols)] * 2

    @pytest.mark.parametrize("g", [cycle_graph(6), complete_bipartite(3, 3)], ids=["C6", "K33"])
    def test_refines_once_for_both_orientations(self, g, monkeypatch):
        # the reference code refines once and serves both orientations
        calls = []
        real = reference_mod._refine

        def spy(rows, cols):
            calls.append(rows)
            return real(rows, cols)

        monkeypatch.setattr(reference_mod, "_refine", spy)
        reference_code(g)
        assert len(calls) == 1

    @pytest.mark.parametrize("n", range(2, 9))
    def test_refinement_matches_reference(self, n):
        # the reference code's ordered classes, rows and columns, against
        # the whole-graph reference refinement from the part colouring
        for a, b, rows, g in candidates(n):
            if not is_connected(g):
                continue
            cols = [sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(b)]
            colors = wl_colors(g.neighbors, [0] * a + [1] * b)
            classes = [[v for v in range(n) if colors[v] == c] for c in sorted(set(colors))]
            row_classes, col_classes = reference_mod._refine(rows, cols)
            assert row_classes == [m for m in classes if m[0] < a]
            assert col_classes == [[v - a for v in m] for m in classes if m[0] >= a]

    @pytest.mark.parametrize("n", range(2, 10))
    def test_kernel_matches_canonical_form_of_a_relabeling(self, n):
        # the enumerator's packed rows and the Graph path give one code
        rng = random.Random(n)
        for a, b, rows, g in candidates(n):
            if not is_connected(g):
                continue
            perm = list(range(n))
            rng.shuffle(perm)
            code = _form_code(a, b, min(_doubly_sorted_forms(a, b, rows)))
            assert code == canonical_form(relabel(g, perm))

    @pytest.mark.parametrize("n", range(2, 10))
    def test_codes_induce_the_reference_classes(self, n):
        # on every connected candidate, equal codes iff equal reference codes
        to_reference, from_reference = {}, {}
        for g in connected_candidates(n):
            code, ref = canonical_form(g), reference_code(g)
            assert to_reference.setdefault(code, ref) == ref
            assert from_reference.setdefault(ref, code) == code

    def test_the_one_vertex_code_decodes(self):
        g = Graph(1, ())
        assert _code_graph(canonical_form(g)) == g

    def test_a_form_wider_than_64_bits_raises_before_any_candidate(self, monkeypatch):
        # a candidate is one array('Q') item: 1 x 64 is the widest split
        # stored, 8 x 9, the widest split of n = 17, is refused
        assert list(_doubly_sorted(1, 64)) == [(1 << 64) - 1]
        built = []
        monkeypatch.setattr(graphs_mod, "_extend_rows", lambda *args: built.append(args))
        for a, b in ((8, 9), (1, 65)):
            with pytest.raises(SizeGuardExceededError, match=f"{a * b} bits"):
                _doubly_sorted(a, b)
        assert built == []

    def test_more_than_255_vertices_raise_before_placing(self, monkeypatch):
        # the code header stores n in one byte; that check comes before the
        # guard on row orders, which path_graph(300) would also fail
        assert canonical_form(star(255))[:3] == bytes([2, 255, 1])
        placed = []
        monkeypatch.setattr(graphs_mod, "_place_rows", lambda *args: placed.append(args))
        for g in (star(300), path_graph(300)):
            with pytest.raises(SizeGuardExceededError, match="exceeds 255"):
                canonical_form(g)
        assert placed == []

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_either_start_lists_each_part_alike(self, n):
        # the invariant that lets the reference code's one refinement serve
        # both orientations: each part's classes, in order, do not depend on
        # which part starts as 0
        half = n // 2
        for g in connected_candidates(n):
            if bipartition(g).part_a != tuple(range(half)):
                continue
            runs = []
            for start in ([0] * half + [1] * half, [1] * half + [0] * half):
                colors = wl_colors(g.neighbors, start)
                classes = [[v for v in range(n) if colors[v] == c] for c in sorted(set(colors))]
                runs.append(([m for m in classes if m[0] < half],
                             [m for m in classes if m[0] >= half]))
            assert runs[0] == runs[1]

    def test_large_twin_column_class_fits_the_guard(self):
        # 4 rows, and 12 columns: each 2-subset of the rows twice.  4! row
        # orders, while the column orders exceed _PERM_GUARD even with twin
        # columns merged (12!/2^6)
        pairs = list(itertools.combinations(range(4), 2)) * 2
        g = Graph(16, tuple((u, 4 + j) for j, pair in enumerate(pairs) for u in pair))
        perm = list(range(16))
        random.Random(16).shuffle(perm)
        code = canonical_form(g)
        assert code[:3] == bytes([2, 16, 4])
        assert canonical_form(relabel(g, perm)) == code

    def test_large_twin_classes_stay_cheap(self):
        # the smaller part of star(10) is its center: one row order, not 9!
        code = canonical_form(star(10))
        shifted = Graph(10, tuple((9, k) for k in range(9)))
        assert canonical_form(shifted) == code
        assert canonical_form(complete_bipartite(5, 5)) != code
        # K_{9,9} has 9 equal rows: one row order, however many vertices
        assert canonical_form(complete_bipartite(9, 9)) == (
            bytes([2, 18, 9]) + (2 ** 81 - 1).to_bytes(11, "big"))
