import hashlib
import itertools
import json
import math
import tracemalloc
import warnings

import pytest

import toricgraph.atlas as atlas_mod
import toricgraph.graphs as graphs_mod
from reference_code import biadjacency_code, reference_code
from toricgraph.atlas import (
    CACHE_ENV,
    _enumerate_with_codes,
    _record_from_json_dict,
    analyze_graph,
    cache_load,
    cache_store,
    cardinality_formula,
    enumerate_connected_bipartite,
    property_sweep,
    record_to_json_dict,
    report_to_json_dict,
    sweep,
    theoretical_pairs,
    verify,
)
from toricgraph.betti import _KoszulContext
from toricgraph.graphs import (
    Graph,
    NotBipartiteError,
    SizeGuardExceededError,
    _code_graph,
    _doubly_sorted,
    _doubly_sorted_forms,
    _form_code,
    _split_classes,
    biadjacency_connected,
    bipartition,
    canonical_form,
    complete_bipartite,
    complete_core_graph,
    cycle_core_graph,
    cycle_graph,
    is_connected,
    matching_number,
    path_graph,
    star,
)
from toricgraph.hilbert import HilbertData, invariant_tuple, poly_mul

KNOWN_CLASS_COUNTS = {2: 1, 3: 1, 4: 3, 5: 5, 6: 17, 7: 44}

# sha256 over "<reference code hex> <edges>\n" per class, in enumeration
# order: the reference code (tests/reference_code.py) names the classes
# independently, and the order is the CLI's output
ENUMERATION_DIGESTS = {
    8: "6b0ed7704fc6ffdb6c4d82667067d2d583fd6b767ddcf3a3e1615e9df921480c",
    9: "8292105089124140084ab010820afc6cc345102e94feff38e01e3fdb51aa095e",
    10: "a4a63b1b74f5dd3cc5d378e7008b0f634f52a539278899dc8ff8736c1536635e",
}

# sha256 over "<canonical code hex> <edges>\n" per class, in enumeration
# order: the codes key the JSONL cache
CODE_DIGESTS = {
    8: "cc165186d952d6dcd22f6fa0d4ca7002a39eed3220f3db000cf5cc300d979846",
    9: "292e78c10d482ebae40bcb8d960b496e42e62213aa514285ca83ce8e73beff1c",
    10: "bc3816f1a24a659e3e5007a2d74f59a4fb211c301c8f63d04f3e71b98e8757c0",
}

# sha256 over the JSON cache lines of sweep(n), "seconds" dropped and each
# code replaced by the reference code of its class, in reference-code order:
# pins every record field the pipeline computes
RECORD_DIGESTS = {
    8: "42109415b789514731b4bf74070622707efa48f6c374df99bf05b4815192e9aa",
    9: "7f3d28524438820c87c9bce12848b12a36db41ddd45100f82d0b9dd62f940209",
}


def filtered_rows(a, b):
    """Reference generator: every sorted multiset of a nonzero b-bit rows,
    kept when the rows cover all b columns and the columns are sorted."""
    full = (1 << b) - 1
    out = []
    for rows in itertools.combinations_with_replacement(range(1, 1 << b), a):
        acc = 0
        for r in rows:
            acc |= r
        if acc != full:
            continue
        cols = [sum(((rows[i] >> j) & 1) << i for i in range(a)) for j in range(b)]
        if all(cols[j] <= cols[j + 1] for j in range(b - 1)):
            out.append(rows)
    return out


def unpack_rows(packed, a, b):
    return tuple((packed >> ((a - 1 - i) * b)) & ((1 << b) - 1) for i in range(a))


def coded_edges(n):
    """(code, edges of its decoded graph) for every class on n vertices."""
    return [(code, _code_graph(code).edges) for code in _enumerate_with_codes(n)]


def reference_split_classes(n):
    """The enumeration that codes every connected doubly sorted candidate
    with the reference code: (a, b, reference code, members) per class in
    order of first occurrence, members being the packed candidates of split
    (a, b) with that code."""
    classes = {}
    for a in range(1, n // 2 + 1):
        b = n - a
        for packed in _doubly_sorted(a, b):
            rows = list(unpack_rows(packed, a, b))
            if biadjacency_connected(b, rows):
                code = biadjacency_code(a, b, rows)
                classes.setdefault(code, (a, b, code, []))[3].append(packed)
    return list(classes.values())


def brute_isomorphic(g, h):
    if g.n != h.n or g.q != h.q:
        return False
    degs = lambda x: sorted(len(x.neighbors[v]) for v in range(x.n))
    if degs(g) != degs(h):
        return False
    target = set(h.edges)
    for perm in itertools.permutations(range(g.n)):
        if all(
            ((perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])) in target
            for u, v in g.edges
        ):
            return True
    return False


def labeled_class_count(n):
    """Independent oracle: enumerate all labeled graphs, filter connected
    bipartite, and deduplicate by brute-force isomorphism search."""
    all_edges = list(itertools.combinations(range(n), 2))
    buckets = {}
    for mask in range(1 << len(all_edges)):
        if bin(mask).count("1") < n - 1:
            continue
        edges = tuple(e for i, e in enumerate(all_edges) if (mask >> i) & 1)
        g = Graph(n, edges)
        if not is_connected(g):
            continue
        try:
            bipartition(g)
        except NotBipartiteError:
            continue
        key = (g.q, tuple(sorted(len(g.neighbors[v]) for v in range(n))))
        bucket = buckets.setdefault(key, [])
        if not any(brute_isomorphic(g, h) for h in bucket):
            bucket.append(g)
    return sum(len(b) for b in buckets.values())


class TestEnumeration:
    @pytest.mark.parametrize("n,count", sorted(KNOWN_CLASS_COUNTS.items()))
    def test_class_counts(self, n, count):
        graphs = list(enumerate_connected_bipartite(n))
        assert len(graphs) == count
        codes = {canonical_form(g) for g in graphs}
        assert len(codes) == count  # pairwise non-isomorphic
        for g in graphs:
            assert g.n == n and is_connected(g)
            bipartition(g)  # raises NotBipartiteError on an odd cycle

    def test_builds_a_graph_only_per_class(self, monkeypatch):
        # candidates stay packed rows: no Graph, bipartition or connectivity
        # search for the 539 connected candidates on 8 vertices, and one
        # forms search per class
        built, calls, searches = [], [], []
        real_post_init = Graph.__post_init__

        def counting_post_init(g):
            built.append(g.n)
            real_post_init(g)

        monkeypatch.setattr(Graph, "__post_init__", counting_post_init)
        monkeypatch.setattr(graphs_mod, "_doubly_sorted_forms",
                            lambda *args: searches.append(args) or _doubly_sorted_forms(*args))
        for mod, name in ((graphs_mod, "bipartition"), (graphs_mod, "is_connected"),
                          (atlas_mod, "is_connected")):
            monkeypatch.setattr(mod, name, lambda *args, name=name: calls.append(name))
        assert len(list(enumerate_connected_bipartite(8))) == 182
        assert len(built) == 182
        assert len(searches) == 182
        assert calls == []

    @pytest.mark.parametrize("n", range(2, 10))
    def test_skipping_forms_matches_coding_every_candidate(self, n):
        classes = reference_split_classes(n)
        expected = []
        for a, b, _, members in classes:
            rows = unpack_rows(min(members), a, b)  # the yielded form, and its code
            expected.append((_form_code(a, b, min(members)), tuple(
                (i, a + j) for i in range(a) for j in range(b) if (rows[i] >> j) & 1)))
            # from any member, also with its columns reversed, the search
            # lists exactly the class's candidates; so in each split every
            # pending form is met once and the pending set ends empty
            for packed in members:
                rows = unpack_rows(packed, a, b)
                flipped = [int(format(r, f"0{b}b")[::-1], 2) for r in rows]
                assert _doubly_sorted_forms(a, b, rows) == set(members)
                assert _doubly_sorted_forms(a, b, flipped) == set(members)
        assert coded_edges(n) == expected

    @pytest.mark.parametrize("n", range(2, 9))
    def test_a_form_the_search_misses_yields_no_class_twice(self, n, monkeypatch):
        # the search drops the largest form of every class with more than
        # one, so each is met later as a connected candidate of its own
        expected = coded_edges(n)
        searches, dropped = [], set()

        def missing_largest(a, b, rows):
            searches.append(rows)
            forms = _doubly_sorted_forms(a, b, rows)
            if len(forms) > 1:
                dropped.add(max(forms))
                forms.discard(max(forms))
            return forms

        monkeypatch.setattr(graphs_mod, "_doubly_sorted_forms", missing_largest)
        assert coded_edges(n) == expected
        # every dropped form was met and searched, on top of one search per class
        assert len(searches) == len(expected) + len(dropped)
        assert bool(dropped) == (n >= 6)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_a_listed_value_that_is_no_candidate_marks_nothing(self, n, monkeypatch):
        # the search also lists, for every class, a value strictly between
        # two candidates of its split; the candidate above it must still
        # be met as itself
        expected = coded_edges(n)
        held = {(a, n - a): set(_doubly_sorted(a, n - a)) for a in range(1, n // 2 + 1)}
        strays = []

        def with_a_stray(a, b, rows):
            forms = _doubly_sorted_forms(a, b, rows)
            stray = min(forms) + 1
            while stray in held[a, b]:
                stray += 1
            if stray < max(held[a, b]):
                strays.append(stray)
                forms.add(stray)
            return forms

        monkeypatch.setattr(graphs_mod, "_doubly_sorted_forms", with_a_stray)
        assert coded_edges(n) == expected
        assert bool(strays) == (n >= 4)

    def test_a_split_is_listed_in_bounded_memory(self):
        # 19,286 candidates at 5 + 5, held as 8 bytes and one "met" byte
        # each: no list or set of Python ints as large as the split
        tracemalloc.start()
        try:
            count = sum(1 for _ in _split_classes(5, 5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 1897
        assert peak < 1 << 20

    @pytest.mark.parametrize("n", range(2, 10))
    def test_the_decoder_inverts_the_code(self, n):
        for code, g in zip(_enumerate_with_codes(n), enumerate_connected_bipartite(n)):
            a, b = code[2], n - code[2]
            rows = unpack_rows(int.from_bytes(code[3:], "big"), a, b)
            assert code[:2] == bytes([2, n])
            assert _code_graph(code).edges == g.edges == tuple(
                (i, a + j) for i in range(a) for j in range(b) if (rows[i] >> j) & 1)
            assert canonical_form(g) == code

    @pytest.mark.parametrize("n", range(2, 11))
    def test_classes_come_in_code_order(self, n):
        codes = list(_enumerate_with_codes(n))
        assert all(x < y for x, y in zip(codes, codes[1:]))
        hexes = [code.hex() for code in codes]
        assert all(x < y for x, y in zip(hexes, hexes[1:]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_against_labeled_oracle(self, n):
        assert KNOWN_CLASS_COUNTS[n] == labeled_class_count(n)

    def test_n4_is_path_star_square(self):
        got = {canonical_form(g) for g in enumerate_connected_bipartite(4)}
        expected = {canonical_form(path_graph(4)), canonical_form(star(4)),
                    canonical_form(cycle_graph(4))}
        assert got == expected

    def test_guard(self):
        with pytest.raises(SizeGuardExceededError):
            list(enumerate_connected_bipartite(11))
        with pytest.raises(SizeGuardExceededError):
            list(enumerate_connected_bipartite(1))

    def test_guard_boundary_n10_count(self):
        # slowest test here; n=10 is the documented guard boundary, its class
        # count is independently known, and its pair set has 51 pairs
        report = verify(10, use_cache=False)
        assert report.class_count == 4032
        assert set(report.computed) == theoretical_pairs(10)
        assert len(report.computed) == 51
        assert report.equal and report.counterexamples == ()

    @pytest.mark.parametrize("n", range(2, 10))
    def test_generation_matches_filter(self, n):
        for a in range(1, n // 2 + 1):
            b = n - a
            got = [unpack_rows(p, a, b) for p in _doubly_sorted(a, b)]
            assert got == filtered_rows(a, b), (a, b)

    @pytest.mark.parametrize("n", sorted(ENUMERATION_DIGESTS))
    def test_enumeration_order_is_pinned(self, n):
        digest = hashlib.sha256()
        for g in enumerate_connected_bipartite(n):
            line = reference_code(g).hex() + " " + " ".join(f"{u}-{v}" for u, v in g.edges)
            digest.update((line + "\n").encode())
        assert digest.hexdigest() == ENUMERATION_DIGESTS[n]

    @pytest.mark.parametrize("n", sorted(CODE_DIGESTS))
    def test_codes_are_pinned(self, n):
        digest = hashlib.sha256()
        for code, edges in coded_edges(n):
            line = code.hex() + " " + " ".join(f"{u}-{v}" for u, v in edges)
            digest.update((line + "\n").encode())
        assert digest.hexdigest() == CODE_DIGESTS[n]

    def test_doubly_sorted_representative_exists(self):
        # validates the doubly sorted matrices the enumerator generates:
        # iterating row-sort and column-sort reaches a matrix sorted both ways
        for a, b in ((2, 2), (2, 3), (3, 3)):
            for mask in range(1 << (a * b)):
                rows = [
                    sum(((mask >> (i * b + j)) & 1) << j for j in range(b))
                    for i in range(a)
                ]
                for _ in range(64):
                    rows = sorted(rows)
                    cols = [
                        sum(((rows[i] >> j) & 1) << i for i in range(a))
                        for j in range(b)
                    ]
                    if all(cols[j] <= cols[j + 1] for j in range(b - 1)):
                        break
                    cols = sorted(cols)
                    rows = [
                        sum(((cols[j] >> i) & 1) << j for j in range(b))
                        for i in range(a)
                    ]
                else:
                    pytest.fail(f"no doubly sorted representative for {a}x{b} mask {mask}")


class TestPairSets:
    def test_theoretical_examples(self):
        assert theoretical_pairs(2) == {(0, 0)}
        assert theoretical_pairs(4) == {(0, 0), (1, 1)}
        pairs8 = theoretical_pairs(8)
        assert len(pairs8) == 23 and max(pairs8) == (3, 9)
        pairs9 = theoretical_pairs(9)
        assert len(pairs9) == 29 and max(pairs9) == (3, 12)

    def test_computed_small(self):
        assert verify(4, use_cache=False).computed == ((0, 0), (1, 1))
        assert verify(5, use_cache=False).computed == ((0, 0), (1, 1), (1, 2))

    def test_computed_n6_includes_k33_pair(self):
        assert (2, 4) in verify(6, use_cache=False).computed

    def test_cardinality_formula(self):
        assert cardinality_formula(2) == 1
        assert cardinality_formula(8) == 23
        assert cardinality_formula(9) == 29

    @pytest.mark.parametrize("n", range(2, 10))
    def test_each_witness_class_is_in_the_atlas_under_its_pair(self, n):
        # the paper's witness for (r, p): the chorded cycle core for
        # p <= r^2, the complete core otherwise
        codes = {}
        for _, rec, _ in sweep(n, use_cache=False):
            codes.setdefault((rec.reg, rec.pdim), set()).add(rec.code)
        witnessed = 0
        for r, p in sorted(theoretical_pairs(n)):
            if r == 0:
                continue
            build = cycle_core_graph if p <= r * r else complete_core_graph
            assert canonical_form(build(n, r, p)).hex() in codes[(r, p)], (n, r, p)
            witnessed += 1
        assert witnessed == cardinality_formula(n) - 1

    def test_formula_equals_direct_sum_up_to_100(self):
        for n in range(2, 101):
            direct = 1 + sum(r * (n - 2 - r) for r in range(1, n // 2))
            assert cardinality_formula(n) == direct
            assert cardinality_formula(n) == len(theoretical_pairs(n))


class TestPropertySweep:
    def test_c6_all_pass(self):
        g = cycle_graph(6)
        assert all(ok for _, ok in property_sweep(g, invariant_tuple(g), matching_number(g)))

    def test_k44_edge_bound_tight(self):
        g = complete_bipartite(4, 4)
        t = invariant_tuple(g)
        assert t.reg == 3 and g.q == (t.reg + 1) * (g.n - t.reg - 1)
        assert all(ok for _, ok in property_sweep(g, t, matching_number(g)))

    def test_tree_forest_equivalence(self):
        g = star(6)
        checks = dict(property_sweep(g, invariant_tuple(g), matching_number(g)))
        assert checks["forest_iff_reg0_iff_pdim0"]

    def test_wrong_tuple_fails(self):
        from toricgraph.hilbert import InvariantTuple

        g = cycle_graph(6)
        bogus = InvariantTuple(4, 4, 1, 5, 5)
        checks = dict(property_sweep(g, bogus, matching_number(g)))
        assert not checks["reg_below_half_n"]


class TestVerify:
    def test_n4(self):
        report = verify(4, use_cache=False)
        assert report.equal and report.class_count == 3
        assert report.counterexamples == ()
        assert len(report.computed) == 2
        assert all(v == 3 for v in report.property_passes.values())

    def test_n6_with_betti_oracle(self):
        report = verify(6, use_cache=False, with_betti_oracle=True)
        assert report.equal and report.class_count == 17
        assert report.counterexamples == ()
        assert report.property_passes["betti_oracle_agrees"] > 0

    @staticmethod
    def _tamper_c6(tmp_path, monkeypatch, **fields):
        """Sweep n=6 into a cache at tmp_path, overwrite fields of the stored
        C_6 record, and return the C_6 code and its enumerated graph."""
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        rows = list(sweep(6))
        c6 = canonical_form(cycle_graph(6)).hex()
        (g,) = [g for g, rec, _ in rows if rec.code == c6]
        path = tmp_path / "atlas-n6.jsonl"
        lines = []
        for line in path.read_text(encoding="utf-8").splitlines():
            d = json.loads(line)
            if d["code"] == c6:
                assert d["h"] == d["h_rot"] == [1, 1, 1]
                d.update(fields)
            lines.append(json.dumps(d))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return c6, g

    # the tampered cache is on disk, so with jobs=2 the workers see it too
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_betti_check_reads_the_stored_record(self, tmp_path, monkeypatch, jobs):
        c6, g = self._tamper_c6(tmp_path, monkeypatch, h=[1, 2, 1], h_rot=[1, 2, 1])
        report = verify(6, jobs=jobs, with_betti_oracle=True)
        assert report.counterexamples == (
            f"betti_euler_matches_numerator: n=6 code={c6} edges={g.edges}",
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_betti_table_outside_the_record_bounds_reaches_the_report(
        self, tmp_path, monkeypatch, jobs
    ):
        # the true C_6 table has beta_{1,3} = 1, outside reg = 1
        c6, g = self._tamper_c6(tmp_path, monkeypatch, reg=1, deg_h=1, h=[1, 1], h_rot=[1, 1])
        report = verify(6, jobs=jobs, with_betti_oracle=True)
        assert report.counterexamples == (
            f"betti_oracle_agrees: n=6 code={c6} edges={g.edges}",
            "pair sets differ: missing=[(2, 1)] extra=[]",
            "pair count 7 != formula 8",
        )

    def test_a_serial_sweep_builds_three_graphs_per_class(self, monkeypatch):
        # the task decodes its class for the analysis and the Betti table,
        # analyze_graph builds the rotated graph, and the sweep decodes the
        # class again to yield it; the oracle flag reads the code alone
        built = []
        real_post_init = Graph.__post_init__

        def counting_post_init(g):
            built.append(g.n)
            real_post_init(g)

        monkeypatch.setattr(Graph, "__post_init__", counting_post_init)
        reports = [verify(n, with_betti_oracle=True, use_cache=False) for n in range(2, 10)]
        assert all(r.equal and r.counterexamples == () for r in reports)
        assert sum(r.class_count for r in reports) == 983
        assert len(built) == 2949

    @pytest.mark.parametrize("n", [6, 7])
    def test_pool_report_matches_serial(self, n):
        serial, pooled = (
            report_to_json_dict(verify(n, jobs=jobs, with_betti_oracle=True, use_cache=False))
            for jobs in (1, 2)
        )
        assert pooled == serial

    @pytest.mark.parametrize("jobs, parent_calls", [(1, 16), (2, 0)])
    def test_betti_oracle_runs_in_the_workers(self, monkeypatch, jobs, parent_calls):
        # one table per class with q <= 8 (16 of the 17 at n = 6); with jobs=2
        # the workers compute them all and the parent none
        import toricgraph.atlas as atlas_mod

        real = atlas_mod.betti_table
        calls = []

        def counting(g, reg, pdim):
            calls.append(g)
            return real(g, reg, pdim)

        monkeypatch.setattr(atlas_mod, "betti_table", counting)
        report = verify(6, jobs=jobs, with_betti_oracle=True, use_cache=False)
        assert report.counterexamples == ()
        assert len(calls) == parent_calls

    @staticmethod
    def _count_pools(monkeypatch, events):
        """Make atlas.Pool append "pool of <jobs>" to events when a pool
        opens and "imap" when its imap is called."""
        real = atlas_mod.Pool

        def counting(jobs):
            events.append(f"pool of {jobs}")
            pool = real(jobs)
            real_imap = pool.imap

            def imap(*args, **kwargs):
                events.append("imap")
                return real_imap(*args, **kwargs)

            pool.imap = imap
            return pool

        monkeypatch.setattr(atlas_mod, "Pool", counting)

    def test_one_pool_per_sweep_warm_or_cold(self, monkeypatch, tmp_path):
        events = []
        self._count_pools(monkeypatch, events)
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        cold = verify(6, jobs=2, with_betti_oracle=True)
        # each class's record and verdicts come back from one task
        assert events == ["pool of 2", "imap"]
        # warm and without the oracle each task returns at once, and still
        # one pool: the workers, forked with the spy in place, analyze nothing
        path = tmp_path / "atlas-n6.jsonl"
        before = path.read_bytes()
        real_analyze = atlas_mod.analyze_graph
        marks = tmp_path / "analyzed"

        def marking(g, code):
            with open(marks, "a", encoding="utf-8") as fh:
                fh.write(code.hex() + "\n")
            return real_analyze(g, code)

        monkeypatch.setattr(atlas_mod, "analyze_graph", marking)
        report = verify(6, jobs=2)
        assert events == ["pool of 2", "imap"] * 2
        assert report.equal and report.counterexamples == ()
        assert not marks.exists()
        assert path.read_bytes() == before
        # warm, the classes with q <= 8 go to the pool for their verdicts alone
        warm = verify(6, jobs=2, with_betti_oracle=True)
        assert events == ["pool of 2", "imap"] * 3
        assert not marks.exists()
        assert path.read_bytes() == before
        assert warm == cold and cold.counterexamples == ()
        analyzed = []

        def spy(g, code):
            analyzed.append(g)
            return real_analyze(g, code)

        monkeypatch.setattr(atlas_mod, "analyze_graph", spy)
        judged = [verdicts for _, _, verdicts in sweep(6, with_betti_oracle=True) if verdicts]
        assert analyzed == [] and len(judged) == 16
        assert path.read_bytes() == before

    def test_the_pool_opens_before_the_cache_is_read_and_the_classes_enumerated(
        self, monkeypatch, tmp_path
    ):
        events = []
        self._count_pools(monkeypatch, events)
        real_load, real_enumerate = atlas_mod.cache_load, atlas_mod._enumerate_with_codes

        def loading(n):
            events.append("cache_load")
            return real_load(n)

        def enumerating(n, force=False):
            for item in real_enumerate(n, force):
                events.append("class")
                yield item

        monkeypatch.setattr(atlas_mod, "cache_load", loading)
        monkeypatch.setattr(atlas_mod, "_enumerate_with_codes", enumerating)
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        report = verify(6, jobs=2)
        assert report.equal and report.counterexamples == ()
        # one pass: imap takes the classes as they are enumerated
        assert events == ["pool of 2", "cache_load", "imap", *["class"] * KNOWN_CLASS_COUNTS[6]]

    def test_a_serial_sweep_enumerates_only_as_far_as_it_has_yielded(self, monkeypatch):
        real_enumerate = atlas_mod._enumerate_with_codes
        enumerated = []

        def enumerating(n, force=False):
            for code in real_enumerate(n, force):
                enumerated.append(code)
                yield code

        monkeypatch.setattr(atlas_mod, "_enumerate_with_codes", enumerating)
        rows = sweep(8, use_cache=False)
        _, rec, _ = next(rows)
        assert len(enumerated) == 1 and rec.code == enumerated[0].hex()
        rows.close()

    def test_a_refused_n_starts_no_worker(self, monkeypatch):
        events = []
        self._count_pools(monkeypatch, events)
        with pytest.raises(SizeGuardExceededError, match="exceeds the guard"):
            verify(11, jobs=2)
        # forced, n = 17 still splits as 8 + 9, wider than a stored candidate
        with pytest.raises(SizeGuardExceededError, match="72 bits"):
            verify(17, jobs=2, force=True)
        assert events == []

    def test_serial_verify_checks_each_class_before_analyzing_the_next(self, monkeypatch):
        real_analyze, real_check = atlas_mod.analyze_graph, atlas_mod.property_sweep
        events = []

        def analyzing(g, code):
            events.append(("analyze", g.edges))
            return real_analyze(g, code)

        def checking(g, t, mat):
            events.append(("check", g.edges))
            return real_check(g, t, mat)

        monkeypatch.setattr(atlas_mod, "analyze_graph", analyzing)
        monkeypatch.setattr(atlas_mod, "property_sweep", checking)
        report = verify(6, use_cache=False)
        assert report.equal and report.counterexamples == ()
        edges = [g.edges for g in enumerate_connected_bipartite(6)]
        assert events == [(event, e) for e in edges for event in ("analyze", "check")]

    def test_a_fault_in_the_analysis_is_not_a_betti_verdict(self, monkeypatch, tmp_path, capsys):
        # C_6 has q = 6, so the oracle checks it; an AssertionError of its
        # analysis must leave verify, and the CLI exits 3
        from toricgraph import cli

        real = atlas_mod.edge_ring_hilbert
        c6 = canonical_form(cycle_graph(6))

        def faulty(g):
            if canonical_form(g) == c6:
                raise AssertionError("kernel check failed")
            return real(g)

        monkeypatch.setattr(atlas_mod, "edge_ring_hilbert", faulty)
        with pytest.raises(AssertionError, match="kernel check failed"):
            verify(6, with_betti_oracle=True, use_cache=False)
        out = tmp_path / "report.json"
        code = cli.main(["verify", "--n", "6", "--with-betti-oracle", "--no-cache",
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert "internal error: kernel check failed" in err.splitlines()
        assert not out.exists()

    def test_verify_checks_one_sweep(self, monkeypatch):
        import inspect

        import toricgraph.atlas as atlas_mod

        real = atlas_mod.sweep
        calls = []

        def spy(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append(dict(bound.arguments))
            return real(*args, **kwargs)

        monkeypatch.setattr(atlas_mod, "sweep", spy)
        report = verify(6, jobs=2, with_betti_oracle=True, use_cache=False)
        assert report.counterexamples == ()
        assert calls == [dict(n=6, jobs=2, use_cache=False, force=False, with_betti_oracle=True)]

    def test_regularity_bound_violation_reaches_the_report(self, monkeypatch):
        import toricgraph.atlas as atlas_mod

        real = atlas_mod.edge_ring_hilbert
        (c6,) = [g for g in enumerate_connected_bipartite(6)
                 if canonical_form(g) == canonical_form(cycle_graph(6))]

        def tampered(g):
            data = real(g)
            if g != c6:
                return data
            h = (1, 1, 1, 1)  # deg h = 3, not below n // 2
            return HilbertData(poly_mul(h, (1, -1)), data.krull_dim, h)

        monkeypatch.setattr(atlas_mod, "edge_ring_hilbert", tampered)
        report = verify(6, use_cache=False)
        code = canonical_form(c6).hex()
        assert f"reg_below_half_n: n=6 code={code} edges={c6.edges}" in report.counterexamples

    def test_counterexample_names_the_canonical_code(self, monkeypatch):
        import toricgraph.atlas as atlas_mod

        real = atlas_mod.property_sweep

        def failing(g, t, mat):
            return [(prop, ok and (prop, g.q) != ("pdim_q_n_1", 5)) for prop, ok in real(g, t, mat)]

        monkeypatch.setattr(atlas_mod, "property_sweep", failing)
        (row,) = [(g, rec) for g, rec, _ in sweep(5, use_cache=False) if g.q == 5]
        g, rec = row
        report = verify(5, use_cache=False)
        assert report.counterexamples == (f"pdim_q_n_1: n=5 code={rec.code} edges={g.edges}",)

    def test_report_json_schema(self):
        d = report_to_json_dict(verify(4, use_cache=False))
        assert set(d) == {
            "n", "equal", "computed", "theoretical", "class_count",
            "failures", "property_passes",
        }
        json.dumps(d)  # serializable


class TestAnalyzeGraph:
    def test_runs_no_full_cycle_enumeration(self, monkeypatch):
        # the pruned search replaces the full enumeration, which stays an oracle
        import toricgraph.hilbert as hilbert_mod
        import toricgraph.toric as toric_mod

        calls = []
        for mod, name in ((hilbert_mod, "toric_generators"), (toric_mod, "enumerate_cycles")):
            monkeypatch.setattr(mod, name, lambda g, name=name: calls.append(name))
        g = complete_bipartite(3, 4)
        rec = analyze_graph(g, canonical_form(g))
        assert calls == []
        assert rec.invariants == invariant_tuple(g)

    @pytest.mark.parametrize("n", sorted(RECORD_DIGESTS))
    def test_records_are_pinned(self, n):
        lines = []
        for g, rec, _ in sweep(n, use_cache=False):
            d = dict(record_to_json_dict(rec), code=reference_code(g).hex())
            del d["seconds"]
            lines.append((d["code"], json.dumps(d) + "\n"))
        digest = hashlib.sha256("".join(line for _, line in sorted(lines)).encode())
        assert digest.hexdigest() == RECORD_DIGESTS[n]

    @pytest.mark.parametrize("n", range(2, 10))
    def test_h_matches_the_semigroup_layers(self, n):
        # K[G] is standard graded and Cohen-Macaulay of dimension n - 1, so
        # h is the Hilbert function of an Artinian reduction and has no
        # internal zeros: with s = deg h, the coefficients c_0..c_s of
        # (1 - t)^(n-1) sum H(d) t^d, H(d) = |S_d|, must be h and c_{s+1}
        # must vanish, which bounds the true deg h by s.  No Groebner basis
        # is involved.
        for g, rec, _ in sweep(n, use_cache=False):
            s = len(rec.h) - 1
            ctx = _KoszulContext(g, s + 1)
            layers = [len(ctx.semigroup(d)) for d in range(s + 2)]
            c = [sum((-1) ** k * math.comb(n - 1, k) * layers[i - k] for k in range(i + 1))
                 for i in range(s + 2)]
            assert c == [*rec.h, 0], (rec.code, g.edges)


class TestCache:
    def test_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        g = cycle_graph(6)
        rec = analyze_graph(g, canonical_form(g))
        cache_store(rec)
        loaded = cache_load(6)
        assert loaded == {rec.code: rec}

    def test_fields_are_the_cache_line_keys(self, tmp_path, monkeypatch):
        from dataclasses import fields

        from toricgraph.atlas import AtlasRecord

        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        g = cycle_graph(6)
        rec = analyze_graph(g, canonical_form(g))
        cache_store(rec)
        (line,) = (tmp_path / "atlas-n6.jsonl").read_text(encoding="utf-8").splitlines()
        assert [f.name for f in fields(AtlasRecord)] == list(json.loads(line))
        assert record_to_json_dict(rec) == json.loads(line)
        assert rec.invariants == invariant_tuple(g)

    def test_duplicate_last_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        g = cycle_graph(6)
        rec = analyze_graph(g, canonical_form(g))
        other = rec.__class__(**{**rec.__dict__, "seconds": 99.0})
        cache_store(rec)
        cache_store(other)
        assert cache_load(6)[rec.code].seconds == 99.0

    def test_truncated_line_skipped(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        g = cycle_graph(6)
        rec = analyze_graph(g, canonical_form(g))
        cache_store(rec)
        path = tmp_path / "atlas-n6.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"code": "dead", "n": 6')  # no newline, cut off
        with pytest.warns(UserWarning, match="corrupted"):
            loaded = cache_load(6)
        assert loaded == {rec.code: rec}

    def test_wrongly_typed_field_skipped_and_reanalyzed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        rows = list(sweep(4))
        path = tmp_path / "atlas-n4.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        d = json.loads(lines[0])
        d["reg"] = str(d["reg"])
        path.write_text("\n".join([json.dumps(d)] + lines[1:]) + "\n", encoding="utf-8")
        with pytest.warns(UserWarning, match="corrupted"):
            report = verify(4)
        assert report.equal and report.counterexamples == ()
        # the bad line is gone, and the class was analyzed again and its
        # record appended
        assert len(path.read_text(encoding="utf-8").splitlines()) == 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = cache_load(4)
        assert {c: r.invariants for c, r in loaded.items()} == {
            r.code: r.invariants for _, r, _ in rows
        }

    def test_line_that_is_not_utf8_skipped_and_dropped(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        verify(4)
        path = tmp_path / "atlas-n4.jsonl"
        with open(path, "ab") as fh:
            fh.write(b"\xff\xfe garbage\n")
        with pytest.warns(UserWarning, match="corrupted"):
            report = verify(4)
        assert report.equal and report.counterexamples == ()
        assert len(path.read_text(encoding="utf-8").splitlines()) == 3

    def test_record_under_an_older_code_is_analyzed_again(self, tmp_path, monkeypatch):
        # a line keyed by a header-1 code, as an earlier canonical form wrote
        # it, matches no class: its wrong reg is never read, the line is
        # dropped, and the class is analyzed again and its record appended
        # under the current code
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        fresh = verify(6, use_cache=False)
        g = cycle_graph(6)
        rec = analyze_graph(g, canonical_form(g))
        stale = dict(record_to_json_dict(rec), code=reference_code(g).hex(),
                     reg=rec.invariants.reg + 1)
        assert stale["code"][:2] == "01" and rec.code[:2] == "02"
        path = tmp_path / "atlas-n6.jsonl"
        path.write_text(json.dumps(stale) + "\n", encoding="utf-8")
        report = verify(6)
        assert report.equal and report.counterexamples == ()
        assert report.property_passes == fresh.property_passes
        lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert stale not in lines and len(lines) == KNOWN_CLASS_COUNTS[6]
        (c6,) = [d for d in lines if d["code"] == rec.code]
        assert c6["reg"] == rec.invariants.reg

    def test_a_well_formed_code_of_no_class_is_never_used(self, tmp_path, monkeypatch):
        # header 2, n = 6 and a = 255 > n: the code is well formed but names
        # no class and cannot be decoded; the sweep never looks it up, and
        # the line is dropped once the sweep is over
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        fresh = list(sweep(6, use_cache=False))
        verify(6)
        path = tmp_path / "atlas-n6.jsonl"
        first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(first, code="0206ff", reg=first["reg"] + 1)) + "\n")
        assert "0206ff" in cache_load(6)
        rows = list(sweep(6))
        assert all(rec.code != "0206ff" for _, rec, _ in rows)
        strip = lambda rows: [(g.edges, r.code, r.invariants, r.h) for g, r, _ in rows]
        assert strip(rows) == strip(fresh)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == KNOWN_CLASS_COUNTS[6]
        assert "0206ff" not in cache_load(6)

    def test_lines_of_an_older_schema_warn_once_and_are_analyzed_again(
        self, tmp_path, monkeypatch
    ):
        # lines written when the second h was keyed h_lex lack h_rot: one
        # warning for the file counts them, their classes are analyzed
        # again, and the old lines are dropped
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        fresh = verify(4)
        path = tmp_path / "atlas-n4.jsonl"
        old = []
        for line in path.read_text(encoding="utf-8").splitlines():
            d = json.loads(line)
            d["h_lex"] = d.pop("h_rot")
            old.append(json.dumps(d) + "\n")
        path.write_text("".join(old), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = verify(4)
        assert [str(w.message) for w in caught] == [
            f"{path}: skipping 3 corrupted cache line(s), the first at line 1"
        ]
        assert report == fresh
        lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert len(lines) == 3 and all("h_rot" in d and "h_lex" not in d for d in lines)

    @pytest.mark.parametrize("field, value", [
        ("code", 7), ("q", True), ("mat", 1.0), ("h", "111"), ("h_rot", [1, "1"]),
        ("seconds", "0.1"),
    ])
    def test_record_field_types_checked(self, field, value):
        g = cycle_graph(6)
        d = record_to_json_dict(analyze_graph(g, canonical_form(g)))
        d[field] = value
        with pytest.raises(ValueError):
            _record_from_json_dict(d)

    def test_missing_file_empty(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        assert cache_load(9) == {}

    def test_cache_dir_env_var(self, monkeypatch):
        import os

        from toricgraph.atlas import cache_dir

        monkeypatch.setenv(CACHE_ENV, "/tmp/somewhere-else")
        assert cache_dir() == "/tmp/somewhere-else"
        monkeypatch.delenv(CACHE_ENV)
        assert cache_dir() == os.path.join(".", "atlas-cache")
        # an empty value counts as unset
        monkeypatch.setenv(CACHE_ENV, "")
        assert cache_dir() == os.path.join(".", "atlas-cache")

    def test_sweep_reuses_cache(self, tmp_path, monkeypatch):
        import toricgraph.atlas as atlas_mod

        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        first = list(atlas_mod.sweep(4))
        second = list(atlas_mod.sweep(4))
        assert [r for _, r, _ in first] == [r for _, r, _ in second]

    def test_sweep_into_another_directory_writes_there(self, tmp_path, monkeypatch):
        import toricgraph.atlas as atlas_mod

        first, second = tmp_path / "first", tmp_path / "second"
        monkeypatch.setenv(CACHE_ENV, str(first))
        list(atlas_mod.sweep(4))
        monkeypatch.setenv(CACHE_ENV, str(second))
        rows = list(atlas_mod.sweep(4))
        assert (second / "atlas-n4.jsonl").exists()
        assert set(cache_load(4)) == {rec.code for _, rec, _ in rows}

    def test_parallel_sweep_matches_serial(self, tmp_path):
        import toricgraph.atlas as atlas_mod

        parallel = list(atlas_mod.sweep(5, jobs=2, use_cache=False, with_betti_oracle=True))
        serial = list(atlas_mod.sweep(5, use_cache=False, with_betti_oracle=True))
        strip = lambda rows: [
            (r.code, r.invariants, r.mat, r.h, r.h_rot, verdicts) for _, r, verdicts in rows
        ]
        assert strip(parallel) == strip(serial)
        # every class at n = 5 has at most 8 edges, so every class gets both
        # verdicts, and all hold
        assert len(serial) == KNOWN_CLASS_COUNTS[5]
        assert all(verdicts == [("betti_oracle_agrees", True),
                                ("betti_euler_matches_numerator", True)]
                   for _, _, verdicts in serial)

    def test_no_verdicts_without_the_oracle(self):
        import toricgraph.atlas as atlas_mod

        rows = list(atlas_mod.sweep(4, use_cache=False))
        assert len(rows) == 3 and all(verdicts == [] for _, _, verdicts in rows)

    def test_interrupted_sweep_resumes(self, tmp_path, monkeypatch):
        import toricgraph.atlas as atlas_mod

        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        real = atlas_mod.analyze_graph
        analyzed = []

        def failing(g, code):
            if len(analyzed) == 5:
                raise RuntimeError("interrupted")
            analyzed.append(g)
            return real(g, code)

        monkeypatch.setattr(atlas_mod, "analyze_graph", failing)
        with pytest.raises(RuntimeError, match="interrupted"):
            list(atlas_mod.sweep(6))
        assert len(cache_load(6)) == 5

        def counting(g, code):
            analyzed.append(g)
            return real(g, code)

        monkeypatch.setattr(atlas_mod, "analyze_graph", counting)
        resumed = list(atlas_mod.sweep(6))
        assert len(analyzed) == KNOWN_CLASS_COUNTS[6]
        assert len({canonical_form(g) for g in analyzed}) == KNOWN_CLASS_COUNTS[6]
        monkeypatch.setattr(atlas_mod, "analyze_graph", real)
        fresh = list(atlas_mod.sweep(6, use_cache=False))
        strip = lambda rows: [
            (g.edges, r.code, r.invariants, r.mat, r.h, r.h_rot)
            for g, r, _ in rows
        ]
        assert strip(resumed) == strip(fresh)
        assert len(cache_load(6)) == KNOWN_CLASS_COUNTS[6]

    def test_each_record_is_on_disk_before_the_next_is_analyzed(self, tmp_path, monkeypatch):
        # the sweep appends through one handle, flushed per record: a
        # reader of the file sees every record written so far
        import toricgraph.atlas as atlas_mod

        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        real = atlas_mod.analyze_graph
        written = []

        def checking(g, code):
            assert set(cache_load(6)) == set(written)
            written.append(code.hex())
            return real(g, code)

        monkeypatch.setattr(atlas_mod, "analyze_graph", checking)
        list(atlas_mod.sweep(6))
        assert len(written) == KNOWN_CLASS_COUNTS[6]
        assert set(cache_load(6)) == set(written)
        lines = (tmp_path / "atlas-n6.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["code"] for line in lines] == written

    def test_torn_last_line_resumes_with_one_line_per_class(self, tmp_path, monkeypatch):
        # an interruption mid-write leaves half a line; the resumed sweep
        # must not glue its first record onto it
        import toricgraph.atlas as atlas_mod

        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        fresh = list(atlas_mod.sweep(6))
        path = tmp_path / "atlas-n6.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:14]) + lines[14][: len(lines[14]) // 2],
                        encoding="utf-8")
        real = atlas_mod.analyze_graph
        analyzed = []

        def counting(g, code):
            analyzed.append(g)
            return real(g, code)

        monkeypatch.setattr(atlas_mod, "analyze_graph", counting)
        with pytest.warns(UserWarning, match="corrupted"):
            resumed = list(atlas_mod.sweep(6))
        assert len(analyzed) == KNOWN_CLASS_COUNTS[6] - 14
        assert len(path.read_text(encoding="utf-8").splitlines()) == KNOWN_CLASS_COUNTS[6]
        analyzed.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = list(atlas_mod.sweep(6))
        assert analyzed == []
        assert len(path.read_text(encoding="utf-8").splitlines()) == KNOWN_CLASS_COUNTS[6]
        strip = lambda rows: [(g.edges, r.code, r.invariants, r.h) for g, r, _ in rows]
        assert strip(resumed) == strip(again) == strip(fresh)

    def test_a_clean_file_is_trimmed_in_bounded_memory(self, tmp_path, monkeypatch):
        # 30 copies of the n = 9 records, about 22,000 lines and 3 MB: the
        # lines are counted as they are read, so the file is never held whole
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        kept = [rec for _, rec, _ in sweep(9, use_cache=False)] * 30
        path = tmp_path / "atlas-n9.jsonl"
        clean = "".join(map(atlas_mod._cache_line, kept))
        path.write_text(clean, encoding="utf-8")
        tracemalloc.start()
        try:
            atlas_mod._trim_cache(9, kept)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(kept) == 30 * 730
        assert peak < 1 << 20
        assert path.read_text(encoding="utf-8") == clean
        # a torn last line after the records is still no record
        path.write_text(clean + clean[:40], encoding="utf-8")
        atlas_mod._trim_cache(9, kept)
        assert path.read_text(encoding="utf-8") == clean
