"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s` to see them live).

All checks are exact integer comparisons; the stated runtime ceilings are
asserted as well.
"""

import time

from toricgraph import atlas
from toricgraph.betti import betti_table, euler_numerator, invariants_from_betti
from toricgraph.graphs import (
    complete_bipartite,
    complete_core_graph,
    cycle_core_graph,
    cycle_graph,
    enumerate_cycles,
    realizing_graph,
)
from toricgraph.hilbert import edge_ring_hilbert, invariant_tuple


def _closed_form_pairs(n):
    # independent inline reconstruction of the target set
    return {(0, 0)} | {
        (r, p) for r in range(1, n // 2) for p in range(1, r * (n - 2 - r) + 1)
    }


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_exhaustive_pairs_up_to_8():
    start = time.perf_counter()
    for n in range(2, 9):
        computed = set(atlas.verify(n).computed)
        expected = _closed_form_pairs(n)
        assert computed == expected, f"n={n}: {sorted(computed ^ expected)}"
        assert atlas.theoretical_pairs(n) == expected
    pairs8 = set(atlas.verify(8).computed)
    assert len(pairs8) == 23 and max(pairs8) == (3, 9)
    elapsed = time.perf_counter() - start
    _report(1, elapsed <= 300, f"pair sets exact for n=2..8, n=8 has 23 pairs ({elapsed:.1f}s)")


def test_criterion_2_n9():
    start = time.perf_counter()
    computed = set(atlas.verify(9).computed)
    expected = _closed_form_pairs(9)
    assert computed == expected, sorted(computed ^ expected)
    assert len(computed) == 29 and max(computed) == (3, 12)
    elapsed = time.perf_counter() - start
    _report(2, elapsed <= 1800, f"n=9 pair set exact, 29 pairs, max (3,12) ({elapsed:.1f}s)")


def test_criterion_3_counting_formula():
    for n in range(2, 10):
        assert len(atlas.verify(n).computed) == atlas.cardinality_formula(n), n
    for n in range(2, 101):
        direct = 1 + sum(r * (n - 2 - r) for r in range(1, n // 2))
        assert atlas.cardinality_formula(n) == direct, n
    _report(3, True, "cardinality formula matches computed sets (n<=9) and the direct sum (n<=100)")


def test_criterion_4_closed_forms():
    start = time.perf_counter()
    for a in range(1, 5):
        for b in range(a, 5):
            reg = invariant_tuple(complete_bipartite(a, b)).reg
            assert reg == min(a, b) - 1, (a, b, reg)
    for r in range(2, 6):
        reg = invariant_tuple(cycle_graph(2 * r)).reg
        assert reg == r - 1, (r, reg)
    elapsed = time.perf_counter() - start
    _report(4, elapsed <= 60,
            f"reg(K_ab)=min-1 for a<=b<=4 and reg(C_2r)=r-1 for r<=5 ({elapsed:.1f}s)")


def test_criterion_5_constructor_grid():
    start = time.perf_counter()
    cases = 0
    for n in range(4, 11):
        for r in range(1, n // 2):
            for p in range(1, r * r + 1):
                t = invariant_tuple(cycle_core_graph(n, r, p))
                assert t.as_tuple() == (r, r, p, n - 1, n - 1), ("cycle-core", n, r, p, t)
                cases += 1
            for p in range(r * r, r * (n - 2 - r) + 1):
                t = invariant_tuple(complete_core_graph(n, r, p))
                assert t.as_tuple() == (r, r, p, n - 1, n - 1), ("complete-core", n, r, p, t)
                cases += 1
    # the two drawn instances, verbatim
    assert invariant_tuple(cycle_core_graph(10, 3, 2)).as_tuple() == (3, 3, 2, 9, 9)
    assert invariant_tuple(complete_core_graph(10, 3, 12)).as_tuple() == (3, 3, 12, 9, 9)
    elapsed = time.perf_counter() - start
    _report(5, elapsed <= 600, f"{cases} constructor cases hit (r,r,p,n-1,n-1) ({elapsed:.1f}s)")


def test_criterion_6_betti_oracle_agreement():
    start = time.perf_counter()
    checked = 0
    for n in range(2, 9):
        for g, rec, _ in atlas.sweep(n):
            if g.q > 8:
                continue
            t = rec.invariants
            table = betti_table(g, t.reg, t.pdim)
            assert invariants_from_betti(table) == (t.reg, t.pdim), g.edges
            assert euler_numerator(table) == edge_ring_hilbert(g).numerator, g.edges
            checked += 1
    elapsed = time.perf_counter() - start
    _report(6, checked >= 100 and elapsed <= 1200,
            f"Koszul Betti tables agree with the Hilbert route on {checked} graphs "
            f"with q<=8 ({elapsed:.1f}s)")


EXPECTED_PROPERTIES = {
    "dim_depth_n_minus_1",
    "pdim_q_n_1",
    "reg_below_half_n",
    "reg_le_mat_minus_1",
    "mat_le_half_n",
    "edges_le_reg_bound",
    "forest_iff_reg0_iff_pdim0",
    "tuple_shape_r_r_p_n1_n1",
    "h_at_1_nonzero",
    "h_order_independent",
}


CLASS_COUNTS = {2: 1, 3: 1, 4: 3, 5: 5, 6: 17, 7: 44, 8: 182, 9: 730}


def test_criterion_7_property_suite():
    start = time.perf_counter()
    graphs_checked = 0
    for n in range(2, 10):
        report = atlas.verify(n)
        assert report.counterexamples == (), report.counterexamples
        assert report.equal
        assert report.class_count == CLASS_COUNTS[n], (n, report.class_count)
        assert EXPECTED_PROPERTIES <= set(report.property_passes)
        for prop in EXPECTED_PROPERTIES:
            assert report.property_passes[prop] == report.class_count, (n, prop)
        for g, _, _ in atlas.sweep(n):
            assert all(c.length % 2 == 0 for c in enumerate_cycles(g)), g.edges
        graphs_checked += report.class_count
    elapsed = time.perf_counter() - start
    _report(7, graphs_checked == 983,
            f"zero counterexamples across all {graphs_checked} graphs with n<=9 ({elapsed:.1f}s)")


def test_criterion_8_realizing_samples():
    for r in range(1, 5):
        for p in range(1, 5):
            g = realizing_graph(r, p)
            assert g.n == 2 + r + max(r, p), (r, p, g.n)
            t = invariant_tuple(g)
            assert (t.reg, t.pdim) == (r, p), (r, p, t)
    _report(8, True, "realizing graphs achieve every (r,p) in {1..4}^2 at N=2+r+max(r,p)")
