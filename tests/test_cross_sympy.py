"""Optional cross-validation against sympy's Groebner engine.

Runs only when sympy is importable (it is not a package dependency).  The
reduced Groebner basis over QQ is unique for a fixed monomial order, so the
comparison with sympy's grevlex basis is exact, element for element.
"""

import pytest
from hypothesis import given, settings

sympy = pytest.importorskip("sympy")

from toricgraph.atlas import enumerate_connected_bipartite
from toricgraph.graphs import complete_bipartite, cycle_graph
from toricgraph.groebner import buchberger
from toricgraph.toric import toric_generators

from test_groebner import binomial_ideals

def sympy_gb_pairs(q, gens):
    xs = sympy.symbols(f"e1:{q + 1}")

    def mono(m):
        return sympy.prod([xs[i] ** e for i, e in enumerate(m)], start=sympy.Integer(1))

    polys = [mono(b.plus) - mono(b.minus) for b in gens]
    if not polys:
        return set()
    out = set()
    for p in sympy.groebner(polys, *xs, order="grevlex").exprs:
        terms = sympy.Poly(p, *xs).terms()
        assert len(terms) == 2
        (m1, c1), (m2, c2) = terms
        assert sorted((c1, c2)) == [-1, 1]
        plus, minus = (m1, m2) if c1 == 1 else (m2, m1)
        out.add((tuple(plus), tuple(minus)))
    return out


def our_gb_pairs(q, gens):
    gb = buchberger(gens, nvars=q)
    return {(b.plus, b.minus) for b in gb.elements}


def test_named_graphs_match():
    for g in (cycle_graph(6), complete_bipartite(2, 3), complete_bipartite(3, 3),
              complete_bipartite(2, 4)):
        gens = toric_generators(g).generators
        assert our_gb_pairs(g.q, gens) == sympy_gb_pairs(g.q, gens)


def test_all_six_vertex_graphs_match_grevlex():
    for g in enumerate_connected_bipartite(6):
        gens = toric_generators(g).generators
        assert our_gb_pairs(g.q, gens) == sympy_gb_pairs(g.q, gens), g.edges


@settings(max_examples=10, deadline=None)
@given(binomial_ideals())
def test_random_binomial_ideals_match(ideal):
    q, gens = ideal
    assert our_gb_pairs(q, gens) == sympy_gb_pairs(q, gens)
