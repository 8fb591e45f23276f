"""Optional cross-validation against sympy's Groebner engine.

Runs only when sympy is importable (it is not a package dependency).  The
reduced Groebner basis over QQ is unique for a fixed monomial order, so the
comparison is exact, element for element.
"""

import pytest
from hypothesis import given, settings

sympy = pytest.importorskip("sympy")

from toricgraph.atlas import enumerate_connected_bipartite
from toricgraph.graphs import complete_bipartite, cycle_graph
from toricgraph.groebner import DEGREVLEX, LEX, buchberger
from toricgraph.toric import toric_generators

from test_groebner import binomial_ideals

ORDERS = [(DEGREVLEX, "grevlex"), (LEX, "lex")]


def sympy_gb_pairs(q, gens, order_name):
    xs = sympy.symbols(f"e1:{q + 1}")

    def mono(m):
        return sympy.prod([xs[i] ** e for i, e in enumerate(m)], start=sympy.Integer(1))

    polys = [mono(b.plus) - mono(b.minus) for b in gens]
    if not polys:
        return set()
    out = set()
    for p in sympy.groebner(polys, *xs, order=order_name).exprs:
        terms = sympy.Poly(p, *xs).terms()
        assert len(terms) == 2
        (m1, c1), (m2, c2) = terms
        assert sorted((c1, c2)) == [-1, 1]
        plus, minus = (m1, m2) if c1 == 1 else (m2, m1)
        out.add((tuple(plus), tuple(minus)))
    return out


def our_gb_pairs(q, gens, order):
    gb = buchberger(order, gens, nvars=q)
    return {(b.plus, b.minus) for b in gb.elements}


@pytest.mark.parametrize("order,order_name", ORDERS)
def test_named_graphs_match(order, order_name):
    for g in (cycle_graph(6), complete_bipartite(2, 3), complete_bipartite(3, 3),
              complete_bipartite(2, 4)):
        gens = toric_generators(g).generators
        assert our_gb_pairs(g.q, gens, order) == sympy_gb_pairs(g.q, gens, order_name)


def test_all_six_vertex_graphs_match_grevlex():
    for g in enumerate_connected_bipartite(6):
        gens = toric_generators(g).generators
        assert our_gb_pairs(g.q, gens, DEGREVLEX) == sympy_gb_pairs(g.q, gens, "grevlex"), g.edges


@pytest.mark.parametrize("order,order_name", ORDERS)
@settings(max_examples=10, deadline=None)
@given(binomial_ideals())
def test_random_binomial_ideals_match(order, order_name, ideal):
    q, gens = ideal
    assert our_gb_pairs(q, gens, order) == sympy_gb_pairs(q, gens, order_name)
