"""Toric ideal of a graph: binomial generators from even cycles.

Monomials in the edge variables e_1..e_q are exponent tuples of length q.
For bipartite graphs the toric ideal is generated by one binomial per even
cycle: the difference of the products of alternating cycle edges.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Cycle, Graph, NotBipartiteError, bipartition, enumerate_cycles

Monomial = tuple[int, ...]


class EmptyEdgeSetError(ValueError):
    """The graph has no edges, so there is no edge ring to present."""


@dataclass(frozen=True)
class Binomial:
    """Difference of two monomials, plus - minus, with unit coefficients."""

    plus: Monomial
    minus: Monomial

    def __post_init__(self):
        if len(self.plus) != len(self.minus):
            raise ValueError("mismatched variable counts")
        if self.plus == self.minus:
            raise ValueError("zero binomial")
        if sum(self.plus) != sum(self.minus):
            raise ValueError("inhomogeneous binomial")

    @property
    def degree(self) -> int:
        return sum(self.plus)


@dataclass(frozen=True)
class ToricPresentation:
    graph: Graph
    generators: tuple[Binomial, ...]


def monomial_str(m: Monomial) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"e{i + 1}")
        elif e > 1:
            parts.append(f"e{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def binomial_str(b: Binomial | None) -> str:
    if b is None:
        return "0"
    return f"{monomial_str(b.plus)} - {monomial_str(b.minus)}"


def cycle_binomial(g: Graph, c: Cycle) -> Binomial:
    """Alternating-product binomial of an even cycle.

    The two halves are disjoint squarefree monomials of one degree, so the
    degrevlex-larger (e_1 > ... > e_q) is the one without the largest edge
    index of the cycle; `plus` is that half.  Rotations and reflections of
    the cycle therefore all map to the same Binomial.
    """
    if c.length % 2 != 0:
        raise NotBipartiteError(f"odd cycle of length {c.length}")
    odd = [0] * g.q
    even = [0] * g.q
    for pos, e in enumerate(c.edge_indices):
        (odd if pos % 2 == 0 else even)[e] += 1
    if odd[max(c.edge_indices)]:
        return Binomial(tuple(even), tuple(odd))
    return Binomial(tuple(odd), tuple(even))


def toric_generators(g: Graph) -> ToricPresentation:
    """One generator per even cycle; a forest yields the zero presentation."""
    if g.q == 0:
        raise EmptyEdgeSetError("graph has no edges")
    bipartition(g)  # raises NotBipartiteError on an odd cycle
    gens = tuple(cycle_binomial(g, c) for c in enumerate_cycles(g))
    return ToricPresentation(g, gens)


def vertex_degree_vector(g: Graph, m: Monomial) -> tuple[int, ...]:
    """Exponent vector, in the vertex variables, of the image of m under the
    edge -> product-of-endpoints map."""
    deg = [0] * g.n
    for i, e in enumerate(m):
        if e:
            u, v = g.edges[i]
            deg[u] += e
            deg[v] += e
    return tuple(deg)


def validate_kernel_membership(g: Graph, b: Binomial) -> bool:
    return vertex_degree_vector(g, b.plus) == vertex_degree_vector(g, b.minus)
