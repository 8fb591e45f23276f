"""Toric ideal of a graph: binomial generators from even cycles.

For bipartite graphs the toric ideal is generated by one binomial per even
cycle: the difference of the products of alternating cycle edges.  The full
enumeration `toric_generators` carries monomials in the edge variables
e_1..e_q as exponent tuples of length q; the pruned search `leading_cycles`
carries each cycle's two halves as int edge masks, bit i for e_{i+1}.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .graphs import (
    Cycle,
    Graph,
    NotBipartiteError,
    SizeGuardExceededError,
    bipartition,
    enumerate_cycles,
)

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


def leading_cycles(g: Graph) -> tuple[tuple[int, int], ...]:
    """Even cycles of g whose binomials still form a Groebner basis under
    degrevlex (e_1 > ... > e_q), as (lead, trail) edge masks with bit i for
    e_{i+1}, the leading half first; a forest yields none.

    No cycle leaves the 2-core, so the vertices of degree 1 are peeled
    first, repeatedly, and the search reads only the edges of the core that
    is left: a forest costs time linear in its size, wherever its hubs sit.
    The halves of a cycle binomial are disjoint squarefree monomials of one
    degree, and the half without the cycle's largest edge index leads.  Every
    4-cycle is listed first, once, from its vertex of highest degree in the
    core (ties by index), and its leading pair {a, b} is recorded in a
    partner mask per edge.  Each longer cycle is then grown once: it leaves
    its largest edge (the root) from the root's larger endpoint and walks through edges of
    smaller index, so the leading half grows one edge at a time.  A branch is cut as soon as
    its leading half contains the leading half K of a cycle kept before: one
    AND with the new edge's partner mask finds a quadric K, and a scan of the
    longer kept cycles through the new edge finds the rest.  K then divides
    the cycle's leading monomial, so the cycle adds nothing to the initial
    ideal.  This holds in any visiting order, so the kept cycles, a subset
    of the universal Groebner basis `toric_generators(g)` with the same
    initial ideal, are a Groebner basis, with every quadric among them.
    (The incidence matrix of a bipartite graph is totally unimodular, so its
    circuits, the even-cycle binomials, form a universal Groebner basis:
    Sturmfels, *Groebner Bases and Convex Polytopes*, 1996, ch. 8.)  The
    walk never keeps a 4-cycle again, since its closing step adds the
    partner of the edge it already leads with.  Where the quadrics alone
    give the initial ideal, as for a complete bipartite graph (Ohsugi-Hibi,
    "Koszul bipartite graphs", 1999), every longer cycle is cut by one AND
    at the latest on its closing step, and the walk keeps nothing.
    """
    if g.q == 0:
        raise EmptyEdgeSetError("graph has no edges")
    bipartition(g)  # raises NotBipartiteError on an odd cycle
    # incident[x]: (edge index, neighbour) by rising index, so the edges
    # admitted below a root form a prefix
    incident: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        incident[u].append((i, v))
        incident[v].append((i, u))
    # peel the vertices of degree 1 until the 2-core is left: core[x] is the
    # degree of x among the vertices left, 0 once x is peeled
    core = [len(edges) for edges in incident]
    leaves = [x for x in range(g.n) if core[x] == 1]
    while leaves:
        x = leaves.pop()
        core[x] = 0
        for _, w in incident[x]:
            if core[w]:
                core[w] -= 1
                if core[w] == 1:
                    leaves.append(w)
    incident = [[(i, w) for i, w in edges if core[w]] if core[x] else []
                for x, edges in enumerate(incident)]
    quad = [0] * g.q  # quad[i]: the edges that lead a 4-cycle with edge i, as a mask
    found: list[tuple[int, int]] = []
    # A 4-cycle x-y-x'-z is met once, from its top vertex x by (degree,
    # index): the paths x-y-x' through lower vertices are grouped by the far
    # end x', and any two of them close a 4-cycle.  This costs about the sum
    # over edges of the smaller endpoint degree (Chiba-Nishizeki,
    # "Arboricity and subgraph listing algorithms", 1985), so a hub meets
    # few paths, and it holds only the paths from one x at a time.  With
    # (i, k) the edges x-y, y-x' and (j, l) the edges x-z, z-x', the halves
    # are {i, l} and {j, k}.
    rank = [0] * g.n
    for r, x in enumerate(sorted(range(g.n), key=lambda x: len(incident[x]))):
        rank[x] = r
    for x in range(g.n):
        top = rank[x]
        ends: dict[int, list[tuple[int, int]]] = {}  # x' -> its paths (i, k)
        for i, y in incident[x]:
            if rank[y] > top:
                continue
            for k, far in incident[y]:
                if rank[far] >= top:
                    continue
                paths = ends.get(far)
                if paths is None:
                    ends[far] = [(i, k)]
                    continue
                for j, l in paths:
                    if max(i, l) < max(j, k):  # the half without the largest index leads
                        a, b, trail = i, l, 1 << j | 1 << k
                    else:
                        a, b, trail = j, k, 1 << i | 1 << l
                    quad[a] |= 1 << b
                    quad[b] |= 1 << a
                    found.append((1 << a | 1 << b, trail))
                paths.append((i, k))
    # kept_with[i]: the leading masks through edge i of the longer kept cycles
    kept_with: list[list[int]] = [[] for _ in range(g.q)]

    def walk(x: int, target: int, root: int, on_path: int, lead: int, trail: int,
             leads: bool) -> None:
        if not leads:
            # a trail step ends in the part of the root's larger endpoint, so
            # never on the target
            for i, w in incident[x]:
                if i >= root:
                    break
                if not on_path >> w & 1:
                    walk(w, target, root, on_path | 1 << w, lead, trail | 1 << i, True)
            return
        for i, w in incident[x]:
            if i >= root:
                break
            if lead & quad[i]:
                continue
            grown = lead | 1 << i
            for m in kept_with[i]:  # a plain loop: twice as fast as any()
                if m & grown == m:
                    break
            else:
                if w == target:
                    found.append((grown, trail))
                    b = grown
                    while b:  # register it under each of its edges
                        low = b & -b
                        kept_with[low.bit_length() - 1].append(grown)
                        b ^= low
                elif not on_path >> w & 1:
                    walk(w, target, root, on_path | 1 << w, grown, trail, False)

    # The root sits at position 0 and trails, so the odd positions lead.  Roots
    # by rising index keep far fewer cycles than the reverse.  `walk` recurses
    # once per edge, so Python's recursion limit caps the length of a cycle.
    try:
        for root, (u, v) in enumerate(g.edges):
            if core[u] and core[v]:
                walk(v, u, root, 1 << u | 1 << v, 0, 1 << root, True)
    except RecursionError:
        raise SizeGuardExceededError(
            f"a cycle is too long for the recursive cycle search "
            f"(recursion limit {sys.getrecursionlimit()})"
        ) from None
    return tuple(found)


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
