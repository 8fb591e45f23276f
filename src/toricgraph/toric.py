"""Toric ideal of a graph: binomial generators from even cycles.

For bipartite graphs the toric ideal is generated by one binomial per even
cycle: the difference of the products of alternating cycle edges.  The full
enumeration `toric_generators` carries monomials in the edge variables
e_1..e_q as exponent tuples of length q; the pruned search `leading_cycles`
carries each cycle's two halves as int edge masks, bit i for e_{i+1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .graphs import Cycle, Graph, NotBipartiteError, bipartition, enumerate_cycles

if TYPE_CHECKING:
    from .groebner import MonomialOrder

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


def leading_cycles(g: Graph, order: MonomialOrder) -> tuple[tuple[int, int], ...]:
    """Even cycles of g whose binomials still form a Groebner basis for
    `order`, as (lead, trail) edge masks with bit i for e_{i+1}, the leading
    half first; a forest yields none.

    The halves of a cycle binomial are disjoint squarefree monomials of one
    degree.  Under degrevlex the half without the cycle's largest edge index
    leads; under lex and deglex the half with its smallest one does.  Each
    cycle is grown once: it leaves that deciding edge (the root) from the
    root's larger endpoint and walks through edges ranked below the root,
    rank being the edge index for degrevlex and its reverse otherwise, so the
    leading half grows one edge at a time.  A branch is cut
    as soon as its leading half contains the leading half K of a cycle kept
    before: K then divides the cycle's leading monomial, so the cycle adds
    nothing to the initial ideal.  This holds in any visiting order, so the
    kept cycles, a subset of the universal Groebner basis
    `toric_generators(g)` with the same initial ideal, are a Groebner basis.
    (The incidence matrix of a bipartite graph is totally unimodular, so its
    circuits, the even-cycle binomials, form a universal Groebner basis:
    Sturmfels, *Groebner Bases and Convex Polytopes*, 1996, ch. 8.)
    """
    if g.q == 0:
        raise EmptyEdgeSetError("graph has no edges")
    bipartition(g)  # raises NotBipartiteError on an odd cycle
    q = g.q
    lex = order.kind != "degrevlex"
    by_rank = range(q - 1, -1, -1) if lex else range(q)  # edge index of rank k
    # incident[x]: (rank, edge index, neighbour) by rising rank, so the edges
    # admitted below a root form a prefix
    incident: list[list[tuple[int, int, int]]] = [[] for _ in range(g.n)]
    for k, i in enumerate(by_rank):
        u, v = g.edges[i]
        incident[u].append((k, i, v))
        incident[v].append((k, i, u))
    kept_with: list[list[int]] = [[] for _ in range(q)]  # kept leading masks by member edge
    found: list[tuple[int, int]] = []

    def walk(x: int, target: int, root: int, on_path: int, lead: int, trail: int,
             leads: bool) -> None:
        for k, i, w in incident[x]:
            if k >= root:
                break
            if leads:
                grown = lead | 1 << i
                cut = False
                for m in kept_with[i]:  # a plain loop: twice as fast as any()
                    if m & grown == m:
                        cut = True
                        break
                if cut:
                    continue
                nlead, ntrail = grown, trail
            else:
                nlead, ntrail = lead, trail | 1 << i
            if w == target:
                found.append((nlead, ntrail))
                for j in range(q):
                    if nlead >> j & 1:
                        kept_with[j].append(nlead)
            elif not on_path >> w & 1:
                walk(w, target, root, on_path | 1 << w, nlead, ntrail, not leads)

    # The root sits at position 0: it trails under degrevlex and leads under
    # lex, so the odd positions lead under degrevlex and the even ones under
    # lex.  Roots by rising rank keep far fewer cycles than the reverse.
    for root, i in enumerate(by_rank):
        u, v = g.edges[i]
        lead, trail = (1 << i, 0) if lex else (0, 1 << i)
        walk(v, u, root, 1 << u | 1 << v, lead, trail, not lex)
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
