"""Hilbert series of monomial quotients and the invariant pipeline.

A toric ideal and its initial ideal have the same Hilbert function
(Sturmfels, *Groebner Bases and Convex Polytopes*, 1996), so the
pipeline needs only the minimal leading halves of the even-cycle binomials:
the cycle search `leading_cycles` lists every 4-cycle first, then grows only
the longer cycles whose leading half contains no leading half kept before
(one AND per step tests the quadrics), all as int edge masks, and `_minimal`
drops the halves that contain another.  No tail is reduced and no exponent
tuple is built.  The full cycle enumeration (`toric_generators`) stays as the
reference and feeds Buchberger's algorithm, the oracle `edge_ring_gb`.  The
Hilbert numerator N(t) with HS = N(t)/(1-t)^q is computed on squarefree
masks by the pivot-variable recursion N(I) = N(I + <x>) + t*N(I : x)
(Bayer-Stillman, "Computation of Hilbert functions", 1992; Bigatti,
"Computation of Hilbert-Poincare series", 1997).  The pivot x is the bit
that most generators share, the lowest one on ties; it is found by counting
each generator's bits of the overlap, the bits that two supports share.  For
minimal generators G, I : x is the minimal set of {m - x : x in m} plus every
generator without x that none of those divides: a generator without x that
divided some m - x would divide m, so the union needs no further
minimalization.  A leaf, a complete intersection, adds its product of
(1 - t^deg) into one coefficient list at its colon depth, and the list is
trimmed once at the root.  `hilbert_numerator` takes an arbitrary monomial
ideal to that form by polarization, which keeps the graded Betti numbers and
so the numerator (x_i^k becomes k bits).  The series has a pole of order dim
at t = 1 (Bruns-Herzog, *Cohen-Macaulay Rings*, 4.1), so dividing N by (1-t)
while it vanishes at 1 gives the h-polynomial and the Krull dimension in one
step: dim is q minus the number of divisions.  `krull_dimension`, the
smallest transversal of the generator supports, is kept as its oracle.
For a connected bipartite graph the edge ring is Cohen-Macaulay, which turns
the h-polynomial degree and the Krull dimension into the full invariant
tuple (reg, deg h, pdim, depth, dim).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import DisconnectedError, Graph, is_connected
from .groebner import (
    MonomialIdeal,
    ReducedGB,
    _mask,
    buchberger,
    initial_ideal,  # unused here; perfbench/spans.py rebinds hilbert.initial_ideal
)
from .toric import (
    EmptyEdgeSetError,
    Monomial,
    leading_cycles,
    toric_generators,
    validate_kernel_membership,
)

IntPoly = tuple[int, ...]


class InexactDivisionError(ArithmeticError):
    """(1-t)^(q-dim) does not divide the numerator: the dimension is wrong."""


@dataclass(frozen=True)
class HilbertData:
    numerator: IntPoly
    krull_dim: int
    h_poly: IntPoly


@dataclass(frozen=True)
class InvariantTuple:
    reg: int
    deg_h: int
    pdim: int
    depth: int
    dim: int

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.reg, self.deg_h, self.pdim, self.depth, self.dim)


def poly_trim(p) -> IntPoly:
    p = tuple(p)
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def poly_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    out = [0] * (len(a) + len(b) - 1 if a and b else 0)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim(out)


def _minimal(masks) -> list[int]:
    """The inclusion-minimal sets among masks, duplicates dropped."""
    kept: list[int] = []
    for m in sorted(set(masks), key=int.bit_count):
        for k in kept:  # a plain loop: about twice as fast as all()
            if k & m == k:
                break
        else:
            kept.append(m)
    return kept


def _polarize(gens: tuple[Monomial, ...]) -> list[int]:
    # variable i gets max(1, largest exponent of x_i) consecutive bits and
    # x_i^k sets the first k of them, so a squarefree ideal keeps its _mask
    offsets = []
    width = 0
    for column in zip(*gens):
        offsets.append(width)
        width += max(1, *column)
    return [sum(((1 << e) - 1) << off for e, off in zip(m, offsets)) for m in gens]


def _numerator(gens: list[int]) -> IntPoly:
    """Hilbert numerator of the quotient by the squarefree ideal with minimal
    generators gens."""
    support = 0
    for m in gens:
        support |= m
    # a colon step removes its pivot from the union of the supports, and a
    # leaf's degree is the size of that union, so no leaf reaches past it
    acc = [0] * (support.bit_count() + 1)

    def add(gens: list[int], shift: int) -> None:
        union = overlap = 0
        for m in gens:
            overlap |= m & union
            union |= m
        if not overlap:
            # complete intersection: pairwise disjoint supports
            out = [1]
            for m in gens:
                if not m:
                    return  # unit ideal, zero quotient
                pad = [0] * m.bit_count()
                out = [a - b for a, b in zip(out + pad, pad + out)]  # times 1 - t^k
            for i, c in enumerate(out, shift):
                acc[i] += c
            return
        # the most frequent bit, lowest on ties; it lies in two supports, so
        # counting the bits of overlap only finds it
        count: dict[int, int] = {}
        for m in gens:
            b = m & overlap
            while b:
                x = b & -b
                count[x] = count.get(x, 0) + 1
                b ^= x
        best = 0
        b = overlap
        while b:
            x = b & -b
            if count[x] > best:
                best, pivot = count[x], x
            b ^= x
        others, reduced = [], []
        for m in gens:
            if m & pivot:
                reduced.append(m ^ pivot)
            else:
                others.append(m)
        # I : x keeps a generator without x unless a reduced one divides it;
        # none of those divides a reduced m - x, as it would then divide m
        reduced = _minimal(reduced)
        colon = reduced[:]
        for m in others:
            for r in reduced:
                if r & m == r:
                    break
            else:
                colon.append(m)
        others.append(pivot)
        add(others, shift)  # I + <x>
        add(colon, shift + 1)

    add(gens, 0)
    return poly_trim(acc)


def hilbert_numerator(ideal: MonomialIdeal) -> IntPoly:
    """Numerator N(t) of the Hilbert series N(t)/(1-t)^q of the quotient by a
    monomial ideal in q = ideal.nvars variables, given by minimal
    generators."""
    if any(sum(m) == 0 for m in ideal.gens):
        raise ValueError("unit generator: the quotient is the zero ring")
    return _numerator(_polarize(ideal.gens))


def _min_transversal(supports: list[int]) -> int:
    minimal = _minimal(supports)  # a support meeting a subset meets its superset

    def lower_bound(rest: list[int]) -> int:
        used = 0
        count = 0
        for s in rest:
            if not s & used:
                count += 1
                used |= s
        return count

    union = 0
    for s in minimal:
        union |= s
    best = union.bit_count()

    def solve(rest: list[int], depth: int) -> None:
        nonlocal best
        if not rest:
            best = min(best, depth)
            return
        if depth + lower_bound(rest) >= best:
            return
        s = min(rest, key=int.bit_count)
        while s:
            v = s & -s
            s ^= v
            solve([t for t in rest if not t & v], depth + 1)

    solve(minimal, 0)
    return best


def krull_dimension(ideal: MonomialIdeal) -> int:
    """dim of the quotient: ideal.nvars minus the smallest set of variables
    meeting the support of every generator."""
    if any(sum(m) == 0 for m in ideal.gens):
        raise ValueError("unit generator: the quotient is the zero ring")
    return ideal.nvars - _min_transversal([_mask(m) for m in ideal.gens])


def _div_one_minus_t(p: IntPoly) -> IntPoly:
    # p / (1-t), exact when p(1) = 0
    acc = 0
    out = []
    for c in p[:-1]:
        acc += c
        out.append(acc)
    return poly_trim(out)


def dim_and_h(numerator: IntPoly, q: int) -> tuple[int, IntPoly]:
    """(dim, h) with numerator = h * (1-t)^(q-dim) and h(1) != 0: dim is the
    order of the pole at t = 1 of numerator/(1-t)^q, the Krull dimension of
    the quotient."""
    h = poly_trim(numerator)
    if not h:
        raise ValueError("numerator must be nonzero")
    dim = q
    while sum(h) == 0:
        if dim == 0:
            raise InexactDivisionError(f"(1-t)^{q + 1} divides the numerator of a quotient of {q} variables")
        h = _div_one_minus_t(h)
        dim -= 1
    return dim, h


def h_polynomial(numerator: IntPoly, q: int, dim: int) -> IntPoly:
    """Divide out (1-t)^(q-dim) exactly, leaving the h-polynomial with h(1) != 0."""
    if not 0 <= dim <= q:
        raise ValueError(f"need 0 <= dim <= q, got dim={dim}, q={q}")
    pole, h = dim_and_h(numerator, q)
    if dim < pole:
        raise InexactDivisionError("(1-t) does not divide the numerator; the Krull dimension is too small")
    if dim > pole:
        raise InexactDivisionError("h(1) = 0; the Krull dimension is too large")
    return h


def _in_kernel(g: Graph, pairs: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    # an edge of some pair maps to its vertex-degree vector packed into one
    # int, s bits for each endpoint of such an edge, numbered as met (a
    # forest packs nothing); no field of a pair's image exceeds the number of
    # used edges, below 2**s, so two images are equal iff their vectors are
    used = 0
    for lead, trail in pairs:
        used |= lead | trail
    s = used.bit_count().bit_length()
    field: dict[int, int] = {}
    packed = [0] * g.q
    while used:
        i = (used & -used).bit_length() - 1
        for x in g.edges[i]:
            packed[i] |= 1 << s * field.setdefault(x, len(field))
        used ^= 1 << i

    def image(mask: int) -> int:
        # a mask holds about half a cycle's edges: walk its set bits, not all q
        total = 0
        while mask:
            low = mask & -mask
            total += packed[low.bit_length() - 1]
            mask ^= low
        return total

    for lead, trail in pairs:
        if lead == trail or image(lead) != image(trail):
            raise AssertionError("cycle escaped the kernel")
    return pairs


def edge_ring_gb(g: Graph) -> ReducedGB:
    """Reduced degrevlex Groebner basis of the toric ideal of g by
    Buchberger's algorithm, the oracle for `edge_ring_hilbert`; every element
    is checked to lie in the kernel of the edge-to-vertex map."""
    gb = buchberger(toric_generators(g).generators, nvars=g.q)
    for b in gb.elements:
        if not validate_kernel_membership(g, b):
            raise AssertionError("basis element escaped the kernel")
    return gb


def edge_ring_hilbert(g: Graph) -> HilbertData:
    """Hilbert data of the degrevlex initial ideal of the toric ideal of g,
    read off the minimal leading halves of the even cycles that the pruned
    search `leading_cycles` keeps; every kept cycle is checked to lie in the
    kernel."""
    pairs = _in_kernel(g, leading_cycles(g))
    numerator = _numerator(_minimal(lead for lead, _ in pairs))
    dim, h = dim_and_h(numerator, g.q)
    return HilbertData(numerator, dim, h)


def invariant_tuple(g: Graph, data: HilbertData | None = None) -> InvariantTuple:
    """(reg, deg h, pdim, depth, dim) of the edge ring of a connected
    bipartite graph, via the Groebner/Hilbert route.  `data` is
    `edge_ring_hilbert` of g, or of g with its edges in any other order, when
    the caller already holds it: the Hilbert series does not depend on it."""
    if g.n < 2 or g.q == 0:
        raise EmptyEdgeSetError("need at least one edge (two vertices)")
    # a connected graph has at least n - 1 edges; checked first, so that a
    # huge vertex count with few edges never builds its adjacency
    if g.q < g.n - 1 or not is_connected(g):
        raise DisconnectedError("invariants are computed for connected graphs only")
    if data is None:
        data = edge_ring_hilbert(g)
    dim = data.krull_dim
    if dim != g.n - 1:
        raise AssertionError(f"dim {dim} != n-1 = {g.n - 1}")
    deg_h = len(data.h_poly) - 1
    pdim = g.q - dim  # q - n + 1, as dim = n - 1
    return InvariantTuple(deg_h, deg_h, pdim, dim, dim)


def a_invariant(t: InvariantTuple) -> int:
    """Degree of the Hilbert series as a rational function: deg h - dim."""
    return t.deg_h - t.dim


def codegree(t: InvariantTuple, n: int) -> int:
    """Codegree of the edge polytope of a bipartite graph: n - deg h."""
    return n - t.deg_h


def tuple_as_json_dict(t: InvariantTuple, n: int) -> dict:
    return {
        "reg": t.reg,
        "deg_h": t.deg_h,
        "pdim": t.pdim,
        "depth": t.depth,
        "dim": t.dim,
        "a_invariant": a_invariant(t),
        "codegree": codegree(t, n),
    }
