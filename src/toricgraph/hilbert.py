"""Hilbert series of monomial quotients and the invariant pipeline.

A toric ideal and its initial ideal have the same Hilbert function
(Sturmfels, *Groebner Bases and Convex Polytopes*, 1996), so the
pipeline needs only the minimal leading halves of the even-cycle binomials:
the cycle search `leading_cycles` grows only the cycles whose leading half
contains no leading half kept before, as int edge masks, and `_minimal`
drops the halves that contain another.  No tail is reduced and no exponent
tuple is built.  The full cycle enumeration (`cycle_binomials`) stays as the
reference and feeds Buchberger's algorithm, the oracle `edge_ring_gb`.  The
Hilbert numerator N(t) with HS = N(t)/(1-t)^q is computed on squarefree
masks by the pivot-variable recursion N(I) = N(I + <x>) + t*N(I : x);
`hilbert_numerator` takes an arbitrary monomial ideal to that form by
polarization, which keeps the graded Betti numbers and so the numerator
(x_i^k becomes k bits).  The series has a pole of order dim at
t = 1 (Bruns-Herzog, *Cohen-Macaulay Rings*, 4.1), so dividing N by (1-t)
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
    DEGREVLEX,
    MonomialIdeal,
    MonomialOrder,
    ReducedGB,
    _mask,
    buchberger,
    initial_ideal,  # unused here; perfbench/spans.py rebinds hilbert.initial_ideal
)
from .toric import (
    Binomial,
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


def _poly_add(a: IntPoly, b: IntPoly) -> IntPoly:
    n = max(len(a), len(b))
    return poly_trim(tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                           for i in range(n)))


def _minimal(masks) -> list[int]:
    """The inclusion-minimal sets among masks, duplicates dropped."""
    kept: list[int] = []
    for m in sorted(set(masks), key=int.bit_count):
        if all(k & m != k for k in kept):
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
    union = overlap = 0
    for m in gens:
        overlap |= m & union
        union |= m
    if not overlap:
        # complete intersection: pairwise disjoint supports
        out: IntPoly = (1,)
        for m in gens:
            if not m:
                return ()  # unit ideal, zero quotient
            out = poly_mul(out, (1,) + (0,) * (m.bit_count() - 1) + (-1,))
        return out
    # the most frequent bit lies in two supports, so it is a bit of overlap
    pivot = max((1 << i for i in range(overlap.bit_length())),
                key=lambda x: sum(1 for m in gens if m & x))
    left = [m for m in gens if not m & pivot] + [pivot]
    colon = _minimal([m & ~pivot for m in gens])
    return _poly_add(_numerator(left), (0,) + _numerator(colon))


def hilbert_numerator(ideal: MonomialIdeal, q: int) -> IntPoly:
    """Numerator N(t) of the Hilbert series N(t)/(1-t)^q of the quotient by a
    monomial ideal given by minimal generators."""
    if ideal.nvars != q:
        raise ValueError(f"ideal lives in {ideal.nvars} variables, not {q}")
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


def krull_dimension(ideal: MonomialIdeal, q: int) -> int:
    """dim of the quotient: q minus the smallest set of variables meeting the
    support of every generator."""
    if ideal.nvars != q:
        raise ValueError(f"ideal lives in {ideal.nvars} variables, not {q}")
    if any(sum(m) == 0 for m in ideal.gens):
        raise ValueError("unit generator: the quotient is the zero ring")
    return q - _min_transversal([_mask(m) for m in ideal.gens])


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
    # edge i maps to a vertex-degree vector packed into one int, a field of
    # s bits per vertex; no field exceeds q < 2**s, so the packed sums of two
    # edge masks are equal exactly when their vertex-degree vectors are
    s = g.q.bit_length() + 1
    packed = [1 << s * u | 1 << s * v for u, v in g.edges]

    def image(mask: int) -> int:
        return sum(p for i, p in enumerate(packed) if mask >> i & 1)

    for lead, trail in pairs:
        assert lead != trail and image(lead) == image(trail), "cycle escaped the kernel"
    return pairs


def cycle_binomials(g: Graph) -> tuple[Binomial, ...]:
    """The even-cycle binomials of g, which generate its toric ideal and form
    a universal Groebner basis of it."""
    return toric_generators(g).generators


def edge_ring_gb(g: Graph, order: MonomialOrder = DEGREVLEX) -> ReducedGB:
    """Reduced Groebner basis of the toric ideal of g by Buchberger's
    algorithm, the oracle for `edge_ring_hilbert`; every element is checked
    to lie in the kernel of the edge-to-vertex map."""
    gb = buchberger(order, cycle_binomials(g), nvars=g.q)
    for b in gb.elements:
        assert validate_kernel_membership(g, b), "basis element escaped the kernel"
    return gb


def edge_ring_hilbert(g: Graph, order: MonomialOrder = DEGREVLEX) -> HilbertData:
    """Hilbert data of the initial ideal of the toric ideal of g, read off
    the minimal leading halves of the even cycles that the pruned search
    `leading_cycles` keeps; every kept cycle is checked to lie in the
    kernel."""
    pairs = _in_kernel(g, leading_cycles(g, order))
    numerator = _numerator(_minimal(lead for lead, _ in pairs))
    dim, h = dim_and_h(numerator, g.q)
    return HilbertData(numerator, dim, h)


def invariant_tuple(g: Graph, data: HilbertData | None = None) -> InvariantTuple:
    """(reg, deg h, pdim, depth, dim) of the edge ring of a connected
    bipartite graph, via the Groebner/Hilbert route.  `data` is
    `edge_ring_hilbert(g, order)`, for any order, when the caller already
    holds it: the Hilbert series does not depend on the order."""
    if g.n < 2 or g.q == 0:
        raise EmptyEdgeSetError("need at least one edge (two vertices)")
    if not is_connected(g):
        raise DisconnectedError("invariants are computed for connected graphs only")
    if data is None:
        data = edge_ring_hilbert(g, DEGREVLEX)
    dim = data.krull_dim
    assert dim == g.n - 1, f"dim {dim} != n-1 = {g.n - 1}"
    deg_h = len(data.h_poly) - 1
    pdim = g.q - dim
    assert pdim == g.q - g.n + 1
    assert 0 <= deg_h < g.n // 2, f"regularity bound violated: {deg_h} vs n={g.n}"
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
