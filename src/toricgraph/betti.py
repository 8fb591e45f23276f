"""Brute-force graded Betti numbers via Koszul homology.

This is the independent cross-check for the Hilbert-route invariants: the
(i,j)-th Betti number is the degree-j homology of the Koszul complex on all
edge variables tensored with the edge ring K[G].  K[G] is the semigroup ring
of the edge degree vectors, so its degree-d piece has one basis element per
vertex-degree vector of a d-edge multiset (the layer S_d), and multiplying by
an edge variable adds that edge's degree vector: no Groebner basis and no
normal form is needed.  The differential preserves the multigrading by
vertex-degree vectors; in multidegree md the complex is that of the
squarefree divisor complex {T : md - deg T in the semigroup} (Miller and
Sturmfels, *Combinatorial Commutative Algebra*, 2005, section 9.1), so every
rank splits into many small blocks, each the simplicial boundary matrix of
that complex.  One walk over the i-subsets T of the edges builds every block
of a rank: T's boundary column joins the block deg T + s for each s in the
semigroup layer, and no Koszul basis is stored.  Almost every such complex
is a cone, and a cone's boundary matrix needs no elimination: when an edge e
of the block is an apex, meaning that (T - t) + e is a column for every
column T without e and every t in T, the rank is the number of columns that
hold e (the proof is in `_KoszulContext.rank`).  Only a block with no apex,
which includes every block that carries homology, is reduced, by exact
sparse column reduction over the rationals (Edelsbrunner and Harer,
*Computational Topology*, 2010, VII.1), done in Python integers with
fraction-free steps: no modular or floating-point arithmetic.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import comb, gcd
from operator import or_

from .graphs import Graph, SizeGuardExceededError, bipartition
from .hilbert import IntPoly, poly_trim
from .hilbert import edge_ring_gb  # noqa: F401  perfbench/spans.py rebinds betti.edge_ring_gb
from .toric import EmptyEdgeSetError

_SIZE_GUARD = 2_000_000


@dataclass(frozen=True)
class BettiTable:
    """Nonzero graded Betti numbers beta_{i,j} with the declared bounds."""

    entries: dict[tuple[int, int], int]
    i_max: int
    j_max: int


class _KoszulContext:
    """Per-graph tables shared by the cells of one `betti_table` call: the
    semigroup layers and the differential ranks, for internal degrees up to
    j_max.  A rank's blocks are built, reduced and dropped inside `rank`;
    no Koszul basis is kept."""

    def __init__(self, g: Graph, j_max: int):
        if g.q == 0:
            raise EmptyEdgeSetError("graph has no edges")
        bipartition(g)  # raises NotBipartiteError on an odd cycle
        self.q = g.q
        self.j_max = j_max
        # vertex-degree vectors packed into one int, a field of w bits per
        # vertex; an entry in internal degree j is at most j <= j_max < 2**w,
        # so sums never carry and packed ints are equal iff the vectors are
        w = max(j_max, 1).bit_length()
        self._deg = [1 << w * u | 1 << w * v for u, v in g.edges]
        self._semigroup: list[list[int]] = [[0]]
        self._ranks: dict[tuple[int, int], int] = {}

    def semigroup(self, d: int) -> list[int]:
        """S_d, the packed vertex-degree vectors of the d-edge multisets: the
        degree-d piece of the edge ring has the monomials over S_d as basis."""
        if d < 0:
            return []
        if d > self.j_max:
            raise AssertionError(f"degree {d} exceeds the field width (j_max={self.j_max})")
        layers = self._semigroup
        while len(layers) <= d:
            layers.append(sorted({s + e for s in layers[-1] for e in self._deg}))
        return layers[d]

    def rank(self, i: int, j: int) -> int:
        """Exact rank of the Koszul differential out of (i, j), which sends
        (T, s), T an i-subset of the edges and s in S_{j-i}, to the
        alternating sum of (T - t, s + deg t) over t in T: every term has
        multidegree deg T + s, and inside that block s is fixed by T, so the
        block is the boundary matrix of its i-subsets, rows keyed by T - t.
        Each block is collected as the masks of its i-subsets and ranked by
        `_block_rank`, which reduces only the blocks that are not cones.

        The cone rule: if e is an apex of a block, its rank is the number a
        of columns T that hold e.  Each such column has exactly one row
        without e, T - e, so they carry a +-identity block and the rank is
        at least a.  The apex property makes every row without e such a
        T - e.  A boundary c whose rows all hold e, c = sum b_R (R + e),
        has d(c) = 0, whose part without e is sum +-b_R R, so c = 0:
        projecting the image onto the a rows without e loses nothing, and
        the rank is at most a.  Neither step needs the columns to be closed
        under taking faces, and both hold over Z and over Q."""
        key = (i, j)
        if key in self._ranks:
            return self._ranks[key]
        total = 0
        if 1 <= i <= self.q and j - i >= 0:
            elems = self.semigroup(j - i)
            blocks: defaultdict[int, list[int]] = defaultdict(list)
            for t_set in combinations(range(self.q), i):
                mask = sum(1 << t for t in t_set)
                base = sum(self._deg[t] for t in t_set)
                for s in elems:
                    blocks[base + s].append(mask)
            total = sum(map(_block_rank, blocks.values()))
        self._ranks[key] = total
        return total

    def homology_dim(self, i: int, j: int) -> int:
        """beta_{i,j}: cell dimension minus the ranks in and out of it."""
        q = self.q
        dim = 0 if i > q or j - i < 0 else comb(q, i) * len(self.semigroup(j - i))
        return dim - self.rank(i, j) - self.rank(i + 1, j)


def _bits(mask: int) -> list[int]:
    """The single-bit masks of `mask`, smallest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def _is_apex(e: int, masks: list[int], family: set[int]) -> bool:
    """Whether (T - t) | e is in the family for every T in masks without
    the bit e and every t in T."""
    for mask in masks:
        if mask & e:
            continue
        rest = mask
        while rest:
            t = rest & -rest
            if (mask ^ t) | e not in family:
                return False
            rest ^= t
    return True


def _block_rank(masks: list[int]) -> int:
    """Exact rank of the boundary matrix whose columns are the distinct
    i-sets `masks` (i >= 1), dropping the k-th smallest element with sign
    (-1)**k.  An edge e is an apex when (T - t) | e is a column for every
    column T without e and every t in T; then the rank is the number of
    columns holding e, and no elimination is needed.  Only a block with no
    apex is reduced by `_column_rank`."""
    if len(masks) == 1:
        return 1  # a column of i >= 1 entries +-1
    family = set(masks)
    union = reduce(or_, masks)
    while union:
        e = union & -union
        if _is_apex(e, masks, family):
            return len([mask for mask in masks if mask & e])
        union ^= e
    return _column_rank(
        {mask ^ t: (-1) ** k for k, t in enumerate(_bits(mask))} for mask in masks
    )


def _column_rank(columns: Iterable[dict[int, int]]) -> int:
    """Exact rank over the rationals of the matrix with the given sparse
    columns, {row: nonzero entry}, by column reduction in integers: each
    column is reduced in place against the kept pivot columns, keyed by
    their largest row, until its largest row is new (a pivot) or it is zero.
    At a +-1 pivot entry the pivot column is subtracted times the entry; at
    any other, col * (p/g) - pivot * (c/g), with g = gcd(c, p), clears the
    row with no division."""
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        while col:
            top = max(col)
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = col
                break
            c, p = col[top], pivot[top]
            if p == 1 or p == -1:
                f = c * p
            else:
                g = gcd(c, p)
                f, scale = c // g, p // g
                for row in col:
                    col[row] *= scale
            # the pivot's rows are all <= top, so the new largest row is below top
            for row, x in pivot.items():
                y = col.get(row, 0) - f * x
                if y:
                    col[row] = y
                else:
                    del col[row]
    return len(pivots)


def _guard(q: int, i: int, j: int) -> None:
    """Refuse cell (i, j) before building anything if either Koszul layer
    its homology reads, (i, j) or (i+1, j), is too large."""
    for k in (i, i + 1):
        d = j - k
        if k > q or d < 0:
            continue
        bound = comb(q, k) * comb(q + d - 1, d) if d else comb(q, k)
        if bound > _SIZE_GUARD:
            raise SizeGuardExceededError(
                f"Koszul cell needs ~{bound} basis elements (> {_SIZE_GUARD})"
            )


def koszul_homology_dim(g: Graph, i: int, j: int) -> int:
    """beta_{i,j} of the edge ring: dimension of the degree-j homology at
    step i of the Koszul complex tensored with the quotient."""
    if i < 0 or j < 0:
        raise ValueError(f"need i, j >= 0, got ({i}, {j})")
    _guard(g.q, i, j)
    return _KoszulContext(g, j).homology_dim(i, j)


def betti_table(g: Graph, reg: int, pdim: int) -> BettiTable:
    """Full Betti table inside the declared bounds plus one guard row and one
    guard column, which are verified to vanish (valid for Cohen-Macaulay
    quotients, where beta_{i,j} = 0 whenever j > i + reg)."""
    entries: dict[tuple[int, int], int] = {}
    cells = [(i, d) for i in range(pdim + 2) for d in range(reg + 2)]
    for i, d in cells:  # refuse the whole table before it builds anything
        _guard(g.q, i, i + d)
    ctx = _KoszulContext(g, pdim + reg + 2)
    for i, d in cells:
        b = ctx.homology_dim(i, i + d)
        if b:
            if i > pdim or d > reg:
                raise AssertionError(
                    f"nonzero Betti number beta_{{{i},{i + d}}} = {b} outside "
                    f"declared bounds pdim={pdim}, reg={reg}"
                )
            entries[(i, i + d)] = b
    if entries.get((0, 0)) != 1:
        raise AssertionError("beta_{0,0} must be 1")
    return BettiTable(entries, pdim, pdim + reg)


def invariants_from_betti(table: BettiTable) -> tuple[int, int]:
    """(regularity, projective dimension) straight from the table."""
    reg = max(j - i for i, j in table.entries)
    pdim = max(i for i, _ in table.entries)
    return reg, pdim


def euler_numerator(table: BettiTable) -> IntPoly:
    """Alternating sum over the table: sum_i (-1)^i sum_j beta_{i,j} t^j,
    which must reproduce the Hilbert-series numerator."""
    coeffs = [0] * (table.j_max + 2)
    for (i, j), b in table.entries.items():
        while j >= len(coeffs):
            coeffs.append(0)
        coeffs[j] += b if i % 2 == 0 else -b
    return poly_trim(coeffs)


def render_betti(table: BettiTable) -> str:
    """Triangular text layout: columns are homological degrees, rows are
    degree slices j - i."""
    imax = max(i for i, _ in table.entries)
    dmax = max(j - i for i, j in table.entries)
    cols = list(range(imax + 1))
    totals = [sum(b for (i, j), b in table.entries.items() if i == c) for c in cols]
    grid = [
        [table.entries.get((c, c + d), 0) for c in cols]
        for d in range(dmax + 1)
    ]
    width = max(2, max(len(str(x)) for x in totals + [c for c in cols]))
    lines = []
    lines.append(" " * 7 + " ".join(f"{c:>{width}}" for c in cols))
    lines.append("total: " + " ".join(f"{t:>{width}}" for t in totals))
    for d, row in enumerate(grid):
        cells = " ".join(f"{'.' if x == 0 else x:>{width}}" for x in row)
        lines.append(f"{d:>5}: " + cells)
    return "\n".join(lines)


def betti_to_json_dict(table: BettiTable) -> dict:
    return {
        "entries": [[i, j, b] for (i, j), b in sorted(table.entries.items())],
        "i_max": table.i_max,
        "j_max": table.j_max,
    }
