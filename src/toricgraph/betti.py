"""Brute-force graded Betti numbers via Koszul homology.

This is the independent cross-check for the Hilbert-route invariants: the
(i,j)-th Betti number is the degree-j homology of the Koszul complex on all
edge variables tensored with the edge ring.  The ring is multigraded by
vertex-degree vectors and the differential preserves the multigrading, so
every rank splits into many small integer matrices; ranks are computed in
exact integer arithmetic (fraction-free elimination), never floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import comb

from .graphs import Graph, SizeGuardExceededError
from .groebner import ReducedGB, _divides, _mask, _nf_monomial
from .hilbert import IntPoly, edge_ring_gb, poly_trim
from .toric import Monomial, vertex_degree_vector

_SIZE_GUARD = 2_000_000


@dataclass(frozen=True)
class BettiTable:
    """Nonzero graded Betti numbers beta_{i,j} with the declared bounds."""

    entries: dict[tuple[int, int], int]
    i_max: int
    j_max: int


def standard_monomials(gb: ReducedGB, d: int) -> tuple[Monomial, ...]:
    """All degree-d monomials not divisible by a leading monomial of gb;
    a vector-space basis of the degree-d piece of the quotient."""
    q = gb.nvars
    lms = gb.leading_monomials
    masks = [_mask(m) for m in lms]
    out = []
    for combo in combinations_with_replacement(range(q), d):
        m = [0] * q
        for v in combo:
            m[v] += 1
        m = tuple(m)
        mm = _mask(m)
        if not any(masks[i] & mm == masks[i] and _divides(lm, m) for i, lm in enumerate(lms)):
            out.append(m)
    return tuple(out)


class _KoszulContext:
    """Per-graph tables shared by the cells of one `betti_table` call: normal
    forms, standard monomial bases, multidegrees, and differential ranks."""

    def __init__(self, g: Graph):
        self.graph = g
        self.gb = edge_ring_gb(g)
        self._lms = list(self.gb.leading_monomials)
        self._tails = [b.minus for b in self.gb.elements]
        self._masks = [_mask(m) for m in self._lms]
        self._std: dict[int, tuple[Monomial, ...]] = {}
        self._mult: dict[tuple[int, Monomial], Monomial] = {}
        self._vdeg: dict[Monomial, tuple[int, ...]] = {}
        self._inc = [vertex_degree_vector(g, tuple(1 if k == e else 0 for k in range(g.q)))
                     for e in range(g.q)]
        self._layers: dict[tuple[int, int], dict] = {}
        self._ranks: dict[tuple[int, int], int] = {}

    def std(self, d: int) -> tuple[Monomial, ...]:
        if d < 0:
            return ()
        if d not in self._std:
            self._std[d] = standard_monomials(self.gb, d)
        return self._std[d]

    def mult(self, var: int, m: Monomial) -> Monomial:
        key = (var, m)
        got = self._mult.get(key)
        if got is None:
            shifted = m[:var] + (m[var] + 1,) + m[var + 1:]
            got = _nf_monomial(shifted, self._lms, self._tails, self._masks)
            self._mult[key] = got
        return got

    def vdeg(self, m: Monomial) -> tuple[int, ...]:
        got = self._vdeg.get(m)
        if got is None:
            got = vertex_degree_vector(self.graph, m)
            self._vdeg[m] = got
        return got

    def layer(self, i: int, j: int) -> dict:
        """Basis of homological degree i, internal degree j, keyed by
        multidegree; values are lists of (edge-subset, standard monomial)."""
        key = (i, j)
        if key in self._layers:
            return self._layers[key]
        q = self.graph.q
        blocks: dict[tuple[int, ...], list] = {}
        if 0 <= i <= q and j - i >= 0:
            for t_set in combinations(range(q), i):
                base = [0] * self.graph.n
                for t in t_set:
                    inc = self._inc[t]
                    for v in range(self.graph.n):
                        base[v] += inc[v]
                for m in self.std(j - i):
                    vd = self.vdeg(m)
                    md = tuple(base[v] + vd[v] for v in range(self.graph.n))
                    blocks.setdefault(md, []).append((t_set, m))
        self._layers[key] = blocks
        return blocks

    def rank(self, i: int, j: int) -> int:
        """Exact rank of the Koszul differential out of (i, j)."""
        key = (i, j)
        if key in self._ranks:
            return self._ranks[key]
        q = self.graph.q
        total = 0
        if 1 <= i <= q and j - i >= 0:
            dom = self.layer(i, j)
            cod = self.layer(i - 1, j)
            for md, delems in dom.items():
                celems = cod.get(md)
                assert celems, "differential image left its multidegree block"
                index = {elem: r for r, elem in enumerate(celems)}
                mat = [[0] * len(delems) for _ in range(len(celems))]
                for c, (t_set, m) in enumerate(delems):
                    for k, t in enumerate(t_set):
                        target = (t_set[:k] + t_set[k + 1:], self.mult(t, m))
                        mat[index[target]][c] = -1 if k % 2 else 1
                total += _int_rank(mat)
        self._ranks[key] = total
        return total

    def homology_dim(self, i: int, j: int) -> int:
        """beta_{i,j}: cell dimension minus the ranks in and out of it."""
        q = self.graph.q
        dim = 0 if i > q or j - i < 0 else comb(q, i) * len(self.std(j - i))
        return dim - self.rank(i, j) - self.rank(i + 1, j)


def _int_rank(mat: list[list[int]]) -> int:
    """Fraction-free (Bareiss) elimination rank over the integers."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    r = 0
    prev = 1
    for c in range(n):
        pivot = next((rr for rr in range(r, m) if mat[rr][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            mat[r], mat[pivot] = mat[pivot], mat[r]
        head = mat[r]
        hc = head[c]
        for rr in range(r + 1, m):
            row = mat[rr]
            rc = row[c]
            for cc in range(c + 1, n):
                row[cc] = (row[cc] * hc - rc * head[cc]) // prev
            row[c] = 0
        prev = hc
        r += 1
        if r == m:
            break
    return r


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
    return _KoszulContext(g).homology_dim(i, j)


def betti_table(g: Graph, reg: int, pdim: int) -> BettiTable:
    """Full Betti table inside the declared bounds plus one guard row and one
    guard column, which are verified to vanish (valid for Cohen-Macaulay
    quotients, where beta_{i,j} = 0 whenever j > i + reg)."""
    entries: dict[tuple[int, int], int] = {}
    ctx = _KoszulContext(g)
    for i in range(pdim + 2):
        for d in range(reg + 2):
            _guard(g.q, i, i + d)
            b = ctx.homology_dim(i, i + d)
            if b:
                if i > pdim or d > reg:
                    raise AssertionError(
                        f"nonzero Betti number beta_{{{i},{i + d}}} = {b} outside "
                        f"declared bounds pdim={pdim}, reg={reg}"
                    )
                entries[(i, i + d)] = b
    assert entries.get((0, 0)) == 1, "beta_{0,0} must be 1"
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
