"""Bipartite graph core.

Plain immutable graphs with a fixed edge order (the edge order fixes the
polynomial variable order downstream, so every constructor here is
deterministic), plus cycle enumeration, matchings, the witness-graph
constructions used to realize prescribed invariants, and the doubly sorted
biadjacency matrices of connected bipartite graphs: their orderly
generation, the listing of each split's isomorphism classes, and the
canonical form, which is the smallest doubly sorted matrix of the class.
"""

from __future__ import annotations

import json
import sys
from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property, partial
from math import factorial, prod


class GraphFormatError(ValueError):
    """Malformed graph input: bad line, loop edge, or duplicate edge."""


class NotBipartiteError(ValueError):
    """An odd cycle was found where a bipartition is required."""


class DisconnectedError(ValueError):
    """The operation requires a connected graph."""


class SizeGuardExceededError(RuntimeError):
    """An exhaustive computation would exceed its documented desk-scale guard."""


@dataclass(frozen=True)
class Graph:
    """Finite simple graph on vertices 0..n-1 with an ordered edge list.

    Edge i (0-based) corresponds to the polynomial variable e_{i+1}.
    Instances are immutable and hashable; all operations on them are pure.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        norm = []
        seen = set()
        for e in self.edges:
            u, v = e
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {e} has an endpoint outside 0..{self.n - 1}")
            if u == v:
                raise ValueError(f"loop edge at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            norm.append(key)
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def q(self) -> int:
        return len(self.edges)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}


@dataclass(frozen=True)
class Bipartition:
    part_a: tuple[int, ...]
    part_b: tuple[int, ...]


@dataclass(frozen=True)
class Cycle:
    """Simple cycle, canonically rooted: vertices[0] is the smallest vertex
    on the cycle and vertices[1] < vertices[-1] fixes the orientation."""

    vertices: tuple[int, ...]
    edge_indices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.edge_indices)


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document: one "u v" pair per line, '#' comments.

    Labels are compacted to 0..n-1 in first-occurrence order; the line order
    fixes the edge (hence variable) order.
    """
    labels: dict[int, int] = {}
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer label in {raw!r}") from None
        if u == v:
            raise GraphFormatError(f"line {lineno}: loop edge at {u}")
        for t in (u, v):
            labels.setdefault(t, len(labels))
        a, b = labels[u], labels[v]
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise GraphFormatError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add(key)
        edges.append(key)
    if not labels:
        raise GraphFormatError("no edges in input")
    return Graph(len(labels), tuple(edges))


def _json_int(x, what: str) -> int:
    # type(), not isinstance(): JSON true parses to a bool, a subclass of int
    if type(x) is not int:
        raise GraphFormatError(f"{what} must be a JSON integer, got {json.dumps(x)}")
    return x


def parse_graph_json(text: str) -> Graph:
    """Parse the JSON graph format {"n": int, "edges": [[u, v], ...]}.

    n and every label must be JSON integers: a float, bool or string is
    rejected, as the edge-list parser rejects a non-integer label.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise GraphFormatError('expected an object with "n" and "edges"')
    n = _json_int(data["n"], "n")
    try:
        edges = tuple((_json_int(u, "label"), _json_int(v, "label")) for u, v in data["edges"])
        return Graph(n, edges)
    except (TypeError, ValueError) as exc:
        raise GraphFormatError(str(exc)) from None


def graph_to_json(g: Graph) -> str:
    return json.dumps({"n": g.n, "edges": [list(e) for e in g.edges]})


def bipartition(g: Graph) -> Bipartition:
    """2-color by BFS per component; part_a holds each component's smallest vertex."""
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            u = queue.pop()
            for w in g.neighbors[u]:
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    raise NotBipartiteError(
                        f"not bipartite: odd cycle through vertices {u} and {w}"
                    )
    part_a = tuple(v for v in range(g.n) if color[v] == 0)
    part_b = tuple(v for v in range(g.n) if color[v] == 1)
    return Bipartition(part_a, part_b)


def is_connected(g: Graph) -> bool:
    seen = bytearray(g.n)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for w in g.neighbors[u]:
            if not seen[w]:
                seen[w] = 1
                count += 1
                stack.append(w)
    return count == g.n


def enumerate_cycles(g: Graph) -> tuple[Cycle, ...]:
    """All simple cycles, each exactly once up to rotation and reflection.

    Canonical representative: start at the smallest vertex on the cycle and
    walk toward its smaller cycle-neighbor. Output sorted by (length, vertices).
    """
    adj = g.neighbors
    found: list[tuple[int, ...]] = []
    on_path = bytearray(g.n)
    path: list[int] = []

    def extend(u: int, s: int) -> None:
        for w in adj[u]:
            if w == s:
                if len(path) >= 3 and path[1] < path[-1]:
                    found.append(tuple(path))
            elif w > s and not on_path[w]:
                path.append(w)
                on_path[w] = 1
                extend(w, s)
                path.pop()
                on_path[w] = 0

    # `extend` recurses once per vertex, so Python's recursion limit caps the
    # length of a cycle it can grow
    try:
        for s in range(g.n):
            path.clear()
            path.append(s)
            on_path[s] = 1
            extend(s, s)
            on_path[s] = 0
    except RecursionError:
        raise SizeGuardExceededError(
            f"a cycle is too long for the recursive cycle enumeration "
            f"(recursion limit {sys.getrecursionlimit()})"
        ) from None

    found.sort(key=lambda vs: (len(vs), vs))
    return tuple(cycle_from_vertices(g, vs) for vs in found)


def cycle_from_vertices(g: Graph, vertices: tuple[int, ...]) -> Cycle:
    """Build a Cycle from a closed vertex walk (without repeating the start)."""
    m = len(vertices)
    if m < 3 or len(set(vertices)) != m:
        raise ValueError(f"not a simple cycle: {vertices}")
    idx = g.edge_index
    edge_indices = []
    for k in range(m):
        u, v = vertices[k], vertices[(k + 1) % m]
        key = (u, v) if u < v else (v, u)
        if key not in idx:
            raise ValueError(f"missing edge {key} in walk {vertices}")
        edge_indices.append(idx[key])
    return Cycle(tuple(vertices), tuple(edge_indices))


def matching_number(g: Graph) -> int:
    """Maximum matching size via augmenting paths on the bipartition."""
    parts = bipartition(g)
    match: dict[int, int | None] = {b: None for b in parts.part_b}

    def augment(a: int, visited: set[int]) -> bool:
        for b in g.neighbors[a]:
            if b in visited:
                continue
            visited.add(b)
            if match[b] is None or augment(match[b], visited):
                match[b] = a
                return True
        return False

    size = 0
    for a in parts.part_a:
        if augment(a, set()):
            size += 1
    return size


# ---------------------------------------------------------------------------
# standard families


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: parts 0..a-1 and a..a+b-1, edges in lexicographic (i, j) order."""
    if a < 1 or b < 1:
        raise ValueError(f"parts must be nonempty, got ({a}, {b})")
    edges = tuple((i, a + j) for i in range(a) for j in range(b))
    return Graph(a + b, edges)


def cycle_graph(m: int) -> Graph:
    """C_m with edges in walk order 0-1-2-...-(m-1)-0."""
    if m < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {m}")
    edges = tuple((k, (k + 1) % m) for k in range(m))
    return Graph(m, edges)


def star(n: int) -> Graph:
    """K_{1,n-1} with center 0."""
    if n < 2:
        raise ValueError(f"star needs at least 2 vertices, got {n}")
    return Graph(n, tuple((0, k) for k in range(1, n)))


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs at least 1 vertex, got {n}")
    return Graph(n, tuple((k, k + 1) for k in range(n - 1)))


# ---------------------------------------------------------------------------
# witness constructions realizing a prescribed (regularity, pdim) pair


def _witness_vertex_labels(n: int, r: int):
    # x_1..x_{r+1} -> 0..r, y_1..y_{r+1} -> r+1..2r+1, z_1..z_{n-2r-2} -> rest
    x = lambda i: i - 1
    y = lambda j: r + j
    z = lambda j: 2 * r + 1 + j
    return x, y, z


def _check_witness_range(n: int, r: int) -> None:
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if not 0 < r < n // 2:
        raise ValueError(f"need 0 < r < floor(n/2), got r={r}, n={n}")
    assert n - 2 - 2 * r >= 0  # guaranteed by r <= floor(n/2) - 1


def cycle_core_graph(n: int, r: int, p: int) -> Graph:
    """Connected bipartite graph on n vertices with n+p-1 edges built from a
    (2r+2)-cycle core, pendant edges, and p-1 chords; realizes regularity r
    and projective dimension p for 1 <= p <= r*r.

    Chords are the lexicographically smallest (i, j) pairs not on the core
    cycle, so the construction is reproducible.
    """
    _check_witness_range(n, r)
    if not 1 <= p <= r * r:
        raise ValueError(f"need 1 <= p <= r^2 = {r * r}, got p={p}")
    x, y, z = _witness_vertex_labels(n, r)
    edges = []
    cycle_pairs = set()
    for i in range(1, r + 1):
        edges.append((x(i), y(i)))
        edges.append((y(i), x(i + 1)))
        cycle_pairs.add((i, i))
        cycle_pairs.add((i + 1, i))
    edges.append((x(r + 1), y(r + 1)))
    edges.append((y(r + 1), x(1)))
    cycle_pairs.add((r + 1, r + 1))
    cycle_pairs.add((1, r + 1))
    for j in range(1, n - 2 * r - 1):
        edges.append((x(r + 1), z(j)))
    chords = [(i, j) for i in range(1, r + 2) for j in range(1, r + 2)
              if (i, j) not in cycle_pairs]
    for i, j in chords[: p - 1]:
        edges.append((x(i), y(j)))
    return Graph(n, tuple(edges))


def complete_core_graph(n: int, r: int, p: int) -> Graph:
    """Connected bipartite graph on n vertices with n+p-1 edges built from a
    complete bipartite K_{r+1,r+1} core, pendant edges, and p-r^2 extra edges
    into the pendant vertices; realizes regularity r and projective dimension
    p for r^2 <= p <= r(n-2-r)."""
    _check_witness_range(n, r)
    if not r * r <= p <= r * (n - 2 - r):
        raise ValueError(
            f"need r^2 = {r * r} <= p <= r(n-2-r) = {r * (n - 2 - r)}, got p={p}"
        )
    x, y, z = _witness_vertex_labels(n, r)
    edges = []
    for i in range(1, r + 2):
        for j in range(1, r + 2):
            edges.append((x(i), y(j)))
    for j in range(1, n - 2 * r - 1):
        edges.append((x(r + 1), z(j)))
    extras = [(i, j) for i in range(1, r + 1) for j in range(1, n - 2 * r - 1)]
    for i, j in extras[: p - r * r]:
        edges.append((x(i), z(j)))
    return Graph(n, tuple(edges))


def realizing_graph(r: int, p: int) -> Graph:
    """Smallest-recipe witness for the pair (r, p): the single edge for (0, 0),
    otherwise a core construction on N = 2 + r + max(r, p) vertices."""
    if (r, p) == (0, 0):
        return Graph(2, ((0, 1),))
    if r < 1 or p < 1:
        raise ValueError(f"realizable pairs are (0,0) or r,p >= 1, got ({r}, {p})")
    n = 2 + r + max(r, p)
    if p <= r * r:
        return cycle_core_graph(n, r, p)
    return complete_core_graph(n, r, p)


# ---------------------------------------------------------------------------
# combinatorial bounds


def jackson_min_edges(m: int, a: int, b: int) -> int:
    """Edge threshold above which a bipartite graph with parts (a, b) must
    contain a cycle of length >= 2m.  At the overlap a = 2m-2 both branches
    apply; the minimum is returned."""
    if not 2 <= m <= a <= b:
        raise ValueError(f"need 2 <= m <= a <= b, got ({m}, {a}, {b})")
    vals = []
    if a <= 2 * m - 2:
        vals.append(a + (b - 1) * (m - 1))
    if a >= 2 * m - 2:
        vals.append((a + b - 2 * m + 3) * (m - 1))
    return min(vals)


def max_edges_for_reg(r: int, n: int) -> int:
    """Upper bound (r+1)(n-r-1) on the edge count of a connected bipartite
    graph on n vertices whose edge ring has regularity r."""
    if r < 0 or n < 2:
        raise ValueError(f"need r >= 0 and n >= 2, got ({r}, {n})")
    return (r + 1) * (n - r - 1)


# ---------------------------------------------------------------------------
# doubly sorted forms: candidates, classes, canonical form
#
# A bipartite graph with parts of sizes a <= b is handled as its packed
# biadjacency rows: a list of a ints, bit j of rows[i] set when row i meets
# column j.  A doubly sorted form is the a x b matrix, rows and columns
# permuted (and transposed too when a == b), with nonzero rows
# r_0 <= ... <= r_{a-1}, nondecreasing columns (row a-1 is the most
# significant bit of a column) and none zero, packed into one int with r_0
# most significant, so that integer order is lexicographic order on row
# tuples.  Every class has such a form: iterating row-sort and column-sort
# strictly increases sum M[i][j]*2^i*2^j, so it ends at a matrix sorted both
# ways.  A class's smallest form, coded by _form_code, is its canonical code,
# and _code_graph turns a code back into the class's graph.
#
# _doubly_sorted builds the candidates of a split (a, b) by orderly
# generation (Read 1978; McKay 1998) into one sorted array('Q'), so a form
# has at most _FORM_BITS bits.  Its row step, _extend_rows, forms only the
# rows it keeps: walking the column runs from the most significant down, it
# reads off which cuts keep the row at most the one before, so no row is
# built to be filtered out, and the last row is written straight to its
# bucket.  _split_classes walks the candidates with one "met" byte per
# candidate and lists the split's classes; and canonical_form packs a Graph
# and takes the smallest form the forms search, _place_rows, lists.  A
# connected bipartite graph has a unique bipartition up to swapping the
# parts, so no class appears under two splits.

_PERM_GUARD = 200_000
_MAX_CODE_VERTICES = 255  # the code header stores n in one byte
_FORM_BITS = 64  # a candidate is one item of an array('Q')


def biadjacency_connected(b: int, rows: list[int]) -> bool:
    """Whether the bipartite graph of the packed rows over b columns is
    connected (a zero column is an isolated vertex)."""
    seen, rest = rows[0], rows[1:]
    while rest:
        grown = [r for r in rest if r & seen]
        if not grown:
            return False
        rest = [r for r in rest if not r & seen]
        for r in grown:
            seen |= r
    return seen == (1 << b) - 1


def _extend_rows(out: defaultdict[int, array], left: int, b: int,
                 runs: tuple[tuple[int, int], ...],
                 bound: int, packed: int, shift: int, acc: int) -> None:
    # Choose row r_{left-1} <= bound, stored at bit `shift` of `packed`; `acc`
    # is the union of the rows chosen so far.  The columns of a run [lo, hi)
    # are tied on every row chosen so far, so there the new row must read
    # 0..01..1 (bit j is column j) to keep the columns sorted: its ones are
    # [cut, hi) for some cut in lo..hi, and the run splits at the cut into
    # its 0-part and its 1-part.  `runs` go from the most significant down,
    # and `bound` and `acc` read all 0 or all 1 across each run.  While the
    # new row ties `bound` on the runs walked, a run where `bound` reads 0
    # admits only the cut hi, and a cut above lo where `bound` reads 1 takes
    # the row below `bound`, which frees every lower run.  The last row,
    # r_0, must fill the columns no row has met, so it reads 1 across a run
    # where `acc` reads 0; each finished matrix goes to the bucket of r_0.
    # The walk can form one zero row, an isolated vertex, which is skipped.
    last = left == 1
    tied, free = 0, []  # the row that still ties `bound` (None: none), the rows below it
    for lo, hi in runs:
        run = (1 << hi) - (1 << lo)
        if last and not acc & run:
            blocks = [run]
        else:
            blocks = [(1 << hi) - (1 << cut) for cut in range(lo, hi + 1)]
        free = [row | block for row in free for block in blocks]
        if tied is None:
            continue
        if bound & run:
            # blocks[0] == run, the cut lo, keeps the tie
            free += [tied | block for block in blocks[1:]]
            tied |= run
        elif blocks[-1]:  # the cut hi, a 0 across the run, is not admitted
            tied = None
    if tied is not None:
        free.append(tied)
    if last:
        for row in free:
            if row:
                out[row].append(packed | row << shift)
        return
    for row in free:
        if not row:
            continue
        split = []
        for lo, hi in runs:
            cut = hi - (row >> lo & (1 << (hi - lo)) - 1).bit_count()
            if cut < hi:
                split.append((cut, hi))
            if lo < cut:
                split.append((lo, cut))
        _extend_rows(out, left - 1, b, tuple(split), row, packed | row << shift,
                     shift + b, acc | row)


def _check_form_bits(a: int, b: int) -> None:
    if a * b > _FORM_BITS:
        raise SizeGuardExceededError(
            f"the {a} x {b} forms have {a * b} bits, more than the "
            f"{_FORM_BITS} of a stored candidate"
        )


def _doubly_sorted(a: int, b: int) -> array:
    """Every doubly sorted a x b matrix, packed, in one sorted array('Q').
    Its rows are chosen from r_{a-1} down to r_0, each at most the one
    before, and only such rows are formed; r_0 also meets every column that
    no other row meets.  The matrices are gathered by their top row r_0,
    which holds the most significant bits, and each bucket is sorted on its
    own and joined in top-row order, so no list of the whole split is
    built.  Raises SizeGuardExceededError, before any matrix is built, when
    a * b exceeds _FORM_BITS."""
    _check_form_bits(a, b)
    buckets: defaultdict[int, array] = defaultdict(partial(array, "Q"))
    _extend_rows(buckets, a, b, ((0, b),), (1 << b) - 1, 0, 0, 0)
    out = array("Q")
    for top in sorted(buckets):
        out.fromlist(sorted(buckets.pop(top)))
    return out


def _place_rows(out: set[int], left: list[int], runs: list[tuple[int, int, int]],
                bound: int, packed: int, shift: int, b: int) -> None:
    # Place each distinct row of `left` (sorted, bit j is original column j)
    # at the next position down, stored at bit `shift` of `packed`.  A run
    # (lo, mask, hi) holds the original columns in `mask`, tied on every row
    # placed so far, which sort to positions lo .. hi-1; so, as in
    # _extend_rows, the new row's ones in a run take its top positions
    # and the run splits into its 0-part and its 1-part.  `bound` is the row
    # placed last, and no row still to place may end above it.  A row's
    # value with its ones at the top of every run settles that.  `bound`
    # reads all 0 or all 1 across each run, so if that value exceeds
    # `bound`, the row agrees with `bound` on the runs above some run where
    # `bound` reads 0 and the row has a one; the later rows only reorder
    # columns inside runs, so the row ends above `bound` and the branch dies.
    # The last row left is placed here, its value being its final row.
    if len(left) == 1:
        r, row = left[0], 0
        for lo, mask, hi in runs:
            row |= (1 << hi) - (1 << (hi - (r & mask).bit_count()))
        if row <= bound:
            out.add(packed | row << shift)
        return
    placed = []
    for i, r in enumerate(left):
        if i and r == left[i - 1]:
            continue  # an equal row places the same matrix
        row, split = 0, []
        for run in runs:
            lo, mask, hi = run
            ones = r & mask
            if ones == mask:
                row |= (1 << hi) - (1 << lo)
            elif ones:
                top = hi - ones.bit_count()
                row |= (1 << hi) - (1 << top)
                split.append((lo, mask ^ ones, top))
                run = (top, ones, hi)
            split.append(run)
        if row > bound:
            return
        placed.append((i, row, split))
    for i, row, split in placed:
        _place_rows(out, left[:i] + left[i + 1:], split, row, packed | row << shift, shift + b, b)


def _row_orders(rows: list[int]) -> int:
    # a! / prod m_i!, m_i counting equal rows: the row orders _place_rows can place
    return factorial(len(rows)) // prod(map(factorial, Counter(rows).values()))


def _columns(b: int, rows: list[int]) -> list[int]:
    # the packed columns of the rows over b columns: bit i of column j is
    # bit j of row i, so the last row is a column's most significant bit
    return [sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(b)]


def _transpose(a: int, form: int) -> int:
    # the a x a form whose rows are the columns of `form`: they are
    # nondecreasing, and its columns are the rows of `form`, so it is a
    # doubly sorted form of the same class.  Entry (i, j) sits at bit
    # (a-1-i)*a + j, so the set bit at p = k*a + j moves to a*a-1 - (j*a + k)
    last, out = a * a - 1, 0
    while form:
        low = form & -form
        k, j = divmod(low.bit_length() - 1, a)
        out |= 1 << (last - j * a - k)
        form ^= low
    return out


def _doubly_sorted_forms(a: int, b: int, rows: list[int]) -> set[int]:
    """Every doubly sorted form of the class of the connected a x b
    biadjacency matrix with the given rows.  The row order fixes a form,
    since its columns then sort by column vector, so the search places
    original rows from position a-1 down, each at most the one before.
    When a == b the forms with the original columns as rows are the
    transposes of those with the original rows as rows, so only the side
    with fewer row orders is searched and each form it lists is
    transposed.  Raises SizeGuardExceededError, before any placement, when
    a + b exceeds _MAX_CODE_VERTICES or either side has more than
    _PERM_GUARD distinct row orders."""
    if a + b > _MAX_CODE_VERTICES:
        raise SizeGuardExceededError(
            f"canonical codes store n in one byte: n = {a + b} exceeds {_MAX_CODE_VERTICES}"
        )
    sides = [rows]
    if a == b:
        sides.append(_columns(b, rows))
    orders = list(map(_row_orders, sides))
    if max(orders) > _PERM_GUARD:
        raise SizeGuardExceededError(
            f"canonical form would place more than {_PERM_GUARD} row orders"
        )
    full = (1 << b) - 1
    forms: set[int] = set()
    _place_rows(forms, sorted(sides[orders.index(min(orders))]), [(0, full, b)], full, 0, 0, b)
    if a == b:
        forms |= {_transpose(a, form) for form in forms}
    return forms


def _form_rows(a: int, b: int, form: int) -> list[int]:
    # the packed rows r_0 .. r_{a-1} of a form, r_0 most significant
    full = (1 << b) - 1
    return [(form >> ((a - 1 - i) * b)) & full for i in range(a)]


def _form_code(a: int, b: int, form: int) -> bytes:
    """Header bytes 2, n, a, then the packed a x b form, big-endian.  The 2
    marks this definition: a record cached under an older code (header 1)
    matches no class, so its class is analyzed again."""
    return bytes([2, a + b, a]) + form.to_bytes((a * b + 7) // 8, "big")


def _code_form(code: bytes) -> int:
    # the packed form of a code of _form_code, its bytes after the header
    return int.from_bytes(code[3:], "big")


def _code_graph(code: bytes) -> Graph:
    """The graph of a code of _form_code, its inverse: edge (i, a + j) joins
    row i to column j of the form, in row-major order."""
    n, a = code[1], code[2]
    edges = []
    for i, r in enumerate(_form_rows(a, n - a, _code_form(code))):
        while r:
            low = r & -r
            edges.append((i, a + low.bit_length() - 1))
            r ^= low
    return Graph(n, tuple(edges))


def _split_classes(a: int, b: int):
    """The code of every class of connected bipartite graphs with parts of
    sizes a <= b, in code order.  Candidates come sorted, so a connected one
    is the first of its class if and only if it is the smallest of its own
    forms, the test of orderly generation; a form the search failed to list
    for an earlier class fails it when it comes."""
    candidates = _doubly_sorted(a, b)
    # met[k] marks candidate k as a form of a class yielded already; a
    # listed form that is no candidate marks nothing
    met = bytearray(len(candidates))
    for k, packed in enumerate(candidates):
        if met[k]:
            continue
        rows = _form_rows(a, b, packed)
        if not biadjacency_connected(b, rows):
            continue
        forms = _doubly_sorted_forms(a, b, rows)
        if min(forms) != packed:
            continue
        for form in forms:
            i = bisect_left(candidates, form, k + 1)
            if i < len(candidates) and candidates[i] == form:
                met[i] = 1
        yield _form_code(a, b, packed)


def canonical_form(g: Graph) -> bytes:
    """Canonical code of a connected bipartite graph: equal codes iff
    isomorphic.

    The graph is packed into biadjacency rows, the rows being the part that
    is not larger, and its code is _form_code of its smallest doubly sorted
    form: the code _split_classes gives its class.  _PERM_GUARD
    bounds the distinct row orders, a! / prod m_i! with m_i counting equal
    rows (and the column orders too when the parts have equal size), and
    SizeGuardExceededError is raised beyond it before any row is placed.
    Every graph on at most 17 vertices fits (8! <= _PERM_GUARD), and so does
    K_{9,9}, whose rows are all equal; a graph whose smaller part has 9 or
    more distinct rows, such as C_18 or path_graph(18), does not.
    The code stores n in one byte, so a graph on more than 255 vertices
    raises SizeGuardExceededError first.  Raises NotBipartiteError on an odd
    cycle and DisconnectedError on a disconnected graph.
    """
    parts = bipartition(g)
    if not is_connected(g):
        raise DisconnectedError("canonical forms are computed for connected graphs only")
    if g.n == 1:  # no edge, so no biadjacency row
        return _form_code(0, 1, 0)
    row_part, col_part = sorted((parts.part_a, parts.part_b), key=len)
    column = {w: j for j, w in enumerate(col_part)}
    rows = [sum(1 << column[w] for w in g.neighbors[u]) for u in row_part]
    a, b = len(row_part), len(col_part)
    return _form_code(a, b, min(_doubly_sorted_forms(a, b, rows)))
