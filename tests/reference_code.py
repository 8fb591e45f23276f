"""Reference canonical code of connected bipartite graphs, kept for the tests.

An independent definition of the class of a graph: iterated neighbourhood
refinement of both parts, then a scan of the row orders within the row
classes for the smallest row-major biadjacency matrix, in both orientations
when the parts have equal size.  Codes carry header bytes 1, n, a.  The
package names a class by its smallest doubly sorted form instead (header
byte 2); the tests check that the two codes induce the same classes, and the
enumeration and record digests are taken over these codes.
"""

from __future__ import annotations

import itertools
from math import factorial, prod

from toricgraph.graphs import (
    _MAX_CODE_VERTICES,
    _PERM_GUARD,
    DisconnectedError,
    Graph,
    SizeGuardExceededError,
    bipartition,
    is_connected,
)


def _degree_classes(adj: list[int]) -> list[list[int]]:
    classes: dict[int, list[int]] = {}
    for u, r in enumerate(adj):
        classes.setdefault(r.bit_count(), []).append(u)
    return [classes[d] for d in sorted(classes)]


def _split(classes: list[list[int]], adj: list[int], other: list[list[int]]) -> list[list[int]]:
    # Split each class by its members' neighbour counts in the other side's
    # classes.  Members of a class have equal degree, so the count in the
    # last class follows from the others, and comparing the sorted tuples of
    # neighbour colours means that more neighbours in an earlier class sort
    # first.
    masks = []
    for members in other[:-1]:
        mask = 0
        for w in members:
            mask |= 1 << w
        masks.append(mask)
    out = []
    for members in classes:
        if len(members) > 1:
            groups: dict[tuple[int, ...], list[int]] = {}
            for u in members:
                r = adj[u]
                groups.setdefault(tuple([(r & m).bit_count() for m in masks]), []).append(u)
            if len(groups) > 1:
                out += [groups[k] for k in sorted(groups, reverse=True)]
                continue
        out.append(members)
    return out


def _refine(rows: list[int], cols: list[int]) -> tuple[list[list[int]], list[list[int]]]:
    """The ordered refinement classes of the rows and of the columns.

    Iterated neighbourhood refinement from the part colouring: each round
    ranks every vertex by (its colour, the sorted colours of its
    neighbours), both sides at once, until no class splits.  The first round
    orders each side by degree.  Ranks never mix the sides, so each side is
    ranked on its own and the result does not depend on which part counts
    as the rows.  A side whose opposite side did not split in the last
    round cannot split in this one, so it is not examined.
    """
    row_classes, col_classes = _degree_classes(rows), _degree_classes(cols)
    rows_split, cols_split = len(row_classes) > 1, len(col_classes) > 1
    while rows_split or cols_split:
        new_rows = _split(row_classes, rows, col_classes) if cols_split else row_classes
        new_cols = _split(col_classes, cols, row_classes) if rows_split else col_classes
        rows_split = len(new_rows) > len(row_classes)
        cols_split = len(new_cols) > len(col_classes)
        row_classes, col_classes = new_rows, new_cols
    return row_classes, col_classes


def _class_orders(classes: list[list[int]]):
    """Every concatenation of one permutation per class, classes in the given
    order; raises before the first one if there would be more than
    _PERM_GUARD of them."""
    if prod(factorial(len(members)) for members in classes) > _PERM_GUARD:
        raise SizeGuardExceededError(
            f"canonical form would scan more than {_PERM_GUARD} orderings"
        )
    for parts in itertools.product(*map(itertools.permutations, classes)):
        yield [v for part in parts for v in part]


def _min_row_major(a: int, b: int, row_bits: list[str], row_classes: list[list[int]],
                   col_classes: list[list[int]]) -> str:
    # The smallest row-major bit string of the a x b matrix whose row i reads
    # row_bits[i] (char j is column j), over the orders of the rows within
    # their classes.  For a fixed row order it is smallest when each column
    # class is sorted by its column vector, first row most significant, so
    # only the row orders are scanned.  Bits are '0'/'1' characters, so the
    # column vectors and the transpose back to rows are string slices.
    best = None
    for order in _class_orders(row_classes):
        matrix = "".join([row_bits[u] for u in order])
        column = [matrix[j::b] for j in range(b)]
        by_columns = "".join(["".join(sorted([column[j] for j in members]))
                              for members in col_classes])
        code = "".join([by_columns[k::a] for k in range(a)])
        if best is None or code < best:
            best = code
    return best


def biadjacency_code(a: int, b: int, rows: list[int]) -> bytes:
    """Canonical code of the connected bipartite graph whose 1 <= a <= b
    packed rows span b columns: equal codes iff isomorphic.

    The code is the smallest row-major biadjacency matrix over
    part-respecting orderings, in both orientations when a == b.  Rows and
    columns are ordered class by class after one refinement (_refine), and
    only the row orders within the row classes are scanned.  Raises
    SizeGuardExceededError before any refinement when a + b exceeds
    _MAX_CODE_VERTICES, and before the scan when the row classes have more
    than _PERM_GUARD orders.
    """
    n = a + b
    if n > _MAX_CODE_VERTICES:
        raise SizeGuardExceededError(
            f"canonical codes store n in one byte: n = {n} exceeds {_MAX_CODE_VERTICES}"
        )
    row_bits = [format(r, f"0{b}b")[::-1] for r in rows]
    matrix = "".join(row_bits)
    col_bits = [matrix[j::b] for j in range(b)]
    cols = [int(c[::-1], 2) for c in col_bits]
    row_classes, col_classes = _refine(rows, cols)
    best = _min_row_major(a, b, row_bits, row_classes, col_classes)
    if a == b:
        best = min(best, _min_row_major(b, a, col_bits, col_classes, row_classes))
    # header bytes 1, n, a: the layout of every cached atlas code
    return bytes([1, n, a]) + int(best, 2).to_bytes((a * b + 7) // 8, "big")



def reference_code(g: Graph) -> bytes:
    """biadjacency_code of g's biadjacency rows, the rows being the part that
    is not larger."""
    parts = bipartition(g)
    if not is_connected(g):
        raise DisconnectedError("canonical forms are computed for connected graphs only")
    if g.n == 1:
        return bytes([1, 1, 0])
    row_part, col_part = sorted((parts.part_a, parts.part_b), key=len)
    column = {w: j for j, w in enumerate(col_part)}
    rows = [sum(1 << column[w] for w in g.neighbors[u]) for u in row_part]
    return biadjacency_code(len(row_part), len(col_part), rows)
