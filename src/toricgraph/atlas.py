"""Exhaustive atlas over connected bipartite graphs on n vertices.

The classes come from graphs._split_classes, split by split, in order of
canonical code.  The sweep attaches the full invariant pipeline to every
class and checks the realized (regularity, pdim) pairs against the
closed-form target set
{(0,0)} | {(r,p) : 0 < r < floor(n/2), 1 <= p <= r(n-2-r)}.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
import warnings
from collections.abc import Iterator
from contextlib import nullcontext
from dataclasses import dataclass, fields
from multiprocessing import Pool
from typing import TextIO

from .betti import betti_table, euler_numerator, invariants_from_betti
from .graphs import (
    Graph,
    SizeGuardExceededError,
    _check_form_bits,
    _code_form,
    _code_graph,
    _split_classes,
    canonical_form,  # unused here; perfbench/spans.py rebinds atlas.canonical_form
    is_connected,  # unused here; perfbench/spans.py rebinds atlas.is_connected
    matching_number,
    max_edges_for_reg,
)
from .hilbert import (
    IntPoly,
    InvariantTuple,
    edge_ring_hilbert,
    invariant_tuple,
    poly_mul,
)

ENUMERATION_GUARD = 10
# the Betti oracle checks every class with at most this many edges
BETTI_MAX_EDGES = 8
CACHE_ENV = "TORIC_ATLAS_CACHE"
# classes per pool task: one class is mostly IPC (about 1 ms of work at
# n = 9), and small chunks keep the results streaming in code order
CHUNKSIZE = 16


@dataclass(frozen=True)
class AtlasRecord:
    """One row per isomorphism class and one line of its cache file: the
    fields are the line's JSON keys, in order.  The canonical code, the
    sizes, the invariant tuple, the matching number, and the h-polynomials
    of the graph and of its edge list rotated by q // 2 (their agreement is
    one of the swept properties)."""

    code: str
    n: int
    q: int
    reg: int
    deg_h: int
    pdim: int
    depth: int
    dim: int
    mat: int
    seconds: float
    h: IntPoly
    h_rot: IntPoly

    @property
    def invariants(self) -> InvariantTuple:
        return InvariantTuple(self.reg, self.deg_h, self.pdim, self.depth, self.dim)


@dataclass(frozen=True)
class VerificationReport:
    n: int
    computed: tuple[tuple[int, int], ...]
    theoretical: tuple[tuple[int, int], ...]
    equal: bool
    class_count: int
    property_passes: dict[str, int]
    counterexamples: tuple[str, ...]


def _check_guard(n: int, force: bool) -> None:
    if n < 2:
        raise SizeGuardExceededError(f"need n >= 2, got {n}")
    if n > ENUMERATION_GUARD and not force:
        raise SizeGuardExceededError(
            f"n = {n} exceeds the guard {ENUMERATION_GUARD}; "
            "pass force=True (--force) to override"
        )
    # the widest split, a = n // 2, comes last: refuse it before the first
    _check_form_bits(n // 2, n - n // 2)


def _enumerate_with_codes(n: int, force: bool = False):
    """The canonical code of every class on n vertices, in code order."""
    _check_guard(n, force)
    for a in range(1, n // 2 + 1):
        yield from _split_classes(a, n - a)


def enumerate_connected_bipartite(n: int, force: bool = False):
    """One representative Graph per isomorphism class of connected bipartite
    graphs on n vertices, in order of canonical code."""
    for code in _enumerate_with_codes(n, force):
        yield _code_graph(code)


def theoretical_pairs(n: int) -> set[tuple[int, int]]:
    """The closed-form target set of realizable (regularity, pdim) pairs."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    pairs = {(0, 0)}
    for r in range(1, n // 2):
        for p in range(1, r * (n - 2 - r) + 1):
            pairs.add((r, p))
    return pairs


def cardinality_formula(n: int) -> int:
    """Closed form for the number of realizable pairs."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    f = n // 2
    val = f * (f - 1) * (2 * f - 3 * n + 5)
    assert val % 6 == 0
    return 1 - val // 6


def analyze_graph(g: Graph, code: bytes) -> AtlasRecord:
    """Full pipeline for one graph whose canonical form is `code`:
    invariants, matching number, and the h-polynomial of g and of g with its
    edge list rotated by q // 2."""
    start = time.perf_counter()
    data = edge_ring_hilbert(g)
    inv = invariant_tuple(g, data)
    h_rot = edge_ring_hilbert(Graph(g.n, g.edges[g.q // 2:] + g.edges[:g.q // 2])).h_poly
    mat = matching_number(g)
    elapsed = time.perf_counter() - start
    return AtlasRecord(code.hex(), g.n, g.q, *inv.as_tuple(), mat, round(elapsed, 6),
                       data.h_poly, h_rot)


def _job(task: tuple[bytes, AtlasRecord | bool, bool]
         ) -> tuple[bytes, AtlasRecord | None, list[tuple[str, bool]]]:
    """The code `task[0]` of a class, its new record or None, and the Betti
    oracle's (property, ok) verdicts on it.  `task[1]` is False when the
    class has no record yet, so it is analyzed here; True when the parent
    holds its record; or that record itself when the oracle needs it.  The
    verdicts are none with the oracle off, betti_oracle_agrees then
    betti_euler_matches_numerator with it on, and betti_oracle_agrees alone,
    failed, when a nonzero Betti number lies outside the record's (reg,
    pdim).  The graph is decoded here from the code, and only to analyze it
    or to build its table, so a task is small to send and the sweep's own
    graphs cache nothing the analysis computes."""
    code, cached, oracle = task
    if cached is True:
        return code, None, []
    g = _code_graph(code)
    new = None if cached else analyze_graph(g, code)
    if not oracle:
        return code, new, []
    rec = cached or new
    try:
        table = betti_table(g, rec.reg, rec.pdim)
    except AssertionError:
        return code, new, [("betti_oracle_agrees", False)]
    numerator = rec.h
    for _ in range(g.q - rec.dim):
        numerator = poly_mul(numerator, (1, -1))
    return code, new, [
        ("betti_oracle_agrees", invariants_from_betti(table) == (rec.reg, rec.pdim)),
        ("betti_euler_matches_numerator", euler_numerator(table) == numerator)]


# ---------------------------------------------------------------------------
# persistent cache: JSONL, one record per line, last write wins; a sweep
# appends its new records to a file it first trims to one line per class


def cache_dir() -> str:
    # an empty value counts as unset
    return os.environ.get(CACHE_ENV) or os.path.join(".", "atlas-cache")


def _cache_path(n: int) -> str:
    return os.path.join(cache_dir(), f"atlas-n{n}.jsonl")


def record_to_json_dict(rec: AtlasRecord) -> dict:
    return dict(vars(rec), h=list(rec.h), h_rot=list(rec.h_rot))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# the JSON values a field admits, by its annotation
_ADMITS = {
    "str": lambda x: isinstance(x, str),
    "int": _is_int,
    "float": lambda x: _is_int(x) or isinstance(x, float),
    "IntPoly": lambda x: isinstance(x, list) and all(map(_is_int, x)),
}


def _record_from_json_dict(d: dict) -> AtlasRecord:
    # a missing key raises KeyError and a wrongly typed field ValueError, so
    # cache_load skips the line and the class is analyzed again
    values = [d[f.name] for f in fields(AtlasRecord)]
    if not all(_ADMITS[f.type](v) for f, v in zip(fields(AtlasRecord), values)):
        raise ValueError("cache record field of the wrong type")
    return AtlasRecord(*(tuple(v) if isinstance(v, list) else v for v in values))


def _cache_line(rec: AtlasRecord) -> str:
    return json.dumps(record_to_json_dict(rec)) + "\n"


def _cache_append(n: int) -> TextIO:
    """The cache file of n, opened for appending."""
    path = _cache_path(n)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return open(path, "a", encoding="utf-8")


def cache_store(rec: AtlasRecord, fh: TextIO | None = None) -> None:
    """Append the line of rec to fh, an append handle on the cache file of
    rec.n, or else to that file opened for this line alone, and flush it:
    a sweep cut short keeps every record written before the cut."""
    with _cache_append(rec.n) if fh is None else nullcontext(fh) as out:
        out.write(_cache_line(rec))
        out.flush()


def _trim_cache(n: int, kept: list[AtlasRecord]) -> None:
    """Leave the cache file of n holding one line per record of `kept`, the
    records cache_load gave for the current classes.  A file with any other
    line (stale, superseded, corrupted, blank) or a torn last line is
    rewritten to a temporary file that then replaces it, so an interruption
    leaves the old file whole."""
    path = _cache_path(n)
    try:
        # text mode splits lines as cache_load does; they are counted as
        # read, so the file is never held whole
        with open(path, encoding="utf-8", errors="replace") as fh:
            lines, line = 0, "\n"
            for line in fh:
                lines += 1
    except FileNotFoundError:
        return
    # every record of `kept` has a line of its own, so as many lines as
    # records, each ended, means no other line
    if lines == len(kept) and line.endswith("\n"):
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(map(_cache_line, kept))
        shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def cache_load(n: int) -> dict[str, AtlasRecord]:
    """Records keyed by canonical code; corrupted lines are skipped with one
    warning per file, duplicate codes resolve to the last complete line."""
    path = _cache_path(n)
    records: dict[str, AtlasRecord] = {}
    if not os.path.exists(path):
        return records
    skipped: list[int] = []
    # a byte that is not UTF-8 spoils its line only: the line fails to parse
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = _record_from_json_dict(json.loads(line))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                skipped.append(lineno)
                continue
            records[rec.code] = rec
    if skipped:
        warnings.warn(f"{path}: skipping {len(skipped)} corrupted cache line(s), "
                      f"the first at line {skipped[0]}")
    return records


# ---------------------------------------------------------------------------
# sweeping and verification


def sweep(
    n: int,
    jobs: int = 1,
    use_cache: bool = True,
    force: bool = False,
    with_betti_oracle: bool = False,
) -> Iterator[tuple[Graph, AtlasRecord, list[tuple[str, bool]]]]:
    """Yield (graph, record, verdicts) for every class on n vertices in code
    order, each as its result arrives, in one pass: each class becomes one
    task, _job's triple, as it is enumerated.  Records of graphs already
    analyzed come from the JSONL cache and stay in this process unless the
    Betti oracle needs them; each new record is appended through one handle
    and flushed.  verdicts are _job's Betti oracle verdicts, empty for a
    class with more than BETTI_MAX_EDGES edges or with the oracle off.  The
    graph yielded is decoded afresh from the code.  With jobs > 1 one pool of
    that many workers runs the tasks, opened before the cache is read and
    the classes are enumerated, so no worker maps the parent's pages; its
    task thread enumerates the classes while the workers analyze them.

    The cache file is trimmed to its usable records before the first
    append.  A cached record that no class took names no class, so the file
    is then trimmed once more, to one line per class."""
    # enumeration checks it too, but only once the pool is open
    _check_guard(n, force)
    with Pool(jobs) if jobs > 1 else nullcontext() as pool:
        cached = cache_load(n) if use_cache else {}
        if use_cache:
            _trim_cache(n, list(cached.values()))

        # with a pool, task_of runs in the pool's task thread; it reads only
        # codes that the loop below, which pops them, has not reached yet
        def task_of(code: bytes) -> tuple[bytes, AtlasRecord | bool, bool]:
            # a class's edge count q is the popcount of the form its code packs
            oracle = with_betti_oracle and _code_form(code).bit_count() <= BETTI_MAX_EDGES
            rec = cached.get(code.hex())
            if rec is None:
                return code, False, oracle
            # a cached record stays here unless the oracle needs it
            return code, rec if oracle else True, oracle

        tasks = map(task_of, _enumerate_with_codes(n, force))
        # the file opens after the pool forks, so no worker holds the handle
        with _cache_append(n) if use_cache else nullcontext() as out:
            done = pool.imap(_job, tasks, chunksize=CHUNKSIZE) if pool else map(_job, tasks)
            for code, new, verdicts in done:
                if new is None:
                    rec = cached.pop(code.hex())
                else:
                    rec = new
                    if out is not None:
                        cache_store(new, out)
                yield _code_graph(code), rec, verdicts
    if cached:
        _trim_cache(n, [rec for code, rec in cache_load(n).items() if code not in cached])


def property_sweep(g: Graph, t: InvariantTuple, mat: int) -> list[tuple[str, bool]]:
    """Per-graph inequalities and equivalences, given the invariant tuple and
    the matching number of g; all must hold."""
    n, q = g.n, g.q
    forest = q == n - 1  # connected, so acyclic iff tree
    return [
        ("dim_depth_n_minus_1", t.dim == n - 1 and t.depth == n - 1),
        ("pdim_q_n_1", t.pdim == q - n + 1),
        ("reg_below_half_n", 0 <= t.reg < n // 2),
        ("reg_le_mat_minus_1", t.reg <= mat - 1),
        ("mat_le_half_n", mat <= n // 2),
        ("edges_le_reg_bound", q <= max_edges_for_reg(t.reg, n)),
        ("forest_iff_reg0_iff_pdim0", forest == (t.reg == 0) == (t.pdim == 0)),
    ]


def verify(
    n: int,
    jobs: int = 1,
    with_betti_oracle: bool = False,
    use_cache: bool = True,
    force: bool = False,
) -> VerificationReport:
    """Run the full check for one n over one `sweep`, class by class as the
    classes arrive: pair-set equality, cardinality, tuple shape, the
    per-graph property sweep, and optionally the Betti oracle on every
    class with at most BETTI_MAX_EDGES edges.  Only the pair set, the pass
    counts and the failures are kept.  Failures land in the report rather
    than raising."""
    computed: set[tuple[int, int]] = set()
    passes: dict[str, int] = {}
    failures: list[str] = []
    class_count = 0
    for g, rec, verdicts in sweep(n, jobs, use_cache, force, with_betti_oracle):
        class_count += 1
        t = rec.invariants
        computed.add((t.reg, t.pdim))
        for prop, ok in [
            *property_sweep(g, t, rec.mat),
            ("tuple_shape_r_r_p_n1_n1", t.as_tuple() == (t.reg, t.reg, t.pdim, n - 1, n - 1)),
            ("h_at_1_nonzero", sum(rec.h) != 0),
            ("h_order_independent", rec.h == rec.h_rot),
            *verdicts,
        ]:
            passes[prop] = passes.get(prop, 0) + (1 if ok else 0)
            if not ok:
                failures.append(f"{prop}: n={g.n} code={rec.code} edges={g.edges}")
    theoretical = theoretical_pairs(n)
    if computed != theoretical:
        failures.append(
            f"pair sets differ: missing={sorted(theoretical - computed)} "
            f"extra={sorted(computed - theoretical)}"
        )
    if len(computed) != cardinality_formula(n):
        failures.append(
            f"pair count {len(computed)} != formula {cardinality_formula(n)}"
        )
    return VerificationReport(
        n=n,
        computed=tuple(sorted(computed)),
        theoretical=tuple(sorted(theoretical)),
        equal=computed == theoretical,
        class_count=class_count,
        property_passes=passes,
        counterexamples=tuple(failures),
    )


def report_to_json_dict(report: VerificationReport) -> dict:
    return {
        "n": report.n,
        "equal": report.equal,
        "computed": [list(p) for p in report.computed],
        "theoretical": [list(p) for p in report.theoretical],
        "class_count": report.class_count,
        "failures": list(report.counterexamples),
        "property_passes": dict(sorted(report.property_passes.items())),
    }
