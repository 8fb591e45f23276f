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
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing import Pool

from .betti import BettiTable, betti_table, euler_numerator, invariants_from_betti
from .graphs import (
    Graph,
    SizeGuardExceededError,
    _split_classes,
    canonical_form,  # unused here; perfbench/spans.py rebinds atlas.canonical_form
    is_connected,  # unused here; perfbench/spans.py rebinds atlas.is_connected
    matching_number,
    max_edges_for_reg,
)
from .groebner import DEGREVLEX, LEX
from .hilbert import (
    IntPoly,
    InvariantTuple,
    edge_ring_hilbert,
    invariant_tuple,
    poly_mul,
)

ENUMERATION_GUARD = 10
CACHE_ENV = "TORIC_ATLAS_CACHE"


@dataclass(frozen=True)
class AtlasRecord:
    """One row per isomorphism class: canonical code, sizes, invariants, and
    the h-polynomials from both monomial orders (their agreement is one of
    the swept properties)."""

    code: str
    n: int
    q: int
    invariants: InvariantTuple
    matching: int
    seconds: float
    h_poly: IntPoly
    h_poly_lex: IntPoly


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


def _enumerate_with_codes(n: int, force: bool = False):
    _check_guard(n, force)
    for a in range(1, n // 2 + 1):
        for code, edges in _split_classes(a, n - a):
            yield code, Graph(n, edges)


def enumerate_connected_bipartite(n: int, force: bool = False):
    """One representative Graph per isomorphism class of connected bipartite
    graphs on n vertices, in order of canonical code."""
    for _, g in _enumerate_with_codes(n, force):
        yield g


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
    invariants, matching number, and the h-polynomial under both monomial
    orders."""
    start = time.perf_counter()
    data = edge_ring_hilbert(g, DEGREVLEX)
    inv = invariant_tuple(g, data)
    h_lex = edge_ring_hilbert(g, LEX).h_poly
    mat = matching_number(g)
    elapsed = time.perf_counter() - start
    return AtlasRecord(
        code=code.hex(),
        n=g.n,
        q=g.q,
        invariants=inv,
        matching=mat,
        seconds=round(elapsed, 6),
        h_poly=data.h_poly,
        h_poly_lex=h_lex,
    )


def _analyze_edges(args: tuple[int, tuple, bytes]) -> AtlasRecord:
    n, edges, code = args
    return analyze_graph(Graph(n, edges), code)


def _betti_job(args: tuple[int, tuple, int, int]) -> BettiTable | None:
    """The Betti table of one graph, or None when a nonzero Betti number lies
    outside the record's (reg, pdim)."""
    n, edges, reg, pdim = args
    try:
        return betti_table(Graph(n, edges), reg, pdim)
    except AssertionError:
        return None


# ---------------------------------------------------------------------------
# persistent cache: JSONL, one record per line, last write wins; a sweep
# appends its new records to a file it first trims to one line per class


def cache_dir() -> str:
    # an empty value counts as unset
    return os.environ.get(CACHE_ENV) or os.path.join(".", "atlas-cache")


def _cache_path(n: int) -> str:
    return os.path.join(cache_dir(), f"atlas-n{n}.jsonl")


def record_to_json_dict(rec: AtlasRecord) -> dict:
    return {
        "code": rec.code,
        "n": rec.n,
        "q": rec.q,
        "reg": rec.invariants.reg,
        "deg_h": rec.invariants.deg_h,
        "pdim": rec.invariants.pdim,
        "depth": rec.invariants.depth,
        "dim": rec.invariants.dim,
        "mat": rec.matching,
        "seconds": rec.seconds,
        "h": list(rec.h_poly),
        "h_lex": list(rec.h_poly_lex),
    }


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _record_from_json_dict(d: dict) -> AtlasRecord:
    # a wrongly typed field raises ValueError, so cache_load skips the line
    # and the class is analyzed again
    if not (
        isinstance(d["code"], str)
        and all(_is_int(d[k]) for k in ("n", "q", "reg", "deg_h", "pdim", "depth", "dim", "mat"))
        and all(isinstance(d[k], list) and all(map(_is_int, d[k])) for k in ("h", "h_lex"))
        and isinstance(d["seconds"], (int, float)) and not isinstance(d["seconds"], bool)
    ):
        raise ValueError("cache record field of the wrong type")
    return AtlasRecord(
        code=d["code"],
        n=d["n"],
        q=d["q"],
        invariants=InvariantTuple(d["reg"], d["deg_h"], d["pdim"], d["depth"], d["dim"]),
        matching=d["mat"],
        seconds=d["seconds"],
        h_poly=tuple(d["h"]),
        h_poly_lex=tuple(d["h_lex"]),
    )


def cache_store(rec: AtlasRecord) -> None:
    path = _cache_path(rec.n)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record_to_json_dict(rec)) + "\n")


def _trim_cache(n: int, kept: list[AtlasRecord]) -> None:
    """Leave the cache file of n holding one line per record of `kept`, the
    records cache_load gave for the current classes.  A file with any other
    line (stale, superseded, corrupted, blank) or a torn last line is
    rewritten to a temporary file that then replaces it, so an interruption
    leaves the old file whole."""
    path = _cache_path(n)
    try:
        # text mode splits lines as cache_load does
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        return
    # every record of `kept` has a line of its own, so as many lines as
    # records, each ended, means no other line
    if text.count("\n") == len(kept) and text[-1:] in ("", "\n"):
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(record_to_json_dict(rec)) + "\n" for rec in kept)
        shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def cache_load(n: int) -> dict[str, AtlasRecord]:
    """Records keyed by canonical code; corrupted lines are reported and
    skipped, duplicate codes resolve to the last complete line."""
    path = _cache_path(n)
    records: dict[str, AtlasRecord] = {}
    if not os.path.exists(path):
        return records
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = _record_from_json_dict(json.loads(line))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                warnings.warn(f"{path}:{lineno}: skipping corrupted cache line")
                continue
            records[rec.code] = rec
    return records


# ---------------------------------------------------------------------------
# sweeping and verification


def sweep(
    n: int,
    jobs: int = 1,
    use_cache: bool = True,
    force: bool = False,
    with_betti_oracle: bool = False,
) -> tuple[list[tuple[Graph, AtlasRecord]], dict[str, BettiTable | None]]:
    """Enumerate all classes on n vertices and attach records, reusing the
    JSONL cache for graphs already analyzed, trimming its file to one line
    per such graph, and storing each new record as it arrives.  Returns
    (rows, tables): rows are (graph, record) pairs sorted by code; with the
    Betti oracle on, tables maps the code of every class with at most 8
    edges to its Betti table, or to None when a nonzero Betti number lies
    outside the record's (reg, pdim), and is {} otherwise.  With
    jobs > 1 one pool of that many workers, opened only when there is work,
    analyzes the missing records and then computes the tables, largest
    first."""
    cached = cache_load(n) if use_cache else {}
    classes = [(code, g, cached.get(code.hex())) for code, g in _enumerate_with_codes(n, force)]
    rows = [(g, rec) for _, g, rec in classes if rec is not None]
    missing = [(code, g) for code, g, rec in classes if rec is None]
    if use_cache:
        _trim_cache(n, [rec for _, rec in rows])
    busy = missing or (with_betti_oracle and any(g.q <= 8 for g, _ in rows))
    with Pool(jobs) if jobs > 1 and busy else nullcontext() as pool:
        tasks = [(g.n, g.edges, code) for code, g in missing]
        # one task per graph is mostly IPC (about 1 ms of work each at n = 9);
        # 16 chunks keep the workers busy and the records streaming in order
        recs = (pool.imap(_analyze_edges, tasks, chunksize=max(1, len(tasks) // 16))
                if pool else map(_analyze_edges, tasks))
        for (_, g), rec in zip(missing, recs):
            rows.append((g, rec))
            if use_cache:
                cache_store(rec)
        rows.sort(key=lambda row: row[1].code)
        checked = sorted(((g, rec) for g, rec in rows if with_betti_oracle and g.q <= 8),
                         key=lambda row: -row[0].q)
        tasks = [(g.n, g.edges, rec.invariants.reg, rec.invariants.pdim) for g, rec in checked]
        tables = dict(zip((rec.code for _, rec in checked),
                          pool.imap(_betti_job, tasks) if pool else map(_betti_job, tasks)))
    return rows, tables


def computed_pairs(
    n: int, jobs: int = 1, use_cache: bool = True, force: bool = False
) -> set[tuple[int, int]]:
    """The set of (regularity, pdim) pairs realized on n vertices."""
    rows, _ = sweep(n, jobs, use_cache, force)
    return {(rec.invariants.reg, rec.invariants.pdim) for _, rec in rows}


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
    """Run the full check for one n over one `sweep`: pair-set equality,
    cardinality, tuple shape, the per-graph property sweep, and optionally
    the Betti oracle on every class with at most 8 edges.  Failures land in
    the report rather than raising."""
    rows, tables = sweep(n, jobs, use_cache, force, with_betti_oracle)
    computed = {(rec.invariants.reg, rec.invariants.pdim) for _, rec in rows}
    theoretical = theoretical_pairs(n)
    passes: dict[str, int] = {}
    failures: list[str] = []

    def note(prop: str, ok: bool, g: Graph, rec: AtlasRecord) -> None:
        passes[prop] = passes.get(prop, 0) + (1 if ok else 0)
        if not ok:
            failures.append(f"{prop}: n={g.n} code={rec.code} edges={g.edges}")

    for g, rec in rows:
        t = rec.invariants
        for prop, ok in property_sweep(g, t, rec.matching):
            note(prop, ok, g, rec)
        note("tuple_shape_r_r_p_n1_n1", t.as_tuple() == (t.reg, t.reg, t.pdim, n - 1, n - 1), g, rec)
        note("h_at_1_nonzero", sum(rec.h_poly) != 0, g, rec)
        note("h_order_independent", rec.h_poly == rec.h_poly_lex, g, rec)
        if rec.code in tables:
            table = tables[rec.code]
            if table is None:
                # a nonzero Betti number outside the record's (reg, pdim)
                note("betti_oracle_agrees", False, g, rec)
                continue
            note("betti_oracle_agrees", invariants_from_betti(table) == (t.reg, t.pdim), g, rec)
            numerator = rec.h_poly
            for _ in range(g.q - t.dim):
                numerator = poly_mul(numerator, (1, -1))
            note("betti_euler_matches_numerator", euler_numerator(table) == numerator, g, rec)
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
        class_count=len(rows),
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
