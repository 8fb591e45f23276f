"""One benchmark sample in a fresh interpreter.

The package keeps module-level memos (the sweep memo, the Hilbert numerator
memo and unbounded lru_caches), so a second sample in the same process
would do almost no work.  Each sample therefore sets up, runs one workload
once and writes a JSON file with its timings and the program's outputs.
The parent (run.py) checks the outputs; this file only measures.

Usage: python3 perfbench/sample.py WORKLOAD SEED MODE OUT
MODE is "setup" (set up and stop), "run" or "trace".  The atlas cache goes
wherever TORIC_ATLAS_CACHE points, which the parent sets per sample.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from toricgraph import atlas, graphs, hilbert  # noqa: E402
from toricgraph.atlas import cache_load  # bound before tracing wraps it  # noqa: E402

from spans import ROOT as ROOT_SPAN, Tracer, install  # noqa: E402
from workloads import ENUMERATE_N, SWEEP_NS, WORKLOADS, witness_inputs  # noqa: E402


def build_witnesses(seed: int):
    make = {"cycle_core": graphs.cycle_core_graph, "complete_core": graphs.complete_core_graph}
    return [(w, make[w[0]](*w[1:])) for w in witness_inputs(seed)]


def sweep_outputs(reports) -> tuple[dict, list[float]]:
    """Outputs to check, plus per-graph analysis seconds read back from the
    cache records the sweep wrote."""
    out, latencies = {}, []
    for n, report in reports.items():
        records = cache_load(n)
        latencies += [rec.seconds for rec in records.values()]
        out[n] = {
            "classes": report.class_count,
            "pairs": [list(p) for p in report.computed],
            "equal": report.equal,
            "counterexamples": list(report.counterexamples),
            "cardinality_formula": atlas.cardinality_formula(n),
            "records": len(records),
        }
    return out, latencies


def main() -> int:
    workload, seed, mode, out_path = sys.argv[1:]
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}")
    witnesses = build_witnesses(int(seed)) if workload == "witness-grid" else None
    ready = time.monotonic()
    result = {"ready": ready}
    if mode == "setup":
        return write(out_path, result)

    tracer = Tracer() if mode == "trace" else None
    if tracer:
        install(tracer)
        tracer.enter(ROOT_SPAN)
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    latencies: list[float] = []
    if workload.startswith("atlas-"):
        jobs = 2 if workload.endswith("jobs2") else 1
        verdict = {n: atlas.verify(n, jobs=jobs, with_betti_oracle=True) for n in SWEEP_NS}
    elif workload == "enumerate-n10":
        count = 0
        last = time.perf_counter()
        for g in atlas.enumerate_connected_bipartite(ENUMERATE_N):
            now = time.perf_counter()
            latencies.append(now - last)
            last = now
            count += 1
        verdict = {"classes": count}
    else:
        verdict = []
        for w, g in witnesses:
            t = time.perf_counter()
            tup = hilbert.invariant_tuple(g).as_tuple()
            latencies.append(time.perf_counter() - t)
            verdict.append([*w, list(tup)])
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0
    if tracer:
        tracer.exit()

    if workload.startswith("atlas-"):
        verdict, latencies = sweep_outputs(verdict)
    usage = max(resource.getrusage(who).ru_maxrss
                for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=usage / 1024,  # ru_maxrss is in KiB on Linux
        latencies_s=latencies,
        outputs=verdict,
    )
    if tracer:
        result["self_s"] = dict(tracer.self_s)
        result["counts"] = dict(tracer.counts)
    return write(out_path, result)


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def write(path: str, result: dict) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
