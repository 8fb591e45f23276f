"""Benchmark of toricgraph: time to a checked verdict on four workloads.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sample is a fresh interpreter (perfbench/sample.py) with its own
atlas cache under perfbench/.work, because the package memoizes across
calls.  With --trace 0 the run takes samples until --seconds is spent and
reports medians of the end-to-end metrics; set-up time is also taken from
extra set-up-only interpreters.  With --trace 1 it runs one untraced and
one traced sample and reports the per-layer metrics of the traced one.
The outputs of every sample are checked.  The last line of stdout is the
result as JSON; the line before it records the host and the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
PYCACHE = os.path.join(HERE, ".pycache")
sys.pycache_prefix = PYCACHE

from spans import ROOT as ROOT_SPAN  # noqa: E402
from workloads import WORKLOADS, check  # noqa: E402

SAMPLE = os.path.join(HERE, "sample.py")
SETUP_PROBES = 15
RUN_LIMIT_S = 170  # a run must end within 180 s

SELF_SPANS = (
    "graphs.canonical_form", "graphs.is_connected", "graphs.enumerate_cycles",
    "graphs.matching_number", "atlas.enumerate", "atlas.sweep", "atlas.verify",
    "atlas.cache_store", "atlas.cache_load", "toric.toric_generators",
    "groebner.buchberger.degrevlex", "groebner.buchberger.lex", "groebner.initial_ideal",
    "hilbert.invariant_tuple", "hilbert.edge_ring_hilbert", "hilbert.edge_ring_gb",
    "hilbert.hilbert_numerator", "hilbert.krull_dimension", "hilbert.h_polynomial",
    "betti.betti_table",
)
# per-layer metric name -> tracer counter
COUNTS = {
    "graphs.canonical_form.calls": "graphs.canonical_form.calls",
    "graphs.is_connected.calls": "graphs.is_connected.calls",
    "graphs.cycles": "graphs.cycles",
    "atlas.candidates": "graphs.canonical_form.calls<atlas.enumerate",
    "atlas.classes": "atlas.enumerate.items",
    "atlas.records_written": "atlas.records_written",
    "toric.generators": "toric.generators",
    "groebner.gb_elements.degrevlex": "groebner.gb_elements.degrevlex",
    "groebner.gb_elements.lex": "groebner.gb_elements.lex",
    "hilbert.edge_ring_hilbert.calls": "hilbert.edge_ring_hilbert.calls",
    "betti.betti_table.calls": "betti.betti_table.calls",
}


class SampleError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, work: str, timeout: float) -> dict:
    """Run one sample in a fresh interpreter; its set-up time runs from the
    spawn to the moment it is ready to start the workload."""
    sdir = tempfile.mkdtemp(dir=work)
    out = os.path.join(sdir, "result.json")
    # Bytecode is cached, as for an installed package, but under perfbench/.
    # A fixed hash seed makes set and dict layouts repeat from sample to sample.
    env = dict(
        os.environ,
        TORIC_ATLAS_CACHE=os.path.join(sdir, "atlas-cache"),
        PYTHONPYCACHEPREFIX=PYCACHE,
        PYTHONHASHSEED="0",
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, SAMPLE, workload, str(seed), mode, out]
    # output goes to a file: a full pipe would stall the sample
    with open(os.path.join(sdir, "output.txt"), "w+b") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=sdir, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise SampleError(f"{mode} sample of {workload} did not end within {timeout:.0f} s")
        if code != 0:
            log.seek(0)
            tail = log.read().decode(errors="replace")[-2000:]
            raise SampleError(f"{mode} sample of {workload} exited with {code}:\n{tail}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - start
    shutil.rmtree(sdir, ignore_errors=True)
    return result


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(samples: list[dict], setups: list[float], attempted: int, failed: int) -> dict:
    def median(key: str) -> float:
        return statistics.median(s[key] for s in samples)

    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (median("wall_s"), "s"),
        "cpu_s": (median("cpu_s"), "s"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
        "pass_frac": ((attempted - failed) / attempted, "frac"),
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    """Self times, as shares of the traced wall, and counts of the traced
    sample; per-graph latency and the tracing overhead come from the
    untraced one.  Shares, not seconds: an idle layer reads 0 on every run."""
    self_s, counts, wall = traced["self_s"], traced["counts"], traced["wall_s"]
    metrics = {f"{span}.self_frac": (self_s.get(span, 0.0) / wall, "frac") for span in SELF_SPANS}
    metrics.update({name: (counts.get(key, 0), "count") for name, key in COUNTS.items()})
    candidates = counts.get(COUNTS["atlas.candidates"], 0)
    classes = counts.get(COUNTS["atlas.classes"], 0)
    metrics["atlas.dedup_ratio"] = (classes / candidates if candidates else 0.0, "ratio")
    metrics["graph.p50_ms"] = (percentile(untraced["latencies_s"], 50) * 1000, "ms")
    metrics["graph.p90_ms"] = (percentile(untraced["latencies_s"], 90) * 1000, "ms")
    metrics["trace.unspanned_frac"] = (self_s.get(ROOT_SPAN, 0.0) / wall, "frac")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_frac"] = (wall / untraced["wall_s"] - 1, "frac")
    return metrics


def accounted(traced: dict) -> tuple[str, bool]:
    """Self times, the unspanned remainder included, must sum to the wall."""
    total = sum(traced["self_s"].values())
    return (f"self times sum to {total:.4f} s of {traced['wall_s']:.4f} s traced wall",
            abs(total - traced["wall_s"]) <= 0.01 * traced["wall_s"] + 0.001)


def measure(workload: str, seed: int, seconds: int, trace: bool, work: str):
    start = time.monotonic()

    def sample(mode: str) -> dict:
        return spawn(workload, seed, mode, work, RUN_LIMIT_S - (time.monotonic() - start))

    checks: list[tuple[str, bool]] = []
    samples: list[dict] = []
    while True:
        samples.append(sample("run"))
        checks += check(workload, seed, samples[-1]["outputs"])
        elapsed = time.monotonic() - start
        if trace or elapsed * (len(samples) + 1) / len(samples) > seconds:
            break
    setups = [s["setup_s"] for s in samples]
    if trace:
        traced = sample("trace")
        checks += check(workload, seed, traced["outputs"]) + [accounted(traced)]
        return samples, setups, checks, per_layer(traced, samples[0])
    setups += [sample("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    failed = sum(not ok for _, ok in checks)
    return samples, setups, checks, end_to_end(samples, setups, len(checks), failed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "toricgraph", "__init__.py")):
        print(f"perfbench: no toricgraph package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK)
    try:
        samples, setups, checks, metrics = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work)
    except SampleError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [desc for desc, ok in checks if not ok]
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "implementation": platform.python_implementation(),
                 "machine": platform.machine()},
        "samples": len(samples),
        "setups": len(setups),
        "wall_s": [s["wall_s"] for s in samples],
        "failures": failures[:20],
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(checks),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
