"""Self-check of the benchmark itself.

1. Two traced samples of each serial workload give identical counts, and
   their self times account for the traced wall time.
2. Counts fixed by the mathematics come out right: 4,032 classes at n=10,
   983 cache records for n <= 9, 162 Betti tables (classes with q <= 8),
   118 witnesses.
3. The checks pass on real outputs and fail when an expected class count
   or witness tuple is deliberately wrong.
4. The metrics a run prints are exactly those BENCHMARK.json lists.
5. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   non-zero without printing a result.

Usage: python3 perfbench/selfcheck.py    (about two minutes; exit 0 = pass)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
from workloads import A005142, check

FIXED_COUNTS = {
    "atlas-2to9": {"atlas.enumerate.items": 983, "atlas.records_written": 983,
                   "betti.betti_table.calls": 162},
    "enumerate-n10": {"atlas.enumerate.items": 4032},
    "witness-grid": {"hilbert.invariant_tuple.calls<trace.root": 118},
}
WRONG = {
    "atlas-2to9": {"classes": {**A005142, 9: 731}},
    "enumerate-n10": {"classes": {**A005142, 10: 4033}},
    "witness-grid": {"tuple_of": lambda n, r, p: (r, r, p + 1, n - 1, n - 1)},
}


def main() -> int:
    problems: list[str] = []
    os.makedirs(run.WORK, exist_ok=True)
    work = tempfile.mkdtemp(dir=run.WORK)
    try:
        for workload, fixed in FIXED_COUNTS.items():
            first, second = (run.spawn(workload, 0, "trace", work, 600) for _ in range(2))
            if first["counts"] != second["counts"]:
                diff = {k for k in first["counts"].keys() | second["counts"].keys()
                        if first["counts"].get(k) != second["counts"].get(k)}
                problems.append(f"{workload}: counts differ between traced runs: {sorted(diff)}")
            for key, want in fixed.items():
                if first["counts"].get(key) != want:
                    problems.append(f"{workload}: {key} = {first['counts'].get(key)}, want {want}")
            for sample in (first, second):
                desc, ok = run.accounted(sample)
                if not ok:
                    problems.append(f"{workload}: {desc}")
            if not all(ok for _, ok in check(workload, 0, first["outputs"])):
                problems.append(f"{workload}: checks fail on real outputs")
            if all(ok for _, ok in check(workload, 0, first["outputs"], **WRONG[workload])):
                problems.append(f"{workload}: a wrong expectation went unnoticed")
            print(f"{workload}: counts {dict(sorted(first['counts'].items()))}")

        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        printed = {"end_to_end": run.end_to_end([first], [0.1], 1, 0),
                   "per_layer": run.per_layer(first, first)}
        for kind, metrics in printed.items():
            listed = {m["name"]: m["unit"] for m in spec[kind]}
            if listed != {name: unit for name, (_, unit) in metrics.items()}:
                problems.append(f"{kind} metrics differ from BENCHMARK.json")

        bare = os.path.join(work, "bare")
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", ".pycache"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "atlas-2to9", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout:
            problems.append(f"without the package run.py exited {proc.returncode} "
                            f"and printed {proc.stdout!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
