"""Workload definitions and the checks on their outputs.

This module does not import the package, so the benchmark can tell a
checkout without it from a broken one.  Expected values are independent of
the package: class counts from OEIS A005142 and the closed-form pair set of
the paper, written out here.
"""

from __future__ import annotations

import random

WORKLOADS = ("atlas-2to9", "atlas-2to9-jobs2", "enumerate-n10", "witness-grid")
SWEEP_NS = range(2, 10)
ENUMERATE_N = 10
WITNESS_NS = (10, 11)

# connected bipartite graphs on n unlabeled vertices
A005142 = {2: 1, 3: 1, 4: 3, 5: 5, 6: 17, 7: 44, 8: 182, 9: 730, 10: 4032}


def closed_form_pairs(n: int) -> set[tuple[int, int]]:
    """{(0,0)} | {(r, p) : 0 < r < floor(n/2), 1 <= p <= r(n-2-r)}."""
    return {(0, 0)} | {(r, p) for r in range(1, n // 2) for p in range(1, r * (n - 2 - r) + 1)}


def witness_tuple(n: int, r: int, p: int) -> tuple[int, ...]:
    """(reg, deg h, pdim, depth, dim) that a witness for (r, p) must have."""
    return (r, r, p, n - 1, n - 1)


def witness_inputs(seed: int) -> list[tuple[str, int, int, int]]:
    """Every constructor witness at n = 10, 11: the chorded-cycle form for
    p <= r^2 and the complete-core form for r^2 <= p <= r(n-2-r), in an
    order permuted by the seed."""
    out = []
    for n in WITNESS_NS:
        for r in range(1, n // 2):
            out += [("cycle_core", n, r, p) for p in range(1, r * r + 1)]
            out += [("complete_core", n, r, p) for p in range(r * r, r * (n - 2 - r) + 1)]
    random.Random(seed).shuffle(out)
    return out


def check(workload: str, seed: int, outputs, classes=A005142, tuple_of=witness_tuple):
    """(description, passed) for every check on one sample's outputs."""
    if workload.startswith("atlas-"):
        checks = [("every n swept", sorted(map(int, outputs)) == list(SWEEP_NS))]
        for key, o in outputs.items():
            n = int(key)
            pairs = {tuple(p) for p in o["pairs"]}
            checks += [
                (f"n={n}: {o['classes']} classes, A005142 has {classes[n]}",
                 o["classes"] == classes[n]),
                (f"n={n}: pair set equals the closed form", pairs == closed_form_pairs(n)),
                (f"n={n}: {len(pairs)} pairs, cardinality_formula gives {o['cardinality_formula']}",
                 len(pairs) == o["cardinality_formula"]),
                (f"n={n}: report has no counterexample: {o['counterexamples'][:3]}",
                 o["equal"] and not o["counterexamples"]),
                (f"n={n}: {o['records']} cache records for {o['classes']} classes",
                 o["records"] == o["classes"]),
            ]
        return checks
    if workload == "enumerate-n10":
        return [(f"n={ENUMERATE_N}: {outputs['classes']} classes, A005142 has "
                 f"{classes[ENUMERATE_N]}", outputs["classes"] == classes[ENUMERATE_N])]
    expected = witness_inputs(seed)
    checks = [("every witness analyzed in order", [tuple(o[:4]) for o in outputs] == expected)]
    for kind, n, r, p, tup in outputs:
        checks.append((f"{kind}({n}, {r}, {p}) gave {tup}", tuple(tup) == tuple_of(n, r, p)))
    return checks
