"""Command-line front end.

Subcommands: invariants, construct, enumerate, verify, count, betti, plot.
Exit codes: 0 success, 1 usage or size guard, 2 domain error (not bipartite,
disconnected, empty, malformed input), 3 internal assertion or verification
counterexample.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from . import atlas
from .betti import betti_table, betti_to_json_dict, invariants_from_betti, render_betti
from .graphs import (
    DisconnectedError,
    Graph,
    GraphFormatError,
    NotBipartiteError,
    SizeGuardExceededError,
    complete_bipartite,
    cycle_core_graph,
    complete_core_graph,
    cycle_graph,
    graph_to_json,
    parse_graph,
    parse_graph_json,
    path_graph,
    realizing_graph,
    star,
)
from .hilbert import invariant_tuple, tuple_as_json_dict
from .toric import EmptyEdgeSetError

_FAMILIES = {
    "star": (1, star),
    "path": (1, path_graph),
    "cycle": (1, cycle_graph),
    "complete-bipartite": (2, complete_bipartite),
    "gnrp": (3, cycle_core_graph),
    "hnrp": (3, complete_core_graph),
    "realizing": (2, realizing_graph),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _jobs(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    # one worker process per CPU at most: a typo must not fork hundreds
    cap = os.cpu_count() or 1
    if int(text) > cap:
        raise argparse.ArgumentTypeError(f"must be at most {cap}, got {text!r}")
    return int(text)


def _check_out(path: str) -> None:
    # called before the sweep, so that an --out that cannot be written costs no sweep
    parent = os.path.dirname(path)
    if parent and not os.path.isdir(parent):
        raise ValueError(f"--out directory {parent!r} does not exist")
    if os.path.isdir(path):
        raise ValueError(f"--out {path!r} is a directory")


def _family_graph(name: str, params: list[int]) -> Graph:
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}; choose from {sorted(_FAMILIES)}")
    arity, builder = _FAMILIES[name]
    if len(params) != arity:
        raise ValueError(f"family {name!r} takes {arity} parameter(s), got {len(params)}")
    return builder(*params)


def _load_graph(args) -> Graph:
    if args.graph is not None:
        try:
            with open(args.graph, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise GraphFormatError(f"cannot read {args.graph}: {exc}") from None
        stripped = text.lstrip()
        if args.graph.endswith(".json") or stripped.startswith("{"):
            return parse_graph_json(text)
        return parse_graph(text)
    if args.family is not None:
        return _family_graph(args.family, args.params or [])
    raise ValueError("either --graph FILE or --family NAME is required")


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", metavar="FILE", help="edge-list or JSON graph file")
    p.add_argument("--family", choices=sorted(_FAMILIES), help="built-in graph family")
    p.add_argument("--params", type=int, nargs="*", help="family parameters")


def cmd_invariants(args) -> int:
    g = _load_graph(args)
    t = invariant_tuple(g)
    if args.json:
        print(json.dumps(tuple_as_json_dict(t, g.n)))
    else:
        print(str(t.as_tuple()))
    return 0


def cmd_construct(args) -> int:
    g = _load_graph(args)
    if args.json:
        print(graph_to_json(g))
    else:
        print(f"# n={g.n} q={g.q}")
        for u, v in g.edges:
            print(f"{u} {v}")
    return 0


def cmd_enumerate(args) -> int:
    count = 0
    for g in atlas.enumerate_connected_bipartite(args.n, force=args.force):
        count += 1
        if args.json:
            print(graph_to_json(g))
        else:
            print(" ".join(f"{u}-{v}" for u, v in g.edges))
    print(f"n={args.n}: {count} classes", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    out = args.out or f"verify-n{args.n}.json"
    _check_out(out)
    report = atlas.verify(
        args.n,
        jobs=args.jobs,
        with_betti_oracle=args.with_betti_oracle,
        use_cache=not args.no_cache,
        force=args.force,
    )
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(atlas.report_to_json_dict(report), fh, indent=2)
        fh.write("\n")
    status = "MATCH" if report.equal and not report.counterexamples else "MISMATCH"
    print(f"n={args.n}: {report.class_count} classes, {len(report.computed)} pairs, {status}")
    if report.counterexamples:
        for line in report.counterexamples:
            print(f"counterexample: {line}", file=sys.stderr)
        return 3
    return 0


def cmd_count(args) -> int:
    print(atlas.cardinality_formula(args.n))
    return 0


def cmd_betti(args) -> int:
    g = _load_graph(args)
    t = invariant_tuple(g)
    table = betti_table(g, t.reg, t.pdim)
    if args.json:
        payload = betti_to_json_dict(table)
        payload["reg"], payload["pdim"] = invariants_from_betti(table)
        print(json.dumps(payload))
    else:
        print(render_betti(table))
        reg, pdim = invariants_from_betti(table)
        print(f"reg={reg} pdim={pdim}")
    return 0


def _scatter_svg(pairs, n: int) -> str:
    rmax = max((r for r, _ in pairs), default=0)
    pmax = max((p for _, p in pairs), default=0)
    step = 36
    width = (rmax + 2) * step + 70
    height = (pmax + 2) * step + 70
    ox, oy = 50, height - 50

    def sx(r):
        return ox + (r + 0.5) * step

    def sy(p):
        return oy - (p + 0.5) * step

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<text x="{width / 2:.0f}" y="18" text-anchor="middle" font-size="14">'
        f"realizable pairs, n={n}</text>",
        f'<line x1="{ox}" y1="{oy}" x2="{width - 12}" y2="{oy}" stroke="black"/>',
        f'<line x1="{ox}" y1="{oy}" x2="{ox}" y2="30" stroke="black"/>',
        f'<text x="{width - 12}" y="{oy + 16}" text-anchor="end" font-size="12">r = reg</text>',
        f'<text x="{ox - 6}" y="28" text-anchor="end" font-size="12">p = pdim</text>',
    ]
    for r in range(rmax + 1):
        parts.append(
            f'<text x="{sx(r):.0f}" y="{oy + 16}" text-anchor="middle" font-size="11">{r}</text>'
        )
    for p in range(0, pmax + 1, 2 if pmax > 8 else 1):
        parts.append(
            f'<text x="{ox - 6}" y="{sy(p) + 4:.0f}" text-anchor="end" font-size="11">{p}</text>'
        )
    for r, p in sorted(pairs):
        parts.append(f'<circle cx="{sx(r):.0f}" cy="{sy(p):.0f}" r="4" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def cmd_plot(args) -> int:
    if not args.out.endswith((".csv", ".svg")):
        raise ValueError(f"--out must end in .csv or .svg, got {args.out!r}")
    _check_out(args.out)
    if args.source == "computed":
        report = atlas.verify(args.n, jobs=args.jobs, force=args.force)
        pairs, failures = report.computed, report.counterexamples
    else:
        pairs, failures = atlas.theoretical_pairs(args.n), ()
    with open(args.out, "w", encoding="utf-8") as fh:
        if args.out.endswith(".csv"):
            fh.write("r,p\n")
            for r, p in sorted(pairs):
                fh.write(f"{r},{p}\n")
        else:
            fh.write(_scatter_svg(pairs, args.n))
            fh.write("\n")
    print(f"wrote {len(pairs)} points to {args.out}")
    for line in failures:
        print(f"counterexample: {line}", file=sys.stderr)
    return 3 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="toricgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="invariant tuple of one graph")
    _add_graph_source(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("construct", help="emit a built-in family graph")
    _add_graph_source(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("enumerate", help="isomorph-free connected bipartite graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--force", action="store_true", help="override the size guard")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="check realized pairs against the closed form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--with-betti-oracle", action="store_true")
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="worker processes for the per-graph analysis and the Betti "
                        "oracle, at most the CPU count")
    p.add_argument("--out", metavar="FILE", help="report JSON path")
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--force", action="store_true", help="override the size guard")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("count", help="closed-form count of realizable pairs")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("betti", help="Betti table from the Koszul oracle")
    _add_graph_source(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("plot", help="scatter of realizable (r, p) pairs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True, metavar="FILE.svg|csv")
    p.add_argument("--source", choices=["theoretical", "computed"], default="theoretical")
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="worker processes for the per-graph analysis, at most the CPU count")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_plot)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    # each warning, say a skipped cache line, prints as one stderr line;
    # leaving the block restores the warnings module as it was
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        return _run(argv)


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (NotBipartiteError, DisconnectedError, EmptyEdgeSetError, GraphFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeGuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout (`toricgraph enumerate ... | head`); point
        # the descriptor at devnull so that the flush at exit stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
