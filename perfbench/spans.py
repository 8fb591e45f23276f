"""Per-layer spans recorded from outside the package.

The package imports its collaborators by name (`atlas` imports
`canonical_form`, `hilbert` imports `buchberger`, ...), so a layer is traced
by rebinding that name in the calling module's namespace.  Spans nest on one
stack: a span's self time is its duration minus the durations of the spans
it encloses, and the root span's self time is whatever no wrapped call
covered.  Spans are kept in memory; only their totals leave the process.

Fork-started pool workers inherit the wrappers but their spans never reach
the parent, so a traced sweep with jobs > 1 shows only the parent's share.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

ROOT = "trace.root"


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [name, start, seconds covered by children]

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[name] += duration - children
        if self._stack:
            self._stack[-1][2] += duration

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def wrap(self, module, attr: str, name, count=None) -> None:
        """Rebind module.attr to a timed call.  `name` is a span name or a
        function of the call's arguments; `count(result)` returns a
        (counter, amount) pair added after each call."""
        fn = getattr(module, attr)
        counts = self.counts

        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(*args, **kwargs)
            counts[f"{span}.calls"] += 1
            counts[f"{span}.calls<{self.parent()}"] += 1
            self.enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if count is not None:
                key, amount = count(result)
                counts[key] += amount
            return result

        setattr(module, attr, traced)

    def wrap_generator(self, module, attr: str, name: str) -> None:
        """Rebind a generator function so that the span covers consumption:
        every resumption is timed, the time between items is not."""
        fn = getattr(module, attr)
        counts = self.counts

        def traced(*args, **kwargs):
            counts[f"{name}.calls"] += 1
            it = fn(*args, **kwargs)
            while True:
                self.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.exit()
                counts[f"{name}.items"] += 1
                yield item

        setattr(module, attr, traced)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the pipeline where it is called."""
    from toricgraph import atlas, betti, hilbert, toric

    w = tracer.wrap
    # graphs: called from atlas (enumeration, matching) and hilbert (guard)
    for mod in (atlas, hilbert):
        w(mod, "is_connected", "graphs.is_connected")
    w(atlas, "canonical_form", "graphs.canonical_form")
    w(atlas, "matching_number", "graphs.matching_number")
    w(toric, "enumerate_cycles", "graphs.enumerate_cycles", lambda r: ("graphs.cycles", len(r)))
    # atlas
    tracer.wrap_generator(atlas, "_enumerate_with_codes", "atlas.enumerate")
    w(atlas, "verify", "atlas.verify")
    w(atlas, "sweep", "atlas.sweep")
    w(atlas, "cache_store", "atlas.cache_store", lambda r: ("atlas.records_written", 1))
    w(atlas, "cache_load", "atlas.cache_load")
    # toric and groebner, as called from hilbert
    w(hilbert, "toric_generators", "toric.toric_generators",
      lambda r: ("toric.generators", len(r.generators)))
    w(hilbert, "buchberger", lambda order, *a, **k: f"groebner.buchberger.{order.kind}",
      lambda r: (f"groebner.gb_elements.{r.order.kind}", len(r.elements)))
    w(hilbert, "initial_ideal", "groebner.initial_ideal")
    # hilbert, as called from itself, atlas and betti
    for attr in ("hilbert_numerator", "krull_dimension", "h_polynomial"):
        w(hilbert, attr, f"hilbert.{attr}")
    for mod in (hilbert, betti):
        w(mod, "edge_ring_gb", "hilbert.edge_ring_gb")
    for mod in (hilbert, atlas):
        w(mod, "edge_ring_hilbert", "hilbert.edge_ring_hilbert")
    for mod in (hilbert, atlas):
        w(mod, "invariant_tuple", "hilbert.invariant_tuple")
    # betti oracle
    w(atlas, "betti_table", "betti.betti_table")
