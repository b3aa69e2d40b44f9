"""Per-layer instrumentation for a traced benchmark run.

`install()` rebinds the public names that `increl.engine` and the job in
`child.py` call, plus `BitCursor.advance`, to timing wrappers:

- stage-level calls (parsing, binding, each stage, the report) get spans
  with name, start, end and parent, and the peak RSS at both ends;
- per-vector calls get aggregate call counts and nanoseconds, plus a
  count of "hits" (connected outcomes, or merges for extend_partition).

Everything stays in memory until `Recorder.export()` at the end of the
job. Only the benchmark imports this module; timed runs never do.
"""

from __future__ import annotations

import gc
import resource
import time

from increl import cli, engine, enumeration, model, netfile

clock = time.perf_counter_ns


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Recorder:
    def __init__(self) -> None:
        # [name, start, end, parent, per-aggregate ns at start, at end, rss at start, at end]
        self.spans: list[list] = []
        self._open: list[int] = []
        # name -> [calls, ns, hits]; every name is registered before the first span opens.
        self.aggregates: dict[str, list[int]] = {}
        self.gc_collections = 0
        self.gc_ns = 0
        self._gc_start = 0

    def _aggregate_ns(self) -> list[int]:
        return [acc[1] for acc in self.aggregates.values()]

    def spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = [name, 0, 0, parent, self._aggregate_ns(), None, _peak_rss_kb(), 0]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                span[5] = self._aggregate_ns()
                span[7] = _peak_rss_kb()
                self._open.pop()

        return wrapper

    def counted(self, name: str, fn, hit=None):
        acc = self.aggregates.setdefault(name, [0, 0, 0])

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            acc[1] += clock() - start
            acc[0] += 1
            if hit is not None and hit(result):
                acc[2] += 1
            return result

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = clock()
        else:
            self.gc_ns += clock() - self._gc_start
            self.gc_collections += 1

    def export(self) -> dict:
        """Spans with their children and self time, aggregates and GC totals."""
        names = list(self.aggregates)
        spans = []
        for k, (name, start, end, parent, agg0, agg1, rss0, rss1) in enumerate(self.spans):
            nested = [s for s in self.spans if s[3] == k]
            children: dict[str, int] = {}
            for s in nested:
                children[s[0]] = children.get(s[0], 0) + s[2] - s[1]
            # Per-vector time inside this span but outside its child spans.
            for i, agg in enumerate(names):
                direct = (agg1[i] - agg0[i]) - sum(s[5][i] - s[4][i] for s in nested)
                if direct:
                    children[agg] = direct
            spans.append(
                {
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "parent": parent,
                    "children_ns": children,
                    "self_ns": (end - start) - sum(children.values()),
                    "rss_kb": [rss0, rss1],
                }
            )
        return {
            "spans": spans,
            "aggregates": {
                name: {"calls": c, "ns": ns, "hits": h}
                for name, (c, ns, h) in self.aggregates.items()
            },
            "gc": {"collections": self.gc_collections, "ns": self.gc_ns},
        }


def install() -> Recorder:
    rec = Recorder()
    span, count = rec.spanned, rec.counted

    netfile.parse_network = span("netfile.parse_network", netfile.parse_network)
    netfile.parse_expansion_specs = span(
        "netfile.parse_expansion_specs", netfile.parse_expansion_specs
    )
    model.Expansion.for_network = classmethod(
        span("model.Expansion.for_network", model.Expansion.for_network.__func__)
    )
    engine.extend_network = span("model.extend_network", engine.extend_network)
    engine.initial_stage = span("engine.initial_stage", engine.initial_stage)
    engine.run_expansion = span("engine.run_expansion", engine.run_expansion)
    cli.build_run_report = span("cli.build_run_report", cli.build_run_report)

    engine.vector_probability = count("model.vector_probability", engine.vector_probability)
    enumeration.BitCursor.advance = count("enumeration.advance", enumeration.BitCursor.advance)
    engine.partition_nodes = count("connectivity.partition_nodes", engine.partition_nodes)
    engine.is_connected = count(
        "connectivity.is_connected", engine.is_connected, hit=lambda r: r
    )
    engine.extend_partition = count(
        "connectivity.extend_partition", engine.extend_partition, hit=lambda r: r is None
    )
    engine.extend_partition_detail = count(
        "connectivity.extend_partition_detail",
        engine.extend_partition_detail,
        hit=lambda r: r[0],
    )
    cli.TraceDirectory.__call__ = count("cli.trace_row", cli.TraceDirectory.__call__)
    cli.TraceDirectory.close = count("cli.trace_close", cli.TraceDirectory.close)

    gc.callbacks.append(rec._on_gc)
    return rec
