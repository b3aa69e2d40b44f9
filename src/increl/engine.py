"""Staged exact-reliability engine.

Stage 0 enumerates every state vector of the original network once,
folding feasible vectors into the reliability sum and retaining each
infeasible vector together with its node partition. Every later stage
extends only the retained vectors: each one is combined with every
state combination of the newly added arcs, the stored partition is
updated instead of re-searching the graph, and the new infeasible
vectors replace the old set wholesale. On the final stage nothing is
retained and the all-zero combination is skipped outright, since a
disconnected graph gains nothing from zero new arcs.

A retained vector is stored as an int mask, bit k holding the state of
arc k+1, together with its probability. An extension ORs the
combination's bits, shifted past the existing arcs, into the mask and
multiplies the parent's probability by the new arcs' factors in arc
order. That is the order `vector_probability` multiplies in, so the
product is bit-identical to recomputing it over the whole vector, and
no stage after the first rebuilds a vector or its probability.

What a combination does to a vector depends only on the vector's
partition, and many retained vectors share one. So each stage runs one
loop over the retained vectors with one memo keyed on the parent
partition: every distinct partition is updated once per combination,
and every vector holding it reuses the outcomes. Partitions, and the
components inside them, are interned by value in one table per stage,
so equal ones are one object: a partition shares each component with
every other partition that holds it. The vectors themselves are still
visited one by one, in the same order, so counts, traces and sums are
those of the plain per-vector loop.

An untraced final stage only has to know which combinations connect
the terminals, and that depends only on the partition projected onto
the terminals and the batch's endpoints. Its memo entry is those
combinations, computed once per distinct projection, so each retained
vector visits only the combinations that connect it: distinct
projections x combinations partition updates plus retained + feasible
vector steps.

Reliability is accumulated with compensated summation in a fixed
order, so identical inputs produce bit-identical results. The cyclic
garbage collector is paused inside the stage loops: they allocate
millions of small objects and form no cycles. The `increl` logger
gets one debug line per stage.
"""

from __future__ import annotations

import gc
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import tee
from math import prod
from operator import getitem
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from increl.connectivity import (
    NodePartition,
    extend_partition,
    extend_partition_detail,
    is_connected,
    partition_nodes,
    project_partition,
)
from increl.enumeration import BitCursor, counting_vectors
from increl.model import (
    ArcSpec,
    Bits,
    CapExceededError,
    Expansion,
    ExpansionError,
    Network,
    extend_network,
    mask_bits,
    vector_probability,
)

DEFAULT_MAX_ARCS = 30
DEFAULT_MAX_RETAINED = 1 << 26
_MAX_EXPANSION_ARCS = 26

@dataclass(frozen=True, slots=True)
class Retained:
    """An infeasible vector carried forward to the next stage.

    `mask` holds the vector's arc states, bit k for arc k+1 (so a
    stage-0 vector's mask is its generation index minus one);
    `mask_bits(mask, arc_count)` decodes it. `probability` is
    `vector_probability` of that vector, to the last bit. `index` is
    the vector's 1-based generation index within the stage that
    produced it, kept so traces can name the parent of each extension.
    """

    mask: int
    partition: NodePartition
    index: int
    probability: float


@dataclass(frozen=True)
class EngineState:
    """Everything carried between growth stages.

    The reliability sum is stored with its compensation term; the
    `reliability` property yields the rounded value. After a final
    stage `infeasible` is empty and the state accepts no further
    expansions.
    """

    network: Network
    stage_index: int
    reliability_sum: float
    reliability_comp: float
    infeasible: tuple[Retained, ...]
    finalized: bool = False

    @property
    def reliability(self) -> float:
        return self.reliability_sum + self.reliability_comp


@dataclass(frozen=True)
class StageResult:
    """Per-stage report row: reliability, work counters and wall time.

    `partitions_extended` is the size of the stage's memo: the distinct
    parent partitions, or every retained vector's for a batch too wide
    to memoise. An untraced final stage runs its combinations against
    the partitions' projections, fewer still, but counts the distinct
    parent partitions all the same. It is 0 at stage 0.
    """

    stage_index: int
    arc_count: int
    reliability: float
    infeasible_count: int
    vectors_generated: int
    elapsed_s: float = 0.0
    partitions_extended: int = 0


class TraceRow(NamedTuple):
    """One examined vector, as emitted to an optional trace callback.

    `parent_index` is the generation index of the source vector in the
    previous stage (equal to `index` at stage 0). For connected rows
    the partition shows the merged source/sink component as it stood
    when the merge was detected. A named tuple rather than a frozen
    dataclass, because one is built per traced vector.
    """

    stage: int
    parent_index: int
    index: int
    bits: Bits
    partition: NodePartition
    connected: bool


TraceFn = Callable[[TraceRow], None]

# A stage whose batch is at most this wide enumerates its combinations
# once, for the stage only, and memoises their outcomes per partition;
# a wider batch is streamed to keep memory flat.
_COMBO_CACHE_WIDTH = 16

# One combination of a batch: its bits, its mask shifted past the
# existing arcs, and its arcs' probability factors in arc order.
_Row = tuple[Bits, int, tuple[float, ...]]


@contextmanager
def _gc_paused():
    """Disable the cyclic collector, restoring the caller's setting after."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _rows(expansion: Expansion, shift: int, final: bool) -> Iterator[_Row]:
    """Yield one row per combination of the batch's arcs, in counting order.

    The k-th combination's mask is k shifted past the `shift` existing
    arcs; its factors are p for a working arc and 1 - p for a failed
    one, the values `vector_probability` multiplies by.
    """
    choices = tuple((1.0 - p, p) for p in expansion.probabilities)
    combos = counting_vectors(expansion.arc_count, skip_zero=final)
    for k, combo in enumerate(combos, start=final):
        yield combo, k << shift, tuple(map(getitem, choices, combo))


def _interned(part: NodePartition, table: dict) -> NodePartition:
    """The table's partition equal to `part`, adding it if it is new.

    A new partition goes in with its components interned in the same
    table, so equal components of different partitions are one object
    too. A connected partition keeps both sides one object.
    """
    found = table.get(part)
    if found is None:
        source_side = table.setdefault(part.source_side, part.source_side)
        sink_side = (
            source_side
            if part.sink_side is part.source_side
            else table.setdefault(part.sink_side, part.sink_side)
        )
        middle = tuple([table.setdefault(comp, comp) for comp in part.middle])
        found = NodePartition(source_side, sink_side, middle)
        table[found] = found
    return found


def _outcomes(
    partition: NodePartition,
    rows: Iterable[_Row],
    expansion: Expansion,
    final: bool,
    traced: bool,
    memoised: bool,
    interned: dict,
):
    """Yield what each row's combination makes of one partition.

    An outcome is None when the terminals connect, else the child
    partition. A traced stage always gets `extend_partition_detail`'s
    partition, which connects exactly when its two sides are one
    object. Partitions the stage keeps, in its memo or its retained
    set, are interned with their components.
    """
    for combo, _, _ in rows:
        if traced:
            part = extend_partition_detail(partition, combo, expansion)[1]
            connected = part.source_side is part.sink_side
        else:
            part = extend_partition(partition, combo, expansion)
            connected = part is None
        if memoised and part is not None or not (connected or final):
            part = _interned(part, interned)
        yield part


def _log_stage(
    stage: int, examined: int, retained: int, partitions_extended: int, elapsed_s: float
) -> None:
    """Emit one debug line for a stage on the `increl` logger.

    Importing `logging` adds several milliseconds to every start-up, so
    the engine leaves it to the program: one that has not imported it
    has configured no handler that would show a debug record.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("increl").debug(
            "stage %d: examined %d, retained %d, partitions extended %d, %.3f s",
            stage,
            examined,
            retained,
            partitions_extended,
            elapsed_s,
        )


def _neumaier_add(total: float, comp: float, x: float) -> tuple[float, float]:
    t = total + x
    if abs(total) >= abs(x):
        comp += (total - t) + x
    else:
        comp += (x - t) + total
    return t, comp


def initial_stage(
    net: Network,
    max_arcs: int = DEFAULT_MAX_ARCS,
    max_retained: int = DEFAULT_MAX_RETAINED,
    trace: TraceFn | None = None,
) -> EngineState:
    """Full enumeration of the original network.

    Visits all 2**m vectors in counting order with a single reused
    buffer; feasible vectors contribute their probability and are
    dropped, infeasible ones are retained with their partitions and
    probabilities. The resulting reliability is exact for the original
    network.
    """
    start = time.perf_counter()
    m = net.arc_count
    if m < 1:
        raise ValueError("network has no arcs")
    if m > max_arcs:
        raise CapExceededError(f"network has {m} arcs, enumeration capped at {max_arcs}")
    cursor = BitCursor(m)
    bits = cursor.current
    total = 0.0
    comp = 0.0
    retained: list[Retained] = []
    interned: dict = {}
    index = 0
    with _gc_paused():
        while True:
            index += 1
            part = partition_nodes(net, bits)
            connected = is_connected(part)
            x = vector_probability(bits, net)
            if connected:
                total, comp = _neumaier_add(total, comp, x)
            else:
                part = _interned(part, interned)
                retained.append(Retained(index - 1, part, index, x))
                if len(retained) > max_retained:
                    raise CapExceededError(f"retained set exceeds cap of {max_retained} vectors")
            if trace is not None:
                trace(TraceRow(0, index, index, tuple(bits), part, connected))
            if cursor.advance() is None:
                break
    _log_stage(0, index, len(retained), 0, time.perf_counter() - start)
    return EngineState(net, 0, total, comp, tuple(retained))


def run_expansion(
    state: EngineState,
    expansion: Expansion,
    final: bool,
    max_retained: int = DEFAULT_MAX_RETAINED,
    trace: TraceFn | None = None,
) -> tuple[EngineState, StageResult]:
    """Extend every retained vector by one batch of new arcs.

    Each retained vector is combined with every state combination of
    the expansion's arcs (skipping the all-zero combination when
    `final`, because its result is known infeasible and would never be
    used). Feasible extensions are folded into the reliability sum;
    infeasible ones form the next retained set, or are dropped
    entirely on the final stage.

    One loop visits the retained vectors in order, and one memo, keyed
    on the parent partition, holds a tuple per distinct partition:
    each combination's outcome, or on an untraced final stage the
    factors of the combinations that connect the terminals. Those
    depend only on the partition projected onto the batch's endpoints
    and the terminals, so they are computed once per distinct
    projection, and each vector visits only the combinations that
    connect it. Each combination's row (bits, shifted mask and
    probability factors) is built once for the stage and dropped with
    it. Batches wider than `_COMBO_CACHE_WIDTH` arcs are streamed: each
    vector enumerates the rows once, lazily, and nothing is memoised,
    so memory stays flat. A probability is computed only where it is
    used, for a connected row or a row the stage retains. The
    connectivity calls go through this module's globals so
    instrumentation can rebind them.
    """
    start = time.perf_counter()
    if state.finalized:
        raise ExpansionError("the final stage has already run")
    width = expansion.arc_count
    if width > _MAX_EXPANSION_ARCS:
        raise CapExceededError(
            f"expansion adds {width} arcs, combination count would exceed 2**{_MAX_EXPANSION_ARCS}"
        )
    new_net = extend_network(state.network, expansion)
    stage = state.stage_index + 1
    shift = state.network.arc_count

    total, comp = state.reliability_sum, state.reliability_comp
    retained: list[Retained] = []
    traced = trace is not None
    memoised = width <= _COMBO_CACHE_WIDTH
    projected = final and not traced
    keep = frozenset((new_net.source, new_net.sink)).union(*expansion.arcs)
    # None for a streamed batch, which enumerates afresh for each vector.
    rows = tuple(_rows(expansion, shift, final)) if memoised else None
    memo: dict[NodePartition, tuple] = {}
    by_projection: dict[NodePartition, tuple[tuple[float, ...], ...]] = {}
    interned: dict = {}
    index = 0
    with _gc_paused():
        for item in state.infeasible:
            probability = item.probability
            entry = memo.get(item.partition)
            if projected:
                if entry is None:
                    shape = project_partition(item.partition, keep)
                    entry = by_projection.get(shape)
                    if entry is None:
                        entry = (
                            factors
                            for combo, _, factors in rows or _rows(expansion, shift, final)
                            if extend_partition(shape, combo, expansion) is None
                        )
                        if memoised:
                            entry = by_projection[shape] = tuple(entry)
                    if memoised:
                        memo[item.partition] = entry
                for factors in entry:
                    x = prod(factors, start=probability)
                    total, comp = _neumaier_add(total, comp, x)
                continue
            if memoised:
                if entry is None:
                    outcomes = _outcomes(
                        item.partition, rows, expansion, final, traced, memoised, interned
                    )
                    entry = memo[item.partition] = tuple(outcomes)
                pairs = zip(rows, entry)
            else:
                # One lazy stream of rows, shared by the outcomes and the loop.
                stream, ahead = tee(_rows(expansion, shift, final))
                pairs = zip(
                    stream,
                    _outcomes(item.partition, ahead, expansion, final, traced, memoised, interned),
                )
            if traced:
                head = mask_bits(item.mask, shift)
            for (combo, mask, factors), part in pairs:
                index += 1
                connected = part is None or part.source_side is part.sink_side
                if traced:
                    trace(TraceRow(stage, item.index, index, head + combo, part, connected))
                if connected:
                    x = prod(factors, start=probability)
                    total, comp = _neumaier_add(total, comp, x)
                elif not final:
                    x = prod(factors, start=probability)
                    retained.append(Retained(item.mask | mask, part, index, x))
                    if len(retained) > max_retained:
                        raise CapExceededError(
                            f"retained set exceeds cap of {max_retained} vectors"
                        )

    partitions_extended = len(memo) if memoised else len(state.infeasible)
    # Free the stage's tables before the retained tuple is built: that
    # moment sets the peak memory of a large non-final stage.
    del memo, by_projection, interned, rows
    new_state = EngineState(
        network=new_net,
        stage_index=stage,
        reliability_sum=total,
        reliability_comp=comp,
        infeasible=tuple(retained),
        finalized=final,
    )
    result = StageResult(
        stage_index=stage,
        arc_count=new_net.arc_count,
        reliability=new_state.reliability,
        infeasible_count=len(retained),
        vectors_generated=len(state.infeasible) * ((1 << width) - final),
        elapsed_s=time.perf_counter() - start,
        partitions_extended=partitions_extended,
    )
    _log_stage(
        stage,
        result.vectors_generated,
        result.infeasible_count,
        partitions_extended,
        result.elapsed_s,
    )
    return new_state, result


def run(
    net: Network,
    stages: Sequence[Iterable[ArcSpec]],
    max_arcs: int = DEFAULT_MAX_ARCS,
    max_retained: int = DEFAULT_MAX_RETAINED,
    trace: TraceFn | None = None,
) -> list[StageResult]:
    """Run the full staged computation.

    `stages` holds one arc-spec batch per growth stage; the last batch
    is treated as final. With no batches this degenerates to the
    initial enumeration. Each returned row carries the exact
    reliability of the network as grown up to that stage and the wall
    time of the stage's own work (binding a batch is not counted).
    """
    start = time.perf_counter()
    state = initial_stage(net, max_arcs=max_arcs, max_retained=max_retained, trace=trace)
    results = [
        StageResult(
            stage_index=0,
            arc_count=net.arc_count,
            reliability=state.reliability,
            infeasible_count=len(state.infeasible),
            vectors_generated=1 << net.arc_count,
            elapsed_s=time.perf_counter() - start,
        )
    ]
    for k, specs in enumerate(stages):
        expansion = Expansion.for_network(state.network, specs)
        state, result = run_expansion(
            state,
            expansion,
            final=(k == len(stages) - 1),
            max_retained=max_retained,
            trace=trace,
        )
        results.append(result)
    return results


def full_enumeration_counts(net: Network, stages: Sequence[Iterable[ArcSpec]]) -> list[int]:
    """Vector counts a from-scratch enumeration would need per stage.

    The baseline column of the comparison report: 2**m for each
    cumulative arc count, computed without enumerating anything.
    """
    counts = []
    m = net.arc_count
    for batch in [(), *stages]:
        m += len(tuple(batch))
        if m > 62:
            raise CapExceededError(f"2**{m} exceeds the counter range")
        counts.append(1 << m)
    return counts
