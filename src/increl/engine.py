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

The retained set is a `RetainedSet` of four columns: each vector's int
mask, bit k holding the state of arc k+1, its partition, its
generation index and its probability; row k is the k-th entry of each.
An extension ORs the combination's bits, shifted past the existing
arcs, into the mask and multiplies the parent's probability by the
new arcs' factors in arc order. That is the order `vector_probability`
multiplies in, so the product is bit-identical to recomputing it over
the whole vector, and no stage after the first rebuilds a vector or
its probability.

What a combination does to a vector depends only on the vector's
partition, and many retained vectors share one. So each stage runs one
loop over the retained vectors with one memo keyed on the parent
partition: every distinct partition is updated once per combination,
and its entry splits the outcomes into the combinations that connect
the terminals and the rows the stage keeps. Every vector holding the
partition reuses the entry: it adds its connecting products to the
sum, then appends its kept rows to the new set's columns in bulk.
Partitions, and the components inside them, are interned by value in
one table per stage, so equal ones are one object: a partition shares
each component with every other partition that holds it. The vectors
are visited in order and each one's rows in combination order, so
counts, traces and sums are those of the plain per-vector loop.

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
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
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
from increl.enumeration import counting_vectors
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


class RetainedSet:
    """A stage's retained vectors, stored as four parallel columns.

    Row k is `masks[k]`, `partitions[k]`, `indices[k]` and
    `probabilities[k]`: the vector's arc states as an int, bit j for arc
    j+1 (a list, since masks outgrow 64 bits; `mask_bits` decodes one);
    its interned partition; its 1-based generation index in the stage
    that made it, which traces name as a parent (`array('q')`); and its
    `vector_probability`, to the last bit (`array('d')`).
    """

    __slots__ = ("masks", "partitions", "indices", "probabilities")

    def __init__(self) -> None:
        self.masks: list[int] = []
        self.partitions: list[NodePartition] = []
        self.indices = array("q")
        self.probabilities = array("d")

    def __len__(self) -> int:
        return len(self.masks)


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
    infeasible: RetainedSet
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
# a wider batch is streamed in chunks of at most 2**this combinations,
# to keep memory flat.
_COMBO_CACHE_WIDTH = 16

# One combination of a batch: its 1-based position among the batch's
# combinations, its bits, its mask shifted past the existing arcs, and
# its arcs' probability factors in arc order.
_Row = tuple[int, Bits, int, tuple[float, ...]]

# What one partition makes of a run of rows: the outcome of each row
# (filled on a traced stage only), the factors of the rows that connect
# the terminals, and the position, shifted mask, factors and child
# partition of each row a non-final stage keeps. Every part is in row
# order.
_Entry = tuple[
    tuple[NodePartition, ...],
    tuple[tuple[float, ...], ...],
    tuple[int, ...],
    tuple[int, ...],
    tuple[tuple[float, ...], ...],
    tuple[NodePartition, ...],
]


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

    A row's 1-based position, added to the count of rows of the vectors
    before its parent, gives its generation index. The k-th combination's mask is k shifted past
    the `shift` existing arcs; its factors are p for a working arc and
    1 - p for a failed one, the values `vector_probability` multiplies
    by.
    """
    choices = tuple((1.0 - p, p) for p in expansion.probabilities)
    combos = counting_vectors(expansion.arc_count, skip_zero=final)
    for k, combo in enumerate(combos, start=final):
        yield k + 1 - final, combo, k << shift, tuple(map(getitem, choices, combo))


def _chunks(rows: Iterator[_Row]) -> Iterator[tuple[_Row, ...]]:
    """Consecutive runs of at most 2**`_COMBO_CACHE_WIDTH` rows."""
    size = 1 << _COMBO_CACHE_WIDTH
    while chunk := tuple(islice(rows, size)):
        yield chunk


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


def _entry(
    partition: NodePartition,
    rows: Iterable[_Row],
    expansion: Expansion,
    final: bool,
    traced: bool,
    interned: dict,
) -> _Entry:
    """Split what each row's combination makes of one partition.

    A traced stage gets `extend_partition_detail`'s partition, which
    connects exactly when its two sides are one object, and records it
    as the row's outcome. Every traced outcome and every kept child is
    interned with its components, so equal outcomes of different parent
    partitions are one object.
    """
    outcomes, connecting = [], []
    offsets, masks, factors_kept, parts = [], [], [], []
    for offset, combo, mask, factors in rows:
        if traced:
            part = extend_partition_detail(partition, combo, expansion)[1]
            connected = part.source_side is part.sink_side
        else:
            part = extend_partition(partition, combo, expansion)
            connected = part is None
        if traced or not (connected or final):
            part = _interned(part, interned)
        if connected:
            connecting.append(factors)
        elif not final:
            offsets.append(offset)
            masks.append(mask)
            factors_kept.append(factors)
            parts.append(part)
        if traced:
            outcomes.append(part)
    return tuple(map(tuple, (outcomes, connecting, offsets, masks, factors_kept, parts)))


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

    Visits all 2**m vectors in counting order, as `counting_vectors`
    yields them; feasible vectors contribute their probability and are
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
    total = comp = 0.0
    retained = RetainedSet()
    interned: dict = {}
    with _gc_paused():
        for index, bits in enumerate(counting_vectors(m), start=1):
            part = partition_nodes(net, bits)
            connected = is_connected(part)
            x = vector_probability(bits, net)
            if connected:
                total, comp = _neumaier_add(total, comp, x)
            else:
                part = _interned(part, interned)
                retained.masks.append(index - 1)
                retained.partitions.append(part)
                retained.indices.append(index)
                retained.probabilities.append(x)
                if len(retained) > max_retained:
                    raise CapExceededError(f"retained set exceeds cap of {max_retained} vectors")
            if trace is not None:
                trace(TraceRow(0, index, index, bits, part, connected))
    _log_stage(0, index, len(retained), 0, time.perf_counter() - start)
    return EngineState(net, 0, total, comp, retained)


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
    on the parent partition, holds one entry per distinct partition:
    the factors of the combinations that connect the terminals, and the
    position, shifted mask, factors and child partition of each
    combination the stage keeps. A vector adds its connecting products
    to the sum in combination order and appends its kept rows to the
    new set's columns in bulk. On an untraced final stage the entry
    depends only on the partition projected onto the batch's endpoints
    and the terminals, so it is computed once per distinct projection,
    and each vector visits only the combinations that connect it. Each
    combination's row (position, bits, shifted mask and probability
    factors) is built once for the stage and dropped with it. Batches
    wider than `_COMBO_CACHE_WIDTH` arcs are streamed: each vector
    builds its entry afresh, over chunks of at most
    2**`_COMBO_CACHE_WIDTH` rows, and nothing is memoised, so memory
    stays flat. The connectivity calls go through this module's
    globals so instrumentation can rebind them.
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
    combos = (1 << width) - final

    total, comp = state.reliability_sum, state.reliability_comp
    retained = RetainedSet()
    masks, partitions = retained.masks, retained.partitions
    indices, probabilities = retained.indices, retained.probabilities
    traced = trace is not None
    memoised = width <= _COMBO_CACHE_WIDTH
    projected = final and not traced
    keep = frozenset((new_net.source, new_net.sink)).union(*expansion.arcs)
    # None for a streamed batch, which enumerates afresh for each vector.
    rows = tuple(_rows(expansion, shift, final)) if memoised else None
    memo: dict[NodePartition, tuple] = {}
    by_projection: dict[NodePartition, tuple] = {}
    interned: dict = {}
    parents = state.infeasible
    with _gc_paused():
        base = 0
        for mask, partition, parent, probability in zip(
            parents.masks, parents.partitions, parents.indices, parents.probabilities
        ):
            # The entries of the vector's rows, each with the rows it covers.
            chunks = memo.get(partition)
            if chunks is None:
                target = project_partition(partition, keep) if projected else partition
                if not memoised:
                    chunks = (
                        (chunk, _entry(target, chunk, expansion, final, traced, interned))
                        for chunk in _chunks(_rows(expansion, shift, final))
                    )
                else:
                    chunks = by_projection.get(target) if projected else None
                    if chunks is None:
                        entry = _entry(target, rows, expansion, final, traced, interned)
                        chunks = ((rows, entry),)
                        if projected:
                            by_projection[target] = chunks
                    memo[partition] = chunks
            if traced:
                head = mask_bits(mask, shift)
            for chunk, (outcomes, connecting, offsets, kept, factors_kept, parts) in chunks:
                if traced:
                    for (offset, combo, _, _), part in zip(chunk, outcomes):
                        connected = part.source_side is part.sink_side
                        trace(TraceRow(stage, parent, base + offset, head + combo, part, connected))
                for factors in connecting:
                    x = prod(factors, start=probability)
                    total, comp = _neumaier_add(total, comp, x)
                if parts:
                    masks += [mask | m for m in kept]
                    partitions += parts
                    indices.extend([base + offset for offset in offsets])
                    probabilities.extend([prod(f, start=probability) for f in factors_kept])
                    if len(masks) > max_retained:
                        raise CapExceededError(
                            f"retained set exceeds cap of {max_retained} vectors"
                        )
            base += combos

    partitions_extended = len(memo) if memoised else len(parents)
    new_state = EngineState(
        network=new_net,
        stage_index=stage,
        reliability_sum=total,
        reliability_comp=comp,
        infeasible=retained,
        finalized=final,
    )
    result = StageResult(
        stage_index=stage,
        arc_count=new_net.arc_count,
        reliability=new_state.reliability,
        infeasible_count=len(retained),
        vectors_generated=len(parents) * combos,
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
