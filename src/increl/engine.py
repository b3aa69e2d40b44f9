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

Reliability is accumulated with compensated summation in a fixed
order, so identical inputs produce bit-identical results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from increl.connectivity import (
    NodePartition,
    extend_partition,
    extend_partition_detail,
    is_connected,
    partition_nodes,
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
    vector_probability,
)

DEFAULT_MAX_ARCS = 30
DEFAULT_MAX_RETAINED = 1 << 26
_MAX_EXPANSION_ARCS = 26


@dataclass(frozen=True)
class Retained:
    """An infeasible vector carried forward to the next stage.

    `index` is the vector's 1-based generation index within the stage
    that produced it, kept so traces can name the parent of each
    extension.
    """

    bits: Bits
    partition: NodePartition
    index: int


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
    """Per-stage report row: reliability, work counters and wall time."""

    stage_index: int
    arc_count: int
    reliability: float
    infeasible_count: int
    vectors_generated: int
    elapsed_s: float = 0.0


@dataclass(frozen=True)
class TraceRow:
    """One examined vector, as emitted to an optional trace callback.

    `parent_index` is the generation index of the source vector in the
    previous stage (equal to `index` at stage 0). For connected rows
    the partition shows the merged source/sink component as it stood
    when the merge was detected.
    """

    stage: int
    parent_index: int
    index: int
    bits: Bits
    partition: NodePartition
    connected: bool


TraceFn = Callable[[TraceRow], None]

# Widths up to this are enumerated once and reused across retained
# vectors; anything wider is streamed to keep memory flat.
_COMBO_CACHE_WIDTH = 16
_combo_cache: dict[tuple[int, bool], tuple[Bits, ...]] = {}


def _combinations(width: int, skip_zero: bool):
    if width > _COMBO_CACHE_WIDTH:
        return counting_vectors(width, skip_zero=skip_zero)
    key = (width, skip_zero)
    cached = _combo_cache.get(key)
    if cached is None:
        cached = _combo_cache[key] = tuple(counting_vectors(width, skip_zero=skip_zero))
    return cached


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
    dropped, infeasible ones are retained with their partitions. The
    resulting reliability is exact for the original network.
    """
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
    index = 0
    while True:
        index += 1
        part = partition_nodes(net, bits)
        connected = is_connected(part)
        if connected:
            total, comp = _neumaier_add(total, comp, vector_probability(bits, net))
        else:
            retained.append(Retained(tuple(bits), part, index))
            if len(retained) > max_retained:
                raise CapExceededError(f"retained set exceeds cap of {max_retained} vectors")
        if trace is not None:
            trace(TraceRow(0, index, index, tuple(bits), part, connected))
        if cursor.advance() is None:
            break
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
    entirely on the final stage. The connectivity and probability
    calls go through this module's globals so instrumentation can
    rebind them.
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

    total, comp = state.reliability_sum, state.reliability_comp
    retained: list[Retained] = []
    generated = 0
    for item in state.infeasible:
        for combo in _combinations(width, final):
            generated += 1
            extended = item.bits + combo
            if trace is not None:
                connected, part = extend_partition_detail(item.partition, combo, expansion)
                trace(TraceRow(stage, item.index, generated, extended, part, connected))
            else:
                part = extend_partition(item.partition, combo, expansion)
                connected = part is None
            if connected:
                total, comp = _neumaier_add(total, comp, vector_probability(extended, new_net))
            elif not final:
                retained.append(Retained(extended, part, generated))
                if len(retained) > max_retained:
                    raise CapExceededError(f"retained set exceeds cap of {max_retained} vectors")

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
        vectors_generated=generated,
        elapsed_s=time.perf_counter() - start,
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


def full_enumeration_counts(
    net: Network, stages: Sequence[Iterable[ArcSpec] | Expansion]
) -> list[int]:
    """Vector counts a from-scratch enumeration would need per stage.

    The baseline column of the comparison report: 2**m for each
    cumulative arc count, computed without enumerating anything.
    """
    counts = []
    m = net.arc_count
    for batch in [None, *stages]:
        if batch is not None:
            m += batch.arc_count if isinstance(batch, Expansion) else len(tuple(batch))
        if m > 62:
            raise CapExceededError(f"2**{m} exceeds the counter range")
        counts.append(1 << m)
    return counts
