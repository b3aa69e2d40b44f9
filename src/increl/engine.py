"""Staged exact-reliability engine.

Stage 0 enumerates every state vector of the original network once,
folding feasible vectors into the reliability sum and retaining each
infeasible vector together with its node partition. It walks the
binary-addition tree: each vector's working arcs from its lowest one
up are those of a vector already met plus that one arc, so its
partition is one `add_arc` step from one the walk holds, and no vector
searches the graph. Every later stage extends only the retained
vectors: each one is combined with every state combination of the
newly added arcs, the stored partition is updated instead of
re-searching the graph, and the new infeasible vectors replace the old
set wholesale. On the final stage nothing is retained and the all-zero
combination is skipped outright, since a disconnected graph gains
nothing from zero new arcs.

A vector is its parent plus the states of the stage's new arcs, and
the retained set is stored that way: a `RetainedSet` holds groups, one
per parent vector that kept a child. A group is the parent's mask, bit
k holding the state of arc k+1, its probability and the count of
vectors examined before its children, plus a reference to the memo
entry's kept rows and child partitions, shared by every parent that
holds the partition. A child's mask is the parent's ORed with its
row's combination bits, shifted past the existing arcs, and its
probability the parent's times the new arcs' factors in arc order.
That is the order `vector_probability` multiplies in, so the product
is bit-identical to recomputing it over the whole vector, and no stage
after the first rebuilds a vector or its probability. Masks are
machine words while the network has at most 64 arcs.

What a combination does to a vector depends only on the vector's
partition, and many retained vectors share one. So each stage runs one
loop over the retained vectors with one memo keyed on the parent
partition. Every distinct partition gets one base, itself plus the
batch's new nodes, and each combination's outcome is one `add_arc`
step from the outcome of its prefix, the combination without its top
arc: a vector is its predecessor plus one arc, as in a binary-addition
tree. The entry splits the outcomes into the combinations that connect
the terminals and the rows the stage keeps, as references to the
stage's own rows. Every vector holding the partition reuses the entry:
it adds its connecting products to the sum, and if it keeps any row
it becomes one group of the new set. The stage loops over the parent
groups, and pairs each group's children with their entries once per
distinct entry the groups refer to. Partitions, and the components
inside them, are interned by value in one table per stage, so equal
ones are one object: a partition shares each component with every
other partition that holds it. The vectors are visited in order and
each one's rows in combination order, so counts, traces and sums are
those of the plain per-vector loop.

An untraced final stage only has to know which combinations connect
the terminals, and that depends only on the partition projected onto
the terminals and the batch's endpoints. Its memo entry is those
combinations, computed once per distinct projection, and it visits
only the retained vectors that some combination connects, and of each
only those combinations: distinct projections x combinations one-arc
steps plus connected retained + feasible vector steps.

A trace callback gets one `TraceBlock` per parent vector: the entry's
outcomes and the stage's shared combinations, so tracing adds no
object per examined vector; `TraceBlock.rows` spells the rows out.

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
from math import prod
from operator import getitem
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

# extend_partition, extend_partition_detail, is_connected and
# partition_nodes are not called here, but instrumentation that rebinds
# this module's connectivity names counts them, so they stay importable
# from it.
from increl.connectivity import (  # noqa: F401
    NodePartition,
    add_arc,
    add_nodes,
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
# About 1.6 GB at the 94 B of resident memory a retained vector was
# measured to cost on a 4x4 grid grown one node per batch (284 MB for
# 3.03M vectors), so the cap trips before an 8 GB machine runs out of
# memory.
DEFAULT_MAX_RETAINED = 1 << 24
# A stage builds one row per combination of its batch and memoises each
# partition's outcome of every combination, so a batch may add at most
# this many arcs: 2**16 rows. A wider batch is refused; the same arcs
# split across several batches give the same reliability, up to rounding.
_MAX_BATCH_ARCS = 16
# The bits of an `array('Q')` item: masks of wider networks are ints.
_WORD_BITS = 64


# One combination of a batch: its 1-based position among the batch's
# combinations, its bits, its mask shifted past the existing arcs, and
# its arcs' probability factors in arc order.
_Row = tuple[int, Bits, int, tuple[float, ...]]

# The row of a group that holds one whole vector: no position, bits,
# mask or factors to add to the group's own.
_IDENTITY_ROW: _Row = (0, (), 0, ())


class RetainedSet:
    """A stage's retained vectors, stored as groups in four parallel columns.

    Group g is `masks[g]`, `probabilities[g]` (`array('d')`),
    `bases[g]` (`array('q')`) and `kept[g]`: a vector of the previous
    stage, as its mask and probability, the count of vectors its stage
    examined before its own, and the pair (rows, partitions) of the memo
    entry that extended it, shared by every group the entry made.
    Vector r of the group has mask `mask | rows[r][2]`, bit j for arc
    j+1 (`mask_bits` decodes one), the interned partition
    `partitions[r]`, 1-based generation index `base + rows[r][0]`, which
    traces name as a parent, and probability `prod(rows[r][3],
    start=probability)`, its `vector_probability` to the last bit.
    `rows()` spells the vectors out in generation order, and `len`
    counts them.

    `append` adds one vector as a group of its own, whose one row is
    `_IDENTITY_ROW`; such groups share one pair per partition. Stage 0
    keeps its vectors this way. `masks` is an `array('Q')` of machine
    words while `arc_count`, the network's, is at most 64, and a list
    of ints past that, since masks then outgrow a word. Either form
    takes `append`.
    """

    __slots__ = ("masks", "probabilities", "bases", "kept", "_singles")

    def __init__(self, arc_count: int = 0) -> None:
        self.masks: array | list[int] = array("Q") if arc_count <= _WORD_BITS else []
        self.probabilities = array("d")
        self.bases = array("q")
        self.kept: list[tuple[tuple[_Row, ...], tuple[NodePartition, ...]]] = []
        self._singles: dict[NodePartition, tuple] = {}

    def __len__(self) -> int:
        return sum([len(partitions) for _, partitions in self.kept])

    def append(self, mask: int, partition: NodePartition, index: int, probability: float) -> None:
        """Add one vector as a group of one row."""
        single = self._singles.get(partition)
        if single is None:
            single = self._singles[partition] = ((_IDENTITY_ROW,), (partition,))
        self.masks.append(mask)
        self.probabilities.append(probability)
        self.bases.append(index)
        self.kept.append(single)

    def rows(self) -> Iterator[tuple[int, NodePartition, int, float]]:
        """Each vector's mask, partition, generation index and probability, in order."""
        for mask, probability, base, (rows, partitions) in zip(
            self.masks, self.probabilities, self.bases, self.kept
        ):
            for (offset, _, row_mask, factors), partition in zip(rows, partitions):
                yield mask | row_mask, partition, base + offset, prod(factors, start=probability)


class EngineState(NamedTuple):
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


class StageResult(NamedTuple):
    """Per-stage report row: reliability, work counters and wall time.

    `partitions_extended` is the size of the stage's memo: the distinct
    parent partitions. An untraced final stage runs its combinations
    against the partitions' projections, fewer still, but counts the
    distinct parent partitions all the same. It is 0 at stage 0.
    """

    stage_index: int
    arc_count: int
    reliability: float
    infeasible_count: int
    vectors_generated: int
    elapsed_s: float = 0.0
    partitions_extended: int = 0


class TraceRow(NamedTuple):
    """One examined vector, as `TraceBlock.rows` yields it.

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


class TraceBlock(NamedTuple):
    """The examined vectors one parent vector makes, for a trace callback.

    Row i is the vector `head + combos[i]`, with generation index
    `first_index + i` and partition `outcomes[i]`; it connects the
    terminals exactly when that partition's two sides are one object.
    A growth stage hands over one block per retained parent vector,
    and its blocks share one `combos` tuple. Stage 0 hands over one
    block per vector, with the whole vector as `head` and the single
    empty combination. A block is built from objects the stage holds
    anyway, so a callback that keeps no reference to it leaves nothing
    behind.
    """

    stage: int
    parent_index: int
    first_index: int
    head: Bits
    combos: tuple[Bits, ...]
    outcomes: tuple[NodePartition, ...]

    def rows(self) -> Iterator[TraceRow]:
        """One `TraceRow` per examined vector, in generation order."""
        stage, parent, first, head = self.stage, self.parent_index, self.first_index, self.head
        for i, (combo, part) in enumerate(zip(self.combos, self.outcomes)):
            yield TraceRow(
                stage, parent, first + i, head + combo, part, part.source_side is part.sink_side
            )


TraceFn = Callable[[TraceBlock], None]

# The combinations of a stage-0 block: the vector is all head.
_NO_COMBOS: tuple[Bits, ...] = ((),)

# What one partition makes of the stage's rows: the outcome of each row
# (filled on a traced stage only), the factors of the rows that connect
# the terminals, and the pair of the rows a non-final stage keeps, as
# the stage's own row objects, and the child partition of each. Every
# part is in row order. The next stage's groups refer to the pair.
_Entry = tuple[
    tuple[NodePartition, ...],
    tuple[tuple[float, ...], ...],
    tuple[tuple[_Row, ...], tuple[NodePartition, ...]],
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


def _outcomes(partition: NodePartition, expansion: Expansion) -> list[NodePartition]:
    """The partition of each combination of the batch's arcs.

    In counting order. Combination 0 is the base: the partition plus
    the batch's new nodes. Combination k is its prefix, k without its
    top bit, plus the arc of that bit, so its partition is one `add_arc`
    step from the prefix's; a prefix that already connects the
    terminals is reused as it is. That is the fold
    `extend_partition_detail` makes over k's arcs, with one step per
    combination instead of one per selected arc.
    """
    outcomes = [add_nodes(partition, expansion.new_nodes)]
    for arc in expansion.arcs:
        outcomes += [p if p.source_side is p.sink_side else add_arc(p, arc) for p in outcomes]
    return outcomes


def _entry(
    outcomes: Iterable[NodePartition],
    rows: Iterable[_Row],
    final: bool,
    traced: bool,
    interned: dict,
) -> _Entry:
    """Split what each row's combination makes of one partition.

    `outcomes` holds each row's partition, in row order; a row connects
    the terminals exactly when its partition's two sides are one
    object. A traced stage records every outcome. A kept row is the
    row object itself, so an entry adds one reference per kept row and
    copies none of its parts; the next stage's groups refer to the
    entry's pair of kept rows and child partitions. Every traced
    outcome and every kept child is interned with its components, so
    equal outcomes of different parent partitions are one object.
    """
    recorded, connecting, kept, parts = [], [], [], []
    for row, part in zip(rows, outcomes):
        connected = part.source_side is part.sink_side
        if traced or not (connected or final):
            part = _interned(part, interned)
        if connected:
            connecting.append(row[3])
        elif not final:
            kept.append(row)
            parts.append(part)
        if traced:
            recorded.append(part)
    return tuple(recorded), tuple(connecting), (tuple(kept), tuple(parts))


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
    """Full enumeration of the original network, one `add_arc` step per vector.

    Visits all 2**m vectors in counting order, as `counting_vectors`
    yields them; feasible vectors contribute their probability and are
    dropped, infeasible ones are retained with their partitions and
    probabilities, each as a group of its own (`RetainedSet.append`).
    The resulting reliability is exact for the original network.
    `trace`, if given, gets one `TraceBlock` per vector.

    The walk holds m + 1 partitions: `stack[j]` is the partition of the
    current vector's working arcs among arcs j+1..m, so `stack[m]` is
    the base, the source, the sink and every other node each alone.
    Vector k > 0, with its lowest set bit at t, agrees with vector
    k - 1 on arcs t+2..m, sets arc t+1 and clears the arcs below it. So
    its partition is `add_arc(stack[t + 1], arcs[t])`, and `stack[0..t]`
    take it. A partition that connects the terminals keeps stepping, so
    a traced connected vector shows its full components, as
    `partition_nodes` gives them. `add_arc` goes through this module's
    globals so instrumentation can rebind it.
    """
    start = time.perf_counter()
    m = net.arc_count
    if m < 1:
        raise ValueError("network has no arcs")
    if m > max_arcs:
        raise CapExceededError(f"network has {m} arcs, enumeration capped at {max_arcs}")
    total = comp = 0.0
    retained = RetainedSet(m)
    # Each stage-0 vector is a group of its own.
    append, groups = retained.append, retained.masks
    interned: dict = {}
    terminals = NodePartition(frozenset((net.source,)), frozenset((net.sink,)), ())
    part = add_nodes(terminals, net.nodes - {net.source, net.sink})
    stack = [part] * (m + 1)
    arcs = net.arcs
    with _gc_paused():
        for k, bits in enumerate(counting_vectors(m)):
            # t + 1 for k's lowest set bit t, and 0 for k = 0, the base.
            low = (k & -k).bit_length()
            if low:
                part = add_arc(stack[low], arcs[low - 1])
            x = vector_probability(bits, net)
            if part.source_side is part.sink_side:
                total, comp = _neumaier_add(total, comp, x)
            else:
                part = _interned(part, interned)
                append(k, part, k + 1, x)
                if len(groups) > max_retained:
                    raise CapExceededError(f"retained set exceeds cap of {max_retained} vectors")
            stack[:low] = [part] * low
            if trace is not None:
                trace(TraceBlock(0, k + 1, k + 1, bits, _NO_COMBOS, (part,)))
    _log_stage(0, 1 << m, len(retained), 0, time.perf_counter() - start)
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

    One loop visits the parent groups in order, and each group's
    vectors in row order. One memo, keyed on the parent partition,
    holds one entry per distinct partition: the factors of the
    combinations that connect the terminals, and the pair of the rows
    the stage keeps and their child partitions. The rows are the
    stage's own, shared by every entry. The entry's outcomes come one
    `add_arc` step per combination from the base (`_outcomes`), and a
    prefix that already connects is reused. A group's plan, each of its
    vectors with its entry, is made once per (rows, partitions) pair
    the groups refer to, keyed by the pair's identity: the parent set
    keeps the pair alive. A vector adds its connecting products to the
    sum in combination order, and if it keeps any row it becomes one
    group of the new set: its mask, its probability, the count of
    vectors examined before its own, and the entry's pair. On an
    untraced final stage the entry depends only on the partition
    projected onto the batch's endpoints and the terminals, so it is
    computed once per distinct projection; the plan holds only the
    vectors that some combination connects, and each visits only those
    combinations. Each combination's row (position, bits, shifted mask
    and probability factors) is built once for the stage and lives as
    long as the groups that refer to it. The connectivity calls go
    through this module's globals so instrumentation can rebind them.

    A batch of more than 16 arcs (`_MAX_BATCH_ARCS`) raises
    `CapExceededError` before any work; split it across several
    batches.

    `trace`, if given, gets one `TraceBlock` per retained vector, in
    generation order.
    """
    start = time.perf_counter()
    if state.finalized:
        raise ExpansionError("the final stage has already run")
    width = expansion.arc_count
    if width > _MAX_BATCH_ARCS:
        raise CapExceededError(
            f"expansion adds {width} arcs, {1 << width} combinations per retained vector;"
            f" split the batch across INC files of at most {_MAX_BATCH_ARCS} arcs"
        )
    new_net = extend_network(state.network, expansion)
    stage = state.stage_index + 1
    shift = state.network.arc_count
    combos = (1 << width) - final

    total, comp = state.reliability_sum, state.reliability_comp
    retained = RetainedSet(new_net.arc_count)
    masks, probabilities = retained.masks, retained.probabilities
    bases, groups = retained.bases, retained.kept
    traced = trace is not None
    projected = final and not traced
    keep = frozenset((new_net.source, new_net.sink)).union(*expansion.arcs)
    rows = tuple(_rows(expansion, shift, final))
    stage_combos = tuple(row[1] for row in rows)
    memo: dict[NodePartition, _Entry] = {}
    by_projection: dict[NodePartition, _Entry] = {}
    # Each parent group's rows and the entries of their children, in two
    # parallel sequences, by the identity of the group's pair, which the
    # parent set keeps alive.
    plans: dict[int, tuple] = {}
    interned: dict = {}

    def entry_of(partition: NodePartition) -> _Entry:
        """What the stage's rows make of a vector's partition."""
        entry = memo.get(partition)
        if entry is None:
            target = project_partition(partition, keep) if projected else partition
            entry = by_projection.get(target) if projected else None
            if entry is None:
                outcomes = _outcomes(target, expansion)[final:]
                entry = _entry(outcomes, rows, final, traced, interned)
                if projected:
                    by_projection[target] = entry
            memo[partition] = entry
        return entry

    parents = state.infeasible
    count = 0
    with _gc_paused():
        examined = 0
        for mask, probability, base, group in zip(
            parents.masks, parents.probabilities, parents.bases, parents.kept
        ):
            plan = plans.get(id(group))
            if plan is None:
                group_rows, parts = group
                if projected:
                    # Nothing is kept: only a connecting child adds anything.
                    # Built in one pass, since transient copies of every
                    # group's plan raise the stage's peak memory.
                    children = zip(group_rows, map(entry_of, parts))
                    plan = tuple(zip(*[child for child in children if child[1][1]]))
                else:
                    plan = group_rows, tuple(map(entry_of, parts))
                plans[id(group)] = plan
            if traced:
                # The group's vectors extend its mask by their rows' bits.
                head = mask_bits(mask, shift - len(group[0][0][1]))
            for (offset, bits, row_mask, factors), (outcomes, connecting, kept) in zip(*plan):
                p = prod(factors, start=probability)
                if traced:
                    parent, first = base + offset, examined + 1
                    trace(TraceBlock(stage, parent, first, head + bits, stage_combos, outcomes))
                for f in connecting:
                    total, comp = _neumaier_add(total, comp, prod(f, start=p))
                if kept[1]:
                    masks.append(mask | row_mask)
                    probabilities.append(p)
                    bases.append(examined)
                    groups.append(kept)
                    count += len(kept[1])
                    if count > max_retained:
                        raise CapExceededError(
                            f"retained set exceeds cap of {max_retained} vectors"
                        )
                examined += combos

    parent_count = len(parents)
    partitions_extended = len(memo)
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
        infeasible_count=count,
        vectors_generated=parent_count * combos,
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
