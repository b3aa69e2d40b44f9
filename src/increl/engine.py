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

Inside the engine a partition is a label (`connectivity`): one
character per node, the smallest position in the node's component.
Nodes take positions in arrival order, a `LabelOrder`: the network's
nodes sorted, then each batch's new nodes sorted. A label is canonical,
so equal partitions are equal strings; the terminals connect exactly when
their two characters are equal; one working arc is one
`label_add_arc` step, a `str.replace`; and a batch's base, the parent
plus its new nodes, is the parent label with one character appended
per new node. A `NodePartition` is built only at the edge, once per
distinct label, with its components interned: by `RetainedSet.rows()`,
and by a traced `TraceBlock`'s `outcomes` or `rows()` when read.

Stage 0 walks the binary-addition tree: each vector's working arcs
from its lowest one up are those of a vector already met plus that one
arc, so its label is one `label_add_arc` step from one the walk holds,
and no vector searches the graph. Its vectors come from
`itertools.product` (`counting_vectors`) and each probability is one
C-level `prod` over the arcs' factors, from arc 1 up as
`vector_probability` multiplies, so no Python-level step runs per arc.

A vector is its parent plus the states of the stage's new arcs, and
the retained set is stored that way: a `RetainedSet` holds groups, one
per parent vector that kept a child. A group is the parent's mask, bit
k holding the state of arc k+1, its probability and the count of
vectors examined before its children, plus a reference to the memo
entry's kept rows and child labels, shared by every parent that holds
the label. A child's mask is the parent's ORed with its row's
combination bits, shifted past the existing arcs, and its probability
the parent's times the new arcs' factors in arc order. That is the
order `vector_probability` multiplies in, so the product is
bit-identical to recomputing it over the whole vector, and no stage
after the first rebuilds a vector or its probability. Masks are
machine words: `_bind` holds a stage that keeps vectors to 64 arcs.

What a combination does to a vector depends only on the vector's
partition, and many retained vectors share one. So each stage runs one
loop over the retained vectors with one memo keyed on the parent
label. Every distinct label gets one base, and each combination's
outcome is one `label_add_arc` step from the outcome of its prefix,
the combination without its top arc: a vector is its predecessor plus
one arc, as in a binary-addition tree. The entry splits the outcomes
into the combinations that connect the terminals and the rows the
stage keeps, as references to the stage's own rows. Every vector
holding the label reuses the entry: it adds its connecting products
to the sum, and if it keeps any row it becomes one group of the new
set. The memo is a dict whose missing key builds the entry, so a group
maps its children's labels to their entries in C. Kept labels, and
on a traced stage every outcome label, are interned by value in one
table per stage, so equal ones are one object. The vectors are
visited in order and each one's rows in combination order, so counts,
traces and sums are those of the plain per-vector loop.

An untraced final stage only has to know which combinations connect
the terminals, and that depends only on the partition projected onto
the terminals and the batch's endpoints: the label's characters there,
renumbered by first occurrence (`project_label`). Its memo entry is
those combinations, computed once per distinct projection, and it
skips a retained vector that no combination connects. Labels with
equal characters there project equally, so a dict keyed on those raw
characters stands in front of `project_label`: growth-grid's final
stage projects 416 of its 14,520 distinct labels, and steps from 36
projections.

A trace callback gets one `TraceBlock` per parent vector: the entry's
outcome labels, and the stage's shared combinations and label cache,
so tracing adds no object per examined vector.

Reliability is accumulated with compensated (Neumaier) summation in a
fixed order, so identical inputs produce bit-identical results.

Two cores run the stages: `_initial` stage 0 and `_run_bound` a growth
stage on a bound batch. `run` binds each batch once, all before stage 0
(`_bind`), then calls the two cores; `initial_stage` and `run_expansion`
each wrap one. Every stage ends in `_close`, which alone builds its
`StageResult` and its one debug line on the `increl` logger, from one
clock reading.
"""

from __future__ import annotations

import sys
import time
from array import array
from math import prod
from operator import getitem, itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

# extend_partition, extend_partition_detail, is_connected and
# partition_nodes are not called here, but instrumentation that rebinds
# this module's connectivity names counts them, so they stay importable
# from it.
from increl.connectivity import (  # noqa: F401
    LabelOrder,
    NodePartition,
    PartitionCache,
    extend_partition,
    extend_partition_detail,
    is_connected,
    label_add_arc,
    label_add_nodes,
    partition_nodes,
    project_label,
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
)
# Nor is vector_probability: stage 0 multiplies each vector's factors
# itself, in the same order. It stays for the same instrumentation.
from increl.model import vector_probability  # noqa: F401

DEFAULT_MAX_ARCS = 30
# About 1.0 GB at the 59 B of resident memory a retained vector was
# measured to cost on a 4x4 grid grown one node per batch: peak RSS
# 186.7 MiB at 3,033,403 retained vectors, 14.7 MiB of it the
# interpreter with the package imported (2 vCPU Xeon, Python 3.11.7).
# So the cap trips before an 8 GB machine runs out of memory.
DEFAULT_MAX_RETAINED = 1 << 24
# A stage builds one row per combination of its batch and memoises each
# label's outcome of every combination, so a batch may add at most
# this many arcs: 2**16 rows. A wider batch is refused; the same arcs
# split across several batches give the same reliability, up to rounding.
_MAX_BATCH_ARCS = 16
# The bits of an `array('Q')` mask, the most arcs a stage that keeps vectors may have:
# one of 65 keeps every vector that fails a minimum s-t cut, 2**32 or more.
_WORD_BITS = 64


# One combination of a batch: its 1-based position among the batch's
# combinations, its bits, its mask shifted past the existing arcs, and
# its arcs' probability factors in arc order.
_Row = tuple[int, Bits, int, tuple[float, ...]]

# A stage-0 group's one row: the empty combination, number 0, adding nothing.
_IDENTITY_ROW: _Row = (1, (), 0, ())


# The pair of an entry that keeps no row: every entry of a final stage.
_NO_KEPT: tuple[tuple[_Row, ...], tuple[str, ...]] = ((), ())


class RetainedSet:
    """A stage's retained vectors, stored as groups in four parallel columns.

    Group g is `masks[g]`, `probabilities[g]` (`array('d')`), `bases[g]`
    (`array('q')`) and `kept[g]`: a vector of the previous stage, as its mask
    and probability, the count of vectors its stage examined before the group's
    first one, and the pair (rows, labels) of the memo entry that extended it,
    shared by every group the entry made. Vector r has mask `mask | rows[r][2]`,
    bit j for arc j+1 (`mask_bits` decodes one), the interned label `labels[r]`
    of its partition over the set's `LabelOrder` `order`, 1-based generation
    index `base + rows[r][0]`, which traces name as a parent (a row's offset is
    its combination's number plus one), and probability `prod(rows[r][3],
    start=probability)`, its `vector_probability` to the last bit. `rows()`
    spells the vectors out in generation order, with each distinct label's
    `NodePartition` built once, and `len` counts them.

    Every stage keeps that rule: stage 0 keeps vector k as a group of
    its own with base k and one row, `_IDENTITY_ROW`, the empty
    combination; such groups share one pair per label. Masks are
    machine words: `_bind` holds a stage that keeps vectors to 64 arcs.
    """

    __slots__ = ("masks", "probabilities", "bases", "kept", "order")

    def __init__(self, order: LabelOrder) -> None:
        self.masks = array("Q")
        self.probabilities = array("d")
        self.bases = array("q")
        self.kept: list[tuple[tuple[_Row, ...], tuple[str, ...]]] = []
        self.order = order

    def __len__(self) -> int:
        return sum([len(labels) for _, labels in self.kept])

    def rows(self) -> Iterator[tuple[int, NodePartition, int, float]]:
        """Each vector's mask, partition, generation index and probability, in order."""
        partitions = PartitionCache(self.order)
        for mask, probability, base, (rows, labels) in zip(
            self.masks, self.probabilities, self.bases, self.kept
        ):
            for (offset, _, row_mask, factors), label in zip(rows, labels):
                p = prod(factors, start=probability)
                yield mask | row_mask, partitions[label], base + offset, p


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
    `elapsed_s` is the stage's wall time after binding, the one reading
    `_close` takes for both the row and the stage's debug line.
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
    `first_index + i` and partition label `labels[i]`; it connects the
    terminals exactly when that partition's two sides are one object.
    `outcomes` maps the labels through `partitions`, the stage's one
    shared label -> `NodePartition` cache, so a partition is built only
    when a caller reads `outcomes` or `rows()`.
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
    labels: tuple[str, ...]
    partitions: PartitionCache

    @property
    def outcomes(self) -> tuple[NodePartition, ...]:
        """Each row's partition, in row order."""
        return tuple(map(self.partitions.__getitem__, self.labels))

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

# What one label makes of the stage's rows: the label of each row's
# outcome (filled on a traced stage only), the factors of the rows that
# connect the terminals, and the pair of the rows a non-final stage
# keeps, as the stage's own row objects, and the child label of each,
# or `_NO_KEPT`. Every part is in row order. The next stage's groups
# refer to the pair.
_Entry = tuple[
    tuple[str, ...],
    tuple[tuple[float, ...], ...],
    tuple[tuple[_Row, ...], tuple[str, ...]],
]


class _Memo(dict):
    """A dict that builds a missing key's value with `build` and keeps it.

    A hit is a plain dict lookup, so `map(memo.__getitem__, keys)` runs
    in C.
    """

    __slots__ = ("build",)

    def __init__(self, build: Callable[[str], object]) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key: str) -> object:
        value = self[key] = self.build(key)
        return value


def _rows(expansion: Expansion, shift: int) -> Iterator[_Row]:
    """Yield one row per combination of the batch's arcs, in counting order.

    Combination k is row k + 1, whose 1-based position, added to the count
    of rows of the vectors before its parent, gives its generation index.
    Its mask is k shifted past the `shift` existing arcs; its factors are
    p for a working arc and 1 - p for a failed one, the values
    `vector_probability` multiplies by. A final stage slices off row 1.
    """
    choices = tuple((1.0 - p, p) for p in expansion.probabilities)
    for k, combo in enumerate(counting_vectors(expansion.arc_count)):
        yield k + 1, combo, k << shift, tuple(map(getitem, choices, combo))


def _outcomes(
    label: str, new_count: int, ends: Sequence[tuple[int, int]], s: int, t: int
) -> list[str]:
    """The label of each combination of the batch's arcs.

    In counting order. Combination 0 is the base: the label plus the
    batch's `new_count` new nodes, each alone. Combination k is its
    prefix, k without its top bit, plus the arc of that bit, whose ends
    are at the positions `ends[bit]`, so its label is one
    `label_add_arc` step from the prefix's; a prefix that already
    connects the terminals, at positions `s` and `t`, is reused as it
    is. That is the fold
    `extend_partition_detail` makes over k's arcs, with one step per
    combination instead of one per selected arc.
    """
    outcomes = [label_add_nodes(label, new_count)]
    for arc in ends:
        outcomes += [p if p[s] == p[t] else label_add_arc(p, arc) for p in outcomes]
    return outcomes


def _entry(
    outcomes: Sequence[str],
    rows: Iterable[_Row],
    final: bool,
    s: int,
    t: int,
    interned: dict,
    traced: bool,
) -> _Entry:
    """Split what each row's combination makes of one label.

    `outcomes` holds each row's label, in row order; a row connects the
    terminals exactly when its characters at `s` and `t` are equal. A
    `traced` stage records them all, each interned in `interned`, so
    equal outcomes of different parent labels are one object. A kept
    row is the row object itself, so an entry adds one reference per
    kept row and copies none of its parts; the next stage's groups refer
    to the entry's pair of kept rows and child labels. Every kept label
    is interned too, so equal children of different parent labels are
    one object.
    """
    if traced:
        outcomes = tuple(map(interned.setdefault, outcomes, outcomes))
    connecting, kept, labels = [], [], []
    for row, label in zip(rows, outcomes):
        if label[s] == label[t]:
            connecting.append(row[3])
        elif not final:
            label = interned.setdefault(label, label)
            kept.append(row)
            labels.append(label)
    pair = (tuple(kept), tuple(labels)) if kept else _NO_KEPT
    return outcomes if traced else (), tuple(connecting), pair


def _close(
    state: EngineState, count: int, examined: int, extended: int, start: float
) -> tuple[EngineState, StageResult]:
    """End a stage begun at `start`: its state, its row and one debug line.

    One clock reading gives the row's `elapsed_s` and the line's seconds.
    Importing `logging` adds several milliseconds to every start-up, so
    the engine leaves it to the program: one that has not imported it
    has configured no handler that would show a debug record.
    """
    elapsed = time.perf_counter() - start
    stage = state.stage_index
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("increl").debug(
            "stage %d: examined %d, retained %d, partitions extended %d, %.3f s",
            stage,
            examined,
            count,
            extended,
            elapsed,
        )
    arcs = state.network.arc_count
    return state, StageResult(stage, arcs, state.reliability, count, examined, elapsed, extended)


def initial_stage(
    net: Network,
    max_retained: int = DEFAULT_MAX_RETAINED,
    trace: TraceFn | None = None,
) -> EngineState:
    """Stage 0 as `run` runs it (`_initial`), returned as its state alone.

    Its debug line is logged all the same; `run` returns its row.
    """
    return _initial(net, max_retained, trace)[0]


def _initial(
    net: Network, max_retained: int, trace: TraceFn | None
) -> tuple[EngineState, StageResult]:
    """Full enumeration of the original network, one `label_add_arc` step per vector.

    Visits all 2**m vectors in counting order, as `counting_vectors`
    yields them. A vector's probability is `prod` over each arc's
    factor, 1 - p or p, from arc 1 up: `vector_probability`'s float to
    the last bit. Feasible vectors contribute their probability and are
    dropped, infeasible ones are retained with their labels and
    probabilities, each as a group of its own. The labels are over the
    network's nodes sorted. The resulting reliability is exact for the
    original network. `trace`, if given, gets one `TraceBlock` per
    vector.

    The walk holds m + 1 labels: `stack[j]` is the label of the current
    vector's working arcs among arcs j+1..m, so `stack[m]` is the base,
    every node alone. Vector k > 0, with its lowest set bit at t, agrees
    with vector k - 1 on arcs t+2..m, sets arc t+1 and clears the arcs
    below it. So its label is `label_add_arc(stack[t + 1], ends[t])`,
    and `stack[0..t]` take it. A label that connects the terminals
    keeps stepping, so a traced connected vector shows its full
    components, as `partition_nodes` gives them. `label_add_arc` goes
    through this module's globals so instrumentation can rebind it.

    The one owner of stage 0's caps: 30 arcs (`DEFAULT_MAX_ARCS`) and
    `max_retained` retained vectors. `_close` ends the stage.
    """
    start = time.perf_counter()
    m = net.arc_count
    if m < 1:
        raise ValueError("network has no arcs")
    if m > DEFAULT_MAX_ARCS:
        raise CapExceededError(f"network has {m} arcs, enumeration capped at {DEFAULT_MAX_ARCS}")
    total = comp = 0.0
    order = LabelOrder(sorted(net.nodes), net.source, net.sink)
    ends, s, t = order.ends(net.arcs), order.s, order.t
    # Each arc's factor for a failed and a working state, as `_rows` builds them.
    choices = tuple((1.0 - p, p) for p in net.probabilities)
    retained = RetainedSet(order)
    masks, probabilities = retained.masks, retained.probabilities
    bases, groups = retained.bases, retained.kept
    # Each stage-0 vector is a group of its own; groups of one label share one pair.
    singles = _Memo(lambda label: ((_IDENTITY_ROW,), (label,)))
    partitions = PartitionCache(order) if trace is not None else None
    label = label_add_nodes("", len(order.nodes))
    stack = [label] * (m + 1)
    for k, bits in enumerate(counting_vectors(m)):
        # t + 1 for k's lowest set bit t, and 0 for k = 0, the base.
        low = (k & -k).bit_length()
        if low:
            label = label_add_arc(stack[low], ends[low - 1])
        x = prod(map(getitem, choices, bits))
        if label[s] == label[t]:
            # Neumaier's add: every addend and the running sum are
            # non-negative, so comparing them needs no `abs`.
            added = total + x
            if total >= x:
                comp += (total - added) + x
            else:
                comp += (x - added) + total
            total = added
        else:
            masks.append(k)
            probabilities.append(x)
            bases.append(k)
            groups.append(singles[label])
            if len(groups) > max_retained:
                raise CapExceededError(f"retained set exceeds cap of {max_retained} vectors")
        stack[:low] = [label] * low
        if trace is not None:
            trace(TraceBlock(0, k + 1, k + 1, bits, _NO_COMBOS, (label,), partitions))
    return _close(EngineState(net, 0, total, comp, retained), len(groups), 1 << m, 0, start)


def _bind(
    net: Network, order: LabelOrder, expansion: Expansion, final: bool
) -> tuple[Network, LabelOrder]:
    """The network and label order grown by `expansion`, or a refusal.

    The one owner of a batch's rules: the 16-arc cap, the grown network (`extend_network`,
    a global for instrumentation), the node limit and, unless `final`, 64 arcs, in order.
    """
    width = expansion.arc_count
    if width > _MAX_BATCH_ARCS:
        raise CapExceededError(
            f"expansion adds {width} arcs, {1 << width} combinations per retained vector;"
            f" split the batch across INC files of at most {_MAX_BATCH_ARCS} arcs"
        )
    grown = extend_network(net, expansion)
    grown_order = order.grown(expansion.new_nodes)
    if not final and grown.arc_count > _WORD_BITS:
        raise CapExceededError(f"{grown.arc_count} arcs before the final stage; masks hold 64")
    return grown, grown_order


def run_expansion(
    state: EngineState,
    expansion: Expansion,
    final: bool,
    max_retained: int = DEFAULT_MAX_RETAINED,
    trace: TraceFn | None = None,
) -> tuple[EngineState, StageResult]:
    """Extend every retained vector by one batch of new arcs, as `_run_bound` does.

    Refuses a finalized state, then binds the batch with `_bind`, which
    refuses it with the error `run` raises for it, before any work.
    """
    if state.finalized:
        raise ExpansionError("the final stage has already run")
    grown, order = _bind(state.network, state.infeasible.order, expansion, final)
    return _run_bound(state, expansion, grown, order, final, max_retained, trace)


def _run_bound(
    state: EngineState,
    expansion: Expansion,
    new_net: Network,
    order: LabelOrder,
    final: bool,
    max_retained: int,
    trace: TraceFn | None,
) -> tuple[EngineState, StageResult]:
    """The growth stage of `run` and `run_expansion`, on a batch `_bind` has bound.

    Each retained vector is combined with every state combination of
    the expansion's arcs; a final stage slices the all-zero one off its
    rows and outcomes, since it cannot connect and nothing is kept, so
    no position of those rows is read. Feasible extensions are folded
    into the reliability sum; infeasible ones form the next retained
    set, or are dropped entirely on the final stage.

    The new set's node order is the parent set's plus the batch's new
    nodes sorted. One loop visits the parent groups in order, and each
    group's vectors in row order. One memo, keyed on the parent label,
    holds one entry per distinct label: the factors of the combinations
    that connect the terminals, and the pair of the rows the stage
    keeps and their child labels, or `_NO_KEPT`. The rows are the
    stage's own, shared by every entry. The entry's outcomes come one
    `label_add_arc` step per combination from the base (`_outcomes`),
    and a prefix that already connects is reused. A vector adds its
    connecting products to the sum in combination order, and if it
    keeps any row it becomes one group of the new set: its mask, its
    probability, the count of vectors examined before its own, and the
    entry's pair. On an untraced final stage the entry depends only on
    the label projected onto the batch's endpoints and the terminals
    (`project_label`), so it is computed once per distinct projection,
    and the projection once per distinct tuple of the label's
    characters there, and a vector that no combination connects is
    skipped. Each combination's row (position, bits, shifted mask and
    probability factors) is built once for the stage and lives as long
    as the groups that refer to it. The label steps go through this
    module's globals so instrumentation can rebind them.

    `trace`, if given, gets one `TraceBlock` per retained vector, in
    generation order, with its outcome labels and the stage's one
    label -> `NodePartition` cache. `elapsed_s` starts after binding;
    `_close` ends the stage.
    """
    start = time.perf_counter()
    parents = state.infeasible
    stage = state.stage_index + 1
    shift = state.network.arc_count

    ends, s, t = order.ends(expansion.arcs), order.s, order.t
    new_count = len(expansion.new_nodes)

    total, comp = state.reliability_sum, state.reliability_comp
    retained = RetainedSet(order)
    masks, probabilities = retained.masks, retained.probabilities
    bases, groups = retained.bases, retained.kept
    traced = trace is not None
    projected = final and not traced
    # The positions that decide an untraced final stage: the terminals
    # and the batch's endpoints the parent labels cover.
    keep = sorted(i for i in {s, t}.union(*ends) if i < len(parents.order.nodes))
    # A label's characters at `keep`, a tuple: `keep` holds both terminals.
    at_keep = itemgetter(*keep)
    rows = tuple(_rows(expansion, shift))[final:]
    combos = len(rows)
    stage_combos = tuple(row[1] for row in rows)
    # Equal characters at `keep` project equally, so `project_label` runs
    # once per distinct tuple of characters, and `new_entry` once per
    # projection.
    by_characters: dict[tuple[str, ...], _Entry] = {}
    by_projection: dict[str, _Entry] = {}
    interned: dict[str, str] = {}
    partitions = PartitionCache(order) if traced else None

    def new_entry(label: str) -> _Entry:
        outcomes = _outcomes(label, new_count, ends, s, t)[final:]
        return _entry(outcomes, rows, final, s, t, interned, traced)

    def projected_entry(label: str) -> _Entry:
        characters = at_keep(label)
        entry = by_characters.get(characters)
        if entry is None:
            key = project_label(label, keep)
            entry = by_projection.get(key)
            if entry is None:
                entry = by_projection[key] = new_entry(label)
            by_characters[characters] = entry
        return entry

    memo = _Memo(projected_entry if projected else new_entry)
    count = 0
    examined = 0
    for mask, probability, base, (group_rows, labels) in zip(
        parents.masks, parents.probabilities, parents.bases, parents.kept
    ):
        if traced:
            # The group's vectors extend its mask by their rows' bits.
            head = mask_bits(mask, shift - len(group_rows[0][1]))
        children = zip(group_rows, map(memo.__getitem__, labels))
        for (offset, bits, row_mask, factors), (outcomes, connecting, kept) in children:
            if projected and not connecting:
                # Nothing is kept or traced: only a connecting child adds anything.
                continue
            p = prod(factors, start=probability)
            if traced:
                block = (stage, base + offset, examined + 1, head + bits, stage_combos)
                trace(TraceBlock(*block, outcomes, partitions))
            # Neumaier's add, as stage 0 writes it.
            for f in connecting:
                x = prod(f, start=p)
                added = total + x
                if total >= x:
                    comp += (total - added) + x
                else:
                    comp += (x - added) + total
                total = added
            if kept[1]:
                masks.append(mask | row_mask)
                probabilities.append(p)
                bases.append(examined)
                groups.append(kept)
                count += len(kept[1])
                if count > max_retained:
                    raise CapExceededError(f"retained set exceeds cap of {max_retained} vectors")
            examined += combos

    new_state = EngineState(new_net, stage, total, comp, retained, final)
    return _close(new_state, count, len(parents) * combos, len(memo), start)


def run(
    net: Network,
    stages: Sequence[Iterable[ArcSpec]],
    max_retained: int = DEFAULT_MAX_RETAINED,
    trace: TraceFn | None = None,
) -> list[StageResult]:
    """Run the full staged computation.

    `stages` holds one arc-spec batch per growth stage; the last batch
    is treated as final. With no batches this degenerates to the
    initial enumeration. Before stage 0 starts, every batch is bound
    once, to the network as grown by the batches before it
    (`Expansion.for_network`, `_bind`), so an input that will be refused
    does no stage work and hands no block to `trace`. Then stage 0 runs
    through `_initial` and each growth stage from its binding through
    `_run_bound`, both read from this module's globals, so instrumentation
    can rebind them. Each core returns its stage's row from `_close`:
    the exact reliability of the network as grown up to that stage and
    the wall time of the stage's own work (binding a batch is not counted).
    """
    plan = []
    grown, order = net, LabelOrder(sorted(net.nodes), net.source, net.sink)
    for k, specs in enumerate(stages):
        expansion = Expansion.for_network(grown, specs)
        final = k == len(stages) - 1
        grown, order = _bind(grown, order, expansion, final)
        plan.append((expansion, grown, order, final))
    state, result = _initial(net, max_retained, trace)
    results = [result]
    for bound in plan:
        state, result = _run_bound(state, *bound, max_retained, trace)
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
        counts.append(1 << m)
    return counts
