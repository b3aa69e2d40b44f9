"""Source-sink connectivity and per-vector component bookkeeping.

For every state vector the induced subgraph is summarized as a node
partition: the component holding the source, the component holding the
sink, and the remaining components. A vector is feasible exactly when
source and sink share a component. Partitions of infeasible vectors are
kept and updated when new arcs arrive, so later growth stages never
search the full graph again.

Middle components are stored individually rather than as one flat node
set: an arriving arc that touches one node of a middle component must
drag the whole component into whichever side it connects to, and only
a per-component representation can express that. Components are
immutable, so partitions share them: an update looks only at the
components its selected arcs reach and builds a set only where it
joins several, and every other component of the updated partition is
the parent's own object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from increl.model import Expansion, ExpansionError, Network


@dataclass(frozen=True)
class LayerTrace:
    """Layers discovered by a breadth-first sweep from the source.

    `layers` starts with {source}; each later layer holds the nodes
    first reached via a working arc from the previous one. `connected`
    is true exactly when the sink appears in the last layer.
    """

    layers: tuple[frozenset[int], ...]
    connected: bool


class NodePartition(NamedTuple):
    """Connected components of an induced subgraph, split three ways.

    `source_side` is the component of the source, `sink_side` the
    component of the sink, and `middle` every remaining component,
    ordered by smallest member. When source and sink share a component
    both fields hold the same set (the same object, so the feasibility
    test is an identity check in the common case). A named tuple, so
    hashing and comparing one run in C and it holds no instance dict;
    as a tuple it also compares equal to a plain tuple of its three
    fields.
    """

    source_side: frozenset[int]
    sink_side: frozenset[int]
    middle: tuple[frozenset[int], ...]

    def middle_union(self) -> frozenset[int]:
        """All middle nodes as one flat set, the display granularity."""
        return frozenset(v for comp in self.middle for v in comp)


def _adjacency(net: Network, bits: Sequence[int]) -> dict[int, list[int]]:
    if len(bits) != len(net.arcs):
        raise ValueError(
            f"vector covers {len(bits)} arcs but the network has {len(net.arcs)}"
        )
    adj: dict[int, list[int]] = {v: [] for v in net.nodes}
    for (u, v), bit in zip(net.arcs, bits):
        if bit:
            adj[u].append(v)
            adj[v].append(u)
    return adj


def layered_search(net: Network, bits: Sequence[int]) -> LayerTrace:
    """Decide source-sink connectivity by growing disjoint node layers.

    Stops as soon as the sink enters a layer or a layer comes up empty.
    """
    adj = _adjacency(net, bits)
    seen = {net.source}
    layers = [frozenset(seen)]
    frontier = [net.source]
    connected = False
    while True:
        nxt = {w for u in frontier for w in adj[u] if w not in seen}
        if not nxt:
            break
        seen |= nxt
        layers.append(frozenset(nxt))
        if net.sink in nxt:
            connected = True
            break
        frontier = list(nxt)
    return LayerTrace(tuple(layers), connected)


def partition_nodes(net: Network, bits: Sequence[int]) -> NodePartition:
    """Split the node set into exact connected components of G(bits).

    One graph sweep per component; isolated nodes form singleton
    components. If the result has source_side == sink_side the vector
    is feasible and the partition is normally discarded.
    """
    adj = _adjacency(net, bits)
    assigned: set[int] = set()
    comps: list[set[int]] = []
    for start in sorted(net.nodes):
        if start in assigned:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        assigned |= comp
        comps.append(comp)
    src_comp = next(c for c in comps if net.source in c)
    snk_comp = next(c for c in comps if net.sink in c)
    source_side = frozenset(src_comp)
    sink_side = source_side if snk_comp is src_comp else frozenset(snk_comp)
    middle = tuple(
        sorted(
            (frozenset(c) for c in comps if c is not src_comp and c is not snk_comp),
            key=min,
        )
    )
    return NodePartition(source_side, sink_side, middle)


def is_connected(partition: NodePartition) -> bool:
    """True when source and sink sit in the same component.

    Components are identical or disjoint, so a single shared element
    settles it; the identity check makes the usual case O(1).
    """
    return partition.source_side is partition.sink_side or not partition.source_side.isdisjoint(
        partition.sink_side
    )


def project_partition(partition: NodePartition, keep: frozenset[int]) -> NodePartition:
    """Restrict a partition to the nodes in `keep`.

    Every component is intersected with `keep`; middle components left
    empty drop out and the rest are re-sorted by smallest member. When
    `keep` holds the terminals and every endpoint of an expansion's
    arcs, the projection connects under each selection of those arcs
    exactly when the full partition does. A connected partition stays
    connected, with both sides one object.
    """
    source_side = partition.source_side & keep
    sink_side = source_side if is_connected(partition) else partition.sink_side & keep
    middle = tuple(sorted((c for c in (comp & keep for comp in partition.middle) if c), key=min))
    return NodePartition(source_side, sink_side, middle)


def extend_partition(
    partition: NodePartition, selected: Sequence[int], expansion: Expansion
) -> NodePartition | None:
    """Update a partition by the selected arcs of an expansion.

    `selected` has one bit per expansion arc. Returns None as soon as
    the source and sink components merge (the vector became feasible,
    nothing is retained); otherwise returns the updated partition with
    the expansion's new nodes included.
    """
    connected, part = _extend(partition, selected, expansion, want_partition=False)
    return None if connected else part


def extend_partition_detail(
    partition: NodePartition, selected: Sequence[int], expansion: Expansion
) -> tuple[bool, NodePartition]:
    """Like extend_partition, but always materializes the partition.

    Used by tracing: when the sides merge, the returned partition shows
    the state at the moment of the merge, with source and sink fields
    holding the same merged set. For a disconnected `partition` the
    flag is True exactly when the returned sides are one object, so
    `part.source_side is part.sink_side` alone tells a merge.
    """
    connected, part = _extend(partition, selected, expansion, want_partition=True)
    assert part is not None
    return connected, part


def _extend(
    partition: NodePartition,
    selected: Sequence[int],
    expansion: Expansion,
    want_partition: bool,
) -> tuple[bool, NodePartition | None]:
    if len(selected) != len(expansion.arcs):
        raise ExpansionError(
            f"selection covers {len(selected)} arcs but the expansion has "
            f"{len(expansion.arcs)}"
        )
    if is_connected(partition):
        # Connectivity is never lost by adding arcs.
        return True, (partition if want_partition else None)

    source_side, sink_side = partition.source_side, partition.sink_side
    # New nodes enter as singleton components.
    fresh = [frozenset((v,)) for v in expansion.new_nodes]
    if not any(selected):
        # No arcs selected: sides unchanged, and a disconnected graph
        # stays disconnected.
        middle = tuple(sorted([*partition.middle, *fresh], key=min))
        return False, NodePartition(source_side, sink_side, middle)

    # Only the components a selected arc reaches are looked up, each by a
    # scan over the components: a few selected arcs cost less than a map
    # over every node. Each one maps to its block: the list of components
    # joined with it so far, one list object shared by all of them, with
    # the first one reached at its head.
    groups = (source_side, sink_side, *partition.middle, *fresh)
    block_of: dict[frozenset[int], list[frozenset[int]]] = {
        source_side: [source_side],
        sink_side: [sink_side],
    }
    merged = False
    for bit, arc in zip(selected, expansion.arcs):
        if not bit:
            continue
        ends = []
        for node in arc:
            for comp in groups:
                if node in comp:
                    ends.append(block_of.setdefault(comp, [comp]))
                    break
            else:
                raise ExpansionError(f"arc endpoint {node} is not a known node")
        joined, other = ends
        if joined is other:
            continue
        joined += other
        for comp in other:
            block_of[comp] = joined
        if block_of[source_side] is block_of[sink_side]:
            # Stop at the arc that joins the sides, so a traced stage
            # sees the partition as it stood at the merge.
            merged = True
            break
    if merged and not want_partition:
        return True, None

    # A block of one component is that component, shared with the parent
    # partition; only a block that joins several is built anew. Each
    # middle block is emitted once, at its head.
    source_block = block_of[source_side]
    sink_block = block_of[sink_side]
    source_side = _joined(source_block)
    sink_side = source_side if merged else _joined(sink_block)
    middle: list[frozenset[int]] = []
    for comp in groups[2:]:
        found = block_of.get(comp)
        if found is None:
            middle.append(comp)
        elif found[0] is comp and found is not source_block and found is not sink_block:
            middle.append(_joined(found))
    middle.sort(key=min)
    return merged, NodePartition(source_side, sink_side, tuple(middle))


def _joined(block: list[frozenset[int]]) -> frozenset[int]:
    """The component a block makes: its only member, or their union."""
    return block[0] if len(block) == 1 else frozenset().union(*block)
