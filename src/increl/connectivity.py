"""Source-sink connectivity and per-vector component bookkeeping.

For every state vector the induced subgraph is summarized as a node
partition: the component holding the source, the component holding the
sink, and the remaining components. A vector is feasible exactly when
source and sink share a component. Partitions of infeasible vectors are
kept and updated when new arcs arrive, so later growth stages never
search the full graph again.

Every update runs on one form, a label: one `str` with one character
per node of a `LabelOrder`, the one node order type. Character i is
`chr(j)`, where j is the smallest position in node i's component, so
equal partitions have equal labels. So an order holds at most
`MAX_NODES` nodes, one per code point; `LabelOrder` raises
`CapExceededError` for more. Two nodes share a component exactly
when their characters are equal, and one working arc is one
`str.replace` (`label_add_arc`), the one union step of the package; a
batch's new nodes are appended each alone (`label_add_nodes`).

`NodePartition` is the form the public API hands in and out, with its
middle components stored individually and shared between partitions.
`LabelOrder.label` and `partition` convert between the two forms,
`PartitionCache` builds each distinct label's partition once, and
`extend_partition` and `extend_partition_detail` take and return
`NodePartition`s but fold `label_add_arc` inside. `partition_nodes`
builds a partition by searching the graph, independently of labels.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from increl.model import CapExceededError, Expansion, ExpansionError, Network
from increl.model import _check_length


class LayerTrace(NamedTuple):
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


MAX_NODES = 0x110000  # one `chr` per node: the code points 0..0x10FFFF


class LabelOrder:
    """The node order labels are read over: character i is node `nodes[i]`'s.

    `position` maps a node to its i; `s` and `t` are the terminals'. More
    than `MAX_NODES` nodes raise `CapExceededError`; a repeated node, a
    terminal outside the order or equal terminals raise `ValueError`.
    """

    __slots__ = ("nodes", "source", "sink", "position", "s", "t", "_by_id")

    def __init__(self, nodes: Iterable[int], source: int, sink: int) -> None:
        self.nodes = nodes = tuple(nodes)
        if len(nodes) > MAX_NODES:
            raise CapExceededError(f"{len(nodes)} nodes, labels hold at most {MAX_NODES}")
        self.source, self.sink = source, sink
        self.position = position = {v: i for i, v in enumerate(nodes)}
        if len(position) != len(nodes):
            # `position` keeps a repeated node's last place, so its first differs.
            repeated = next(v for i, v in enumerate(nodes) if position[v] != i)
            raise ValueError(f"node {repeated} appears more than once in the node order")
        if source == sink or source not in position or sink not in position:
            raise ValueError(f"terminals {source} and {sink} must be two nodes of the order")
        self.s, self.t = position[source], position[sink]
        self._by_id = itemgetter(*sorted(range(len(nodes)), key=nodes.__getitem__))

    def grown(self, new_nodes: Iterable[int]) -> LabelOrder:
        """This order followed by `new_nodes` sorted, as a batch brings them."""
        return LabelOrder(self.nodes + tuple(sorted(new_nodes)), self.source, self.sink)

    def ends(self, arcs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
        """Each arc's endpoint positions; one outside the order raises `ExpansionError`."""
        try:
            return [(self.position[u], self.position[v]) for u, v in arcs]
        except KeyError as missing:
            raise ExpansionError(f"arc endpoint {missing.args[0]} is not a known node") from None

    def label(self, partition: NodePartition) -> str:
        """The label of `partition`, whose components must be nonempty and cover the order once.

        `ValueError` if they do not, or if its sides miss the terminals.
        When the terminals connect, the shared side counts once.
        """
        source_side, sink_side, middle = partition
        if self.source not in source_side or self.sink not in sink_side:
            raise ValueError(
                f"a partition over terminals {self.source} and {self.sink} must hold "
                "them on its source and sink sides"
            )
        comps = [source_side, *middle]
        if sink_side != source_side:
            comps.append(sink_side)
        position = self.position
        chars = [""] * len(position)
        for comp in comps:
            try:
                places = [position[v] for v in comp]
            except KeyError as missing:
                raise ValueError(f"node {missing.args[0]} is not in the node order") from None
            # An empty component sets no character, and the check below refuses it.
            char = chr(min(places, default=0))
            for i in places:
                chars[i] = char
        label = "".join(chars)
        if not all(middle) or len(label) != len(chars) or sum(map(len, comps)) != len(chars):
            raise ValueError("the partition does not cover every node of the order once")
        return label

    def partition(self, label: str, table: dict) -> NodePartition:
        """The partition `label` holds, each component interned in `table`.

        When the terminals share a component, both sides are that one set.
        """
        members: dict[str, list[int]] = {}
        for char, node in zip(label, self.nodes):
            members.setdefault(char, []).append(node)
        comps = {}
        for char, group in members.items():
            comp = frozenset(group)
            comps[char] = table.setdefault(comp, comp)
        source_side = comps.pop(label[self.s])
        sink_side = comps.pop(label[self.t], source_side)
        return NodePartition(source_side, sink_side, tuple(sorted(comps.values(), key=min)))

    def split(self, label: str, items: Sequence) -> tuple[list, list, list]:
        """`items`, one per node of `sorted(nodes)`, placed in that order on `label`'s sides.

        When the terminals connect, the sink side is the source side, one list.
        """
        source_char, sink_char = label[self.s], label[self.t]
        source, middle, sink = [], [], []
        # Equal terminal characters map to `source`, and `sink` stays unused.
        side = {sink_char: sink, source_char: source}.get
        for char, item in zip(self._by_id(label), items):
            side(char, middle).append(item)
        return source, middle, source if source_char == sink_char else sink


class PartitionCache(dict):
    """Each label's `NodePartition` over `order`, built on first use and looked up after.

    A `dict` from label to partition whose `__missing__` calls
    `order.partition`. The components of the partitions one cache
    builds are interned in its one table, `components`, so equal
    components are one object. A cache lives as long as its owner: one
    `RetainedSet.rows()` call, or one traced stage's blocks.
    """

    def __init__(self, order: LabelOrder) -> None:
        super().__init__()
        self.order = order
        self.components: dict[frozenset[int], frozenset[int]] = {}

    def __missing__(self, label: str) -> NodePartition:
        part = self[label] = self.order.partition(label, self.components)
        return part


def _adjacency(net: Network, bits: Sequence[int]) -> dict[int, list[int]]:
    _check_length(bits, net)
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
    connected, part = extend_partition_detail(partition, selected, expansion)
    return None if connected else part


def extend_partition_detail(
    partition: NodePartition, selected: Sequence[int], expansion: Expansion
) -> tuple[bool, NodePartition]:
    """Like extend_partition, but always materializes the partition.

    A fold of `label_add_arc` over the selected arcs in arc order. The
    label is over the partition's nodes sorted, then the expansion's new
    nodes sorted, each new node alone. It stops at the arc that joins
    the sides, so a traced stage sees the partition as it stood at the
    merge, with source and sink fields holding the same merged set.
    Every component no selected arc touched is the parent's own object.
    For a disconnected `partition` the flag is True exactly when the
    returned sides are one object, so `part.source_side is
    part.sink_side` alone tells a merge. A partition with an empty side,
    or one `LabelOrder.label` refuses, raises `ValueError`.
    """
    if len(selected) != len(expansion.arcs):
        raise ExpansionError(
            f"selection covers {len(selected)} arcs but the expansion has "
            f"{len(expansion.arcs)}"
        )
    if not (partition.source_side and partition.sink_side):
        raise ValueError("a partition's source and sink sides must each hold a terminal")
    if is_connected(partition):
        # Connectivity is never lost by adding arcs.
        return True, partition
    comps = (partition.source_side, partition.sink_side, *partition.middle)
    # Any member of a side names its terminal.
    source, sink = next(iter(partition.source_side)), next(iter(partition.sink_side))
    order = LabelOrder(sorted({v for comp in comps for v in comp}), source, sink)
    label = label_add_nodes(order.label(partition), len(expansion.new_nodes))
    order = order.grown(expansion.new_nodes)
    s, t = order.s, order.t
    for ends in order.ends(arc for bit, arc in zip(selected, expansion.arcs) if bit):
        label = label_add_arc(label, ends)
        if label[s] == label[t]:
            break
    # Seeding the table with the parent's components keeps every one no
    # arc touched as the parent's own object.
    return label[s] == label[t], order.partition(label, {comp: comp for comp in comps})


def label_add_arc(label: str, ends: tuple[int, int]) -> str:
    """The label after one more working arc between the nodes at positions `ends`.

    Returns `label` itself when the two nodes already share a
    component. Otherwise the larger of their two characters becomes the
    smaller one everywhere: the joined component's smallest position.
    """
    x, y = label[ends[0]], label[ends[1]]
    if x == y:
        return label
    return label.replace(y, x) if x < y else label.replace(x, y)


def label_add_nodes(label: str, count: int) -> str:
    """The label with `count` new nodes appended to the order, each alone."""
    n = len(label)
    return label + "".join(map(chr, range(n, n + count)))


def project_label(label: str, positions: Iterable[int]) -> str:
    """The characters at `positions`, renumbered by first occurrence.

    Two labels give the same result exactly when their partitions,
    restricted to the nodes at `positions`, are equal. With the
    terminals and every endpoint of a batch's arcs that the label
    covers among them, it decides which combinations of the batch
    connect the terminals.
    """
    first: dict[str, str] = {}
    return "".join([first.setdefault(label[i], chr(len(first))) for i in positions])
