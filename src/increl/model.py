"""Core domain types: networks, arc batches, and state vectors.

A network is an undirected simple graph whose arcs fail independently.
Arc order is global and append-only: the arcs of the original network
come first, then each expansion's arcs in the order they were added.
That order fixes the bit positions of every state vector, so a vector
built at one stage stays valid as a prefix at every later stage.
"""

from __future__ import annotations

import math
from operator import index
from typing import Iterable, Sequence

# One bit per arc, in global arc order. Bit k describes arc k+1.
Bits = tuple[int, ...]

# (endpoint, endpoint, working probability) as read from an INC file.
ArcSpec = tuple[int, int, float]


class ParseError(ValueError):
    """Malformed NET or INC file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class ExpansionError(ValueError):
    """An arc batch cannot legally be appended to the network."""


class CapExceededError(RuntimeError):
    """An enumeration would exceed a configured size cap."""


def _check_probability(p: float) -> float:
    p = float(p)
    if not math.isfinite(p) or p < 0.0 or p > 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    return p


def _node_ids(*ids: object) -> tuple[int, ...]:
    """`ids` as ints: the one rule for every node id, an arc's end or not.

    Each must be an integer (what `operator.index` accepts, so 1.7 is
    not truncated to 1) and at least 1. A refusal names all of `ids`.
    """
    try:
        ints = tuple(map(index, ids))
    except TypeError:
        raise ValueError(f"node ids must be integers, got ({', '.join(map(repr, ids))})") from None
    if min(ints) < 1:
        raise ValueError(f"node ids must be positive, got ({', '.join(map(str, ints))})")
    return ints


def _check_arc(u: int, v: int, pairs: set[frozenset[int]]) -> tuple[int, int]:
    """The arc (u, v) as ints by `_node_ids`, recorded in `pairs`.

    Rejects a node id `_node_ids` refuses, a self-loop or a pair already
    in `pairs`.
    """
    u, v = _node_ids(u, v)
    if u == v:
        raise ValueError(f"self-loop at node {u}")
    pair = frozenset((u, v))
    if pair in pairs:
        raise ValueError(f"parallel arc between {u} and {v}")
    pairs.add(pair)
    return u, v


def _check_length(bits: Sequence[int], net: Network) -> None:
    if len(bits) != net.arc_count:
        raise ValueError(f"vector covers {len(bits)} arcs but the network has {net.arc_count}")


class _Frozen:
    """Fields named by `__slots__`, set once and compared, hashed and shown by value.

    The frozen value class that `dataclasses` would generate, without
    importing it: `dataclasses` pulls in `inspect` and `ast` at every
    start-up. Two instances are equal when they are of one class and
    their fields are equal.
    """

    __slots__ = ()

    def _set(self, **fields: object) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _Frozen) and other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Network(_Frozen):
    """Undirected simple graph with one working probability per arc.

    `nodes` holds every node id known so far, including isolated ones.
    Every node id, terminals and arc ends too, is an int that
    `_node_ids` accepts. Arc ids are implicit: arc k is ``arcs[k-1]``,
    and its probability is ``probabilities[k-1]``.
    """

    __slots__ = ("nodes", "arcs", "probabilities", "source", "sink")
    nodes: frozenset[int]
    arcs: tuple[tuple[int, int], ...]
    probabilities: tuple[float, ...]
    source: int
    sink: int

    def __init__(
        self,
        nodes: Iterable[int],
        arcs: Iterable[tuple[int, int]],
        probabilities: Iterable[float],
        source: int,
        sink: int,
    ) -> None:
        seen: set[frozenset[int]] = set()
        # Arcs first, so that a bad arc is named as its pair (u, v).
        arcs = tuple(_check_arc(u, v, seen) for u, v in arcs)
        source, sink = _node_ids(source, sink)
        self._set(
            nodes=frozenset(_node_ids(v)[0] for v in nodes),
            arcs=arcs,
            probabilities=tuple(_check_probability(p) for p in probabilities),
            source=source,
            sink=sink,
        )
        if len(self.probabilities) != len(self.arcs):
            raise ValueError(
                f"{len(self.probabilities)} probabilities for {len(self.arcs)} arcs"
            )
        if self.source not in self.nodes or self.sink not in self.nodes:
            raise ValueError("source and sink must be nodes of the network")
        if self.source == self.sink:
            raise ValueError("source and sink must be distinct")
        for u, v in self.arcs:
            if u not in self.nodes or v not in self.nodes:
                raise ValueError(f"arc ({u}, {v}) references an unknown node")

    @property
    def arc_count(self) -> int:
        return len(self.arcs)


class Expansion(_Frozen):
    """A batch of arcs appended to the network in one growth stage.

    `new_nodes` are the node ids that did not exist before the batch;
    they enter the graph as isolated nodes and only the batch's own
    arcs can touch them.
    """

    __slots__ = ("arcs", "probabilities", "new_nodes")
    arcs: tuple[tuple[int, int], ...]
    probabilities: tuple[float, ...]
    new_nodes: frozenset[int]

    def __init__(
        self,
        arcs: tuple[tuple[int, int], ...],
        probabilities: tuple[float, ...],
        new_nodes: frozenset[int],
    ) -> None:
        self._set(arcs=arcs, probabilities=probabilities, new_nodes=new_nodes)

    @classmethod
    def for_network(cls, net: Network, specs: Iterable[ArcSpec]) -> "Expansion":
        """Validate `specs` against `net` and bind the batch to it.

        Raises ExpansionError where `_check_arc` or `_check_probability`,
        which `Network` and the file parser share, refuse an arc: a node id
        that is not an integer or is below 1, a self-loop, a repeated pair,
        or a probability outside [0, 1].
        """
        specs = tuple(specs)
        if not specs:
            raise ExpansionError("expansion must add at least one arc")
        arcs: list[tuple[int, int]] = []
        probs: list[float] = []
        pairs = {frozenset(a) for a in net.arcs}
        for u, v, p in specs:
            try:
                arcs.append(_check_arc(u, v, pairs))
                probs.append(_check_probability(p))
            except ValueError as exc:
                raise ExpansionError(str(exc)) from None
        touched = {w for a in arcs for w in a}
        return cls(tuple(arcs), tuple(probs), frozenset(touched - net.nodes))

    @property
    def arc_count(self) -> int:
        return len(self.arcs)


def extend_network(net: Network, expansion: Expansion) -> Network:
    """The cumulative network after appending an expansion's arcs.

    Raises ExpansionError if the expansion was bound to another network:
    a new node of it is in `net`, or the grown network is invalid.
    """
    if not net.nodes.isdisjoint(expansion.new_nodes):
        raise ExpansionError("the expansion's new nodes are already in the network")
    try:
        return Network(
            nodes=net.nodes | expansion.new_nodes,
            arcs=net.arcs + expansion.arcs,
            probabilities=net.probabilities + expansion.probabilities,
            source=net.source,
            sink=net.sink,
        )
    except ValueError as exc:
        raise ExpansionError(str(exc)) from None


def vector_probability(bits: Sequence[int], net: Network) -> float:
    """Probability of a full arc-state assignment.

    Multiplies p over working arcs and 1-p over failed ones, from arc 1
    up. The engine relies on that order: a prefix's probability times
    the remaining arcs' factors, one at a time, is the same float. The
    vector must cover every arc of `net`.
    """
    _check_length(bits, net)
    result = 1.0
    for bit, p in zip(bits, net.probabilities):
        result *= p if bit else 1.0 - p
    return result


def concat_bits(head: Sequence[int], tail: Sequence[int]) -> Bits:
    """Concatenate a state vector with a vector over newly added arcs.

    The two inputs must cover disjoint arc ranges (the existing arcs and
    the expansion's arcs); the probability of the result is the product
    of the parts' probabilities.
    """
    return tuple(head) + tuple(tail)


# Maps the digits "0"/"1" to the bytes 0/1, whose tuple is a state vector.
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def mask_bits(mask: int, width: int) -> Bits:
    """Decode an int mask below 2**width into a state vector, bit k as arc k+1.

    A sentinel bit above the top one keeps leading zeros in the `bin`
    string; reversed and stripped of "0b1", it lists the bits from arc 1.
    """
    return tuple(bin(mask | 1 << width)[:2:-1].encode().translate(_DIGIT_BITS))
