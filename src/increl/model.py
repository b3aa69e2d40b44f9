"""Core domain types: networks, arc batches, and state vectors.

A network is an undirected simple graph whose arcs fail independently.
Arc order is global and append-only: the arcs of the original network
come first, then each expansion's arcs in the order they were added.
That order fixes the bit positions of every state vector, so a vector
built at one stage stays valid as a prefix at every later stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _check_arc(u: int, v: int, pairs: set[frozenset[int]]) -> None:
    """Reject a self-loop or an unordered pair already in `pairs`, then record it."""
    if u == v:
        raise ValueError(f"self-loop at node {u}")
    pair = frozenset((u, v))
    if pair in pairs:
        raise ValueError(f"parallel arc between {u} and {v}")
    pairs.add(pair)


@dataclass(frozen=True)
class Network:
    """Undirected simple graph with one working probability per arc.

    `nodes` holds every node id known so far, including isolated ones.
    Arc ids are implicit: arc k is ``arcs[k-1]``, and its probability is
    ``probabilities[k-1]``.
    """

    nodes: frozenset[int]
    arcs: tuple[tuple[int, int], ...]
    probabilities: tuple[float, ...]
    source: int
    sink: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "arcs", tuple((int(u), int(v)) for u, v in self.arcs))
        object.__setattr__(
            self, "probabilities", tuple(_check_probability(p) for p in self.probabilities)
        )
        if len(self.probabilities) != len(self.arcs):
            raise ValueError(
                f"{len(self.probabilities)} probabilities for {len(self.arcs)} arcs"
            )
        if self.source not in self.nodes or self.sink not in self.nodes:
            raise ValueError("source and sink must be nodes of the network")
        if self.source == self.sink:
            raise ValueError("source and sink must be distinct")
        seen: set[frozenset[int]] = set()
        for u, v in self.arcs:
            _check_arc(u, v, seen)
            if u not in self.nodes or v not in self.nodes:
                raise ValueError(f"arc ({u}, {v}) references an unknown node")

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def arc_pairs(self) -> frozenset[frozenset[int]]:
        """Unordered endpoint pairs of all arcs, for simplicity checks."""
        return frozenset(frozenset(a) for a in self.arcs)


@dataclass(frozen=True)
class Expansion:
    """A batch of arcs appended to the network in one growth stage.

    `new_nodes` are the node ids that did not exist before the batch;
    they enter the graph as isolated nodes and only the batch's own
    arcs can touch them.
    """

    arcs: tuple[tuple[int, int], ...]
    probabilities: tuple[float, ...]
    new_nodes: frozenset[int]

    @classmethod
    def for_network(cls, net: Network, specs: Iterable[ArcSpec]) -> "Expansion":
        """Validate `specs` against `net` and bind the batch to it.

        Raises ExpansionError if the batch would break simplicity
        (self-loop, duplicate unordered pair within the batch or against
        the network) or carries an out-of-range probability.
        """
        specs = tuple(specs)
        if not specs:
            raise ExpansionError("expansion must add at least one arc")
        arcs: list[tuple[int, int]] = []
        probs: list[float] = []
        pairs = set(net.arc_pairs())
        for u, v, p in specs:
            u, v = int(u), int(v)
            if u < 1 or v < 1:
                raise ExpansionError(f"node ids must be positive, got ({u}, {v})")
            try:
                _check_arc(u, v, pairs)
                probs.append(_check_probability(p))
            except ValueError as exc:
                raise ExpansionError(str(exc)) from None
            arcs.append((u, v))
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
    if len(bits) != len(net.probabilities):
        raise ValueError(
            f"vector covers {len(bits)} arcs but the network has {len(net.probabilities)}"
        )
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
