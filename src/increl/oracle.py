"""Brute-force reliability reference for small networks.

Enumerates arc states with a plain integer counter and checks each one
with an ordinary breadth-first search, sharing no machinery with the
staged engine. Its only job is to be obviously correct; it is allowed
to be slow.
"""

from __future__ import annotations

import math
from collections import deque

from increl.model import CapExceededError, Network

_MAX_ARCS = 24


def _mask_connects(net: Network, mask: int) -> bool:
    adj: dict[int, list[int]] = {v: [] for v in net.nodes}
    for k, (u, v) in enumerate(net.arcs):
        if mask >> k & 1:
            adj[u].append(v)
            adj[v].append(u)
    seen = {net.source}
    queue = deque((net.source,))
    while queue:
        u = queue.popleft()
        if u == net.sink:
            return True
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return False


def _mask_probability(net: Network, mask: int) -> float:
    result = 1.0
    for k, p in enumerate(net.probabilities):
        result *= p if mask >> k & 1 else 1.0 - p
    return result


def brute_force_reliability(net: Network) -> float:
    """Sum the probabilities of every arc state that connects the terminals."""
    m = net.arc_count
    if m > _MAX_ARCS:
        raise CapExceededError(f"network has {m} arcs, brute force capped at {_MAX_ARCS}")
    return math.fsum(
        _mask_probability(net, mask)
        for mask in range(1 << m)
        if _mask_connects(net, mask)
    )
