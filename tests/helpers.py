"""Shared test utilities: the bridge scenario, random scenarios, malformed inputs."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from increl import Expansion, ExpansionError, Network, ParseError, extend_network

DATA_DIR = Path(__file__).parent / "data"
FIXTURE_DIR = Path(__file__).parent.parent / "fixtures"

BRIDGE_ARCS = ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4))
BRIDGE_STAGE1 = ((2, 5, 0.9), (4, 5, 0.9))
BRIDGE_STAGE2 = ((3, 5, 0.9),)


def bridge(p: float = 0.9) -> Network:
    return Network(
        nodes=frozenset({1, 2, 3, 4}),
        arcs=BRIDGE_ARCS,
        probabilities=(p,) * 5,
        source=1,
        sink=4,
    )


def bridge_stages(p: float = 0.9):
    return [
        tuple((u, v, p) for u, v, _ in BRIDGE_STAGE1),
        tuple((u, v, p) for u, v, _ in BRIDGE_STAGE2),
    ]


def grid_3x3() -> Network:
    """A 3x3 grid, source in one corner and sink in the opposite one."""
    arcs = []
    for v in range(1, 10):
        if v % 3:
            arcs.append((v, v + 1))
        if v <= 6:
            arcs.append((v, v + 3))
    return Network(frozenset(range(1, 10)), tuple(arcs), (0.9,) * len(arcs), 1, 9)


# Two growth batches for grid_3x3: node 10, then node 11.
GRID_STAGES = [((9, 10, 0.9), (6, 10, 0.9)), ((10, 11, 0.9), (3, 11, 0.9), (5, 11, 0.9))]


def cumulative_networks(net: Network, stages) -> list[Network]:
    """The network as grown after each stage, index 0 = original."""
    nets = [net]
    for specs in stages:
        nets.append(extend_network(nets[-1], Expansion.for_network(nets[-1], specs)))
    return nets


def _probability(rng: random.Random) -> float:
    while (p := rng.random()) == 0.0:
        pass
    return p


def random_scenario(rng: random.Random, max_nodes: int = 8, max_total_arcs: int = 14):
    """Draw a random growth scenario.

    Original network: 2..6 nodes, up to 10 arcs. Then 1..3 growth
    batches of 1..3 arcs each; batches may reuse free node pairs or
    bring in new nodes (occasionally two at once). The total arc count
    is capped so the brute-force cross-check stays fast.
    """
    n = rng.randint(2, 6)
    all_pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    rng.shuffle(all_pairs)
    m = rng.randint(1, min(10, len(all_pairs)))
    arcs = tuple(all_pairs[:m])
    net = Network(
        nodes=frozenset(range(1, n + 1)),
        arcs=arcs,
        probabilities=tuple(_probability(rng) for _ in range(m)),
        source=1,
        sink=n,
    )

    stages = []
    nodes = set(range(1, n + 1))
    used = {frozenset(a) for a in arcs}
    budget = max_total_arcs - m
    for _ in range(rng.randint(1, 3)):
        batch = []
        for _ in range(rng.randint(1, 3)):
            if budget <= 0:
                break
            free = [
                (u, v)
                for u in sorted(nodes)
                for v in sorted(nodes)
                if u < v and frozenset((u, v)) not in used
            ]
            fresh = len(nodes) < max_nodes
            if fresh and (not free or rng.random() < 0.35):
                w = max(nodes) + 1
                if len(nodes) + 1 < max_nodes and rng.random() < 0.1:
                    u, v = w, w + 1  # a floating arc between two new nodes
                    nodes.add(w + 1)
                else:
                    u, v = rng.choice(sorted(nodes)), w
                nodes.add(w)
            elif free:
                u, v = rng.choice(free)
            else:
                break
            used.add(frozenset((u, v)))
            batch.append((u, v, _probability(rng)))
            budget -= 1
        if batch:
            stages.append(tuple(batch))
    assert stages, "scenario generator always finds room for one batch"
    return net, stages



BRIDGE_NET_TEXT = (FIXTURE_DIR / "bridge.net").read_text()


def _case(name, net_text, inc_text, error, fragment, line, exit_code):
    return pytest.param(net_text, inc_text, error, fragment, line, exit_code, id=name)


# Malformed input pinned end to end: NET text, INC text or None, the
# exception the library raises, a message fragment, the reported line
# number (None when the error has none) and the CLI exit code.
VALIDATION_CASES = [
    _case("net-self-loop", "nodes 4\narc 3 3 0.5\n", None,
          ParseError, "self-loop at node 3", 2, 1),
    _case("net-non-positive-node", "nodes 4\narc 0 2 0.5\n", None,
          ParseError, "node ids must be positive", 2, 1),
    _case("net-duplicate-pair", "nodes 4\narc 1 2 0.5\n\narc 2 1 0.5\n", None,
          ParseError, "parallel arc between 2 and 1", 4, 1),
    _case("net-probability", "nodes 4\narc 1 2 1.5\n", None,
          ParseError, "probability 1.5 outside [0, 1]", 2, 1),
    _case("net-node-beyond-count", "nodes 4\narc 1 5 0.5\n", None,
          ParseError, "beyond the declared 4", 2, 1),
    _case("net-non-integer-node", "nodes 4\narc 1 x 0.5\n", None,
          ParseError, "node id must be an integer, got 'x'", 2, 1),
    _case("net-arc-three-fields", "nodes 4\n\narc 1 2\n", None,
          ParseError, "arc lines take exactly 'arc <u> <v> <p>'", 3, 1),
    _case("inc-non-positive-node", BRIDGE_NET_TEXT, "arc 2 5 0.9\narc -1 5 0.9\n",
          ParseError, "node ids must be positive", 2, 1),
    _case("inc-self-loop", BRIDGE_NET_TEXT, "arc 5 5 0.9\n",
          ParseError, "self-loop at node 5", 1, 1),
    _case("inc-duplicate-pair", BRIDGE_NET_TEXT, "arc 2 5 0.9\n# comment\narc 5 2 0.9\n",
          ParseError, "parallel arc between 5 and 2", 3, 1),
    _case("inc-probability", BRIDGE_NET_TEXT, "arc 2 5 1.5\n",
          ParseError, "probability 1.5 outside [0, 1]", 1, 1),
    _case("inc-parallel-to-net", BRIDGE_NET_TEXT, "arc 4 2 0.9\n",
          ExpansionError, "parallel arc between 4 and 2", None, 3),
]
