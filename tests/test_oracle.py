"""Brute-force reference behaviour and its agreement with closed forms."""

import pytest

from increl import CapExceededError, Network, brute_force_reliability
from helpers import bridge


def closed_form_bridge(p):
    return 2 * p**2 + 2 * p**3 - 5 * p**4 + 2 * p**5


def test_bridge_reliability_matches_closed_form():
    assert brute_force_reliability(bridge(0.9)) == pytest.approx(0.97848, abs=1e-12)
    for p in (0.1, 0.35, 0.5, 0.77):
        assert brute_force_reliability(bridge(p)) == pytest.approx(
            closed_form_bridge(p), abs=1e-12
        )


def test_single_arc():
    net = Network(frozenset({1, 2}), ((1, 2),), (0.7,), 1, 2)
    assert brute_force_reliability(net) == pytest.approx(0.7, abs=1e-15)


def test_dead_sink_arcs_give_zero():
    net = Network(
        frozenset({1, 2, 3, 4}),
        ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4)),
        (0.9, 0.9, 0.9, 0.0, 0.0),
        1,
        4,
    )
    assert brute_force_reliability(net) == pytest.approx(0.0, abs=1e-15)


def test_edgeless_network():
    net = Network(frozenset({1, 2, 3}), (), (), 1, 3)
    assert brute_force_reliability(net) == 0.0


def test_triangle_feasibility():
    net = Network(frozenset({1, 2, 3}), ((1, 2), (1, 3), (2, 3)), (0.5,) * 3, 1, 3)
    # Direct arc 1-3, or the two-arc path 1-2-3: 5 of the 8 equally likely states.
    assert brute_force_reliability(net) == 5 / 8


def test_cap_guard():
    pairs = [(u, v) for u in range(1, 9) for v in range(u + 1, 9)][:25]
    net = Network(frozenset(range(1, 9)), tuple(pairs), (0.5,) * 25, 1, 8)
    with pytest.raises(CapExceededError):
        brute_force_reliability(net)
