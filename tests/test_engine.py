"""Staged engine: stage 0, extensions, conservation, caps, traces."""

import dataclasses
import math
import random

import pytest

from increl import (
    CapExceededError,
    EngineState,
    Expansion,
    ExpansionError,
    Network,
    StageResult,
    brute_force_reliability,
    full_enumeration_counts,
    initial_stage,
    run,
    run_expansion,
    vector_probability,
)
from helpers import bridge, bridge_stages, cumulative_networks, random_scenario


def test_initial_stage_bridge():
    state = initial_stage(bridge(0.9))
    assert len(state.infeasible) == 16
    assert state.reliability == pytest.approx(0.97848, abs=1e-12)
    assert state.stage_index == 0
    assert not state.finalized


def test_initial_stage_single_arc():
    net = Network(frozenset({1, 2}), ((1, 2),), (0.7,), 1, 2)
    state = initial_stage(net)
    assert state.reliability == pytest.approx(0.7, abs=1e-15)
    assert [r.bits for r in state.infeasible] == [(0,)]


def test_initial_stage_rejects_arcless_network():
    with pytest.raises(ValueError):
        initial_stage(Network(frozenset({1, 2}), (), (), 1, 2))


def test_initial_stage_cap():
    with pytest.raises(CapExceededError):
        initial_stage(bridge(), max_arcs=4)


def test_initial_stage_retained_cap():
    # Stage 0 of the bridge retains 16 vectors.
    with pytest.raises(CapExceededError, match="retained"):
        initial_stage(bridge(), max_retained=3)
    with pytest.raises(CapExceededError, match="retained"):
        run(bridge(), [], max_retained=3)


def test_first_expansion_counts_and_retention():
    state = initial_stage(bridge(0.9))
    expansion = Expansion.for_network(state.network, bridge_stages()[0])
    state, result = run_expansion(state, expansion, final=False)
    assert result.vectors_generated == 64
    assert result.infeasible_count == 58
    assert len(state.infeasible) == 58
    # 6 extensions became feasible.
    assert result.vectors_generated - result.infeasible_count == 6
    assert result.arc_count == 7
    assert state.reliability == pytest.approx(0.9870822, abs=1e-12)


def test_final_expansion_skips_zero_and_retains_nothing():
    stages = bridge_stages()
    state = initial_stage(bridge(0.9))
    state, _ = run_expansion(
        state, Expansion.for_network(state.network, stages[0]), final=False
    )
    state, result = run_expansion(
        state, Expansion.for_network(state.network, stages[1]), final=True
    )
    assert result.vectors_generated == 58
    assert result.infeasible_count == 0
    assert state.infeasible == ()
    assert state.finalized
    # 10 of the 58 extensions connect the terminals.
    assert state.reliability == pytest.approx(0.98872974, abs=1e-12)


def test_expansion_after_final_rejected():
    state = initial_stage(bridge())
    expansion = Expansion.for_network(state.network, bridge_stages()[0])
    state, _ = run_expansion(state, expansion, final=True)
    follow_up = Expansion.for_network(state.network, ((3, 5, 0.5),))
    with pytest.raises(ExpansionError, match="final"):
        run_expansion(state, follow_up, final=True)


def test_empty_retained_set_is_a_no_op():
    state = initial_stage(bridge(0.9))
    empty = EngineState(
        network=state.network,
        stage_index=state.stage_index,
        reliability_sum=state.reliability_sum,
        reliability_comp=state.reliability_comp,
        infeasible=(),
    )
    expansion = Expansion.for_network(empty.network, bridge_stages()[0])
    updated, result = run_expansion(empty, expansion, final=False)
    assert result.vectors_generated == 0
    assert updated.reliability == empty.reliability


def test_retained_cap():
    state = initial_stage(bridge())
    expansion = Expansion.for_network(state.network, bridge_stages()[0])
    with pytest.raises(CapExceededError, match="retained"):
        run_expansion(state, expansion, final=False, max_retained=10)


def test_expansion_width_cap():
    state = initial_stage(bridge())
    wide = Expansion.for_network(
        state.network, tuple((1, 100 + k, 0.5) for k in range(27))
    )
    with pytest.raises(CapExceededError, match="combination"):
        run_expansion(state, wide, final=False)


def test_run_bridge_results():
    results = run(bridge(0.9), bridge_stages())
    assert [r.vectors_generated for r in results] == [32, 64, 58]
    assert [r.infeasible_count for r in results] == [16, 58, 0]
    assert results[-1].reliability == pytest.approx(0.98872974, abs=1e-12)


def test_run_without_stages():
    results = run(bridge(0.9), [])
    assert len(results) == 1
    assert results[0].reliability == pytest.approx(0.97848, abs=1e-12)


def test_run_matches_oracle_per_stage_on_bridge():
    results = run(bridge(0.9), bridge_stages())
    nets = cumulative_networks(bridge(0.9), bridge_stages())
    for result, net in zip(results, nets):
        assert result.reliability == pytest.approx(
            brute_force_reliability(net), abs=1e-12
        )


def test_conservation_on_non_final_stages():
    state = initial_stage(bridge(0.9))
    held = math.fsum(vector_probability(r.bits, state.network) for r in state.infeasible)
    assert state.reliability + held == pytest.approx(1.0, abs=1e-12)
    expansion = Expansion.for_network(state.network, bridge_stages()[0])
    state, _ = run_expansion(state, expansion, final=False)
    held = math.fsum(vector_probability(r.bits, state.network) for r in state.infeasible)
    assert state.reliability + held == pytest.approx(1.0, abs=1e-12)


def test_determinism_bit_identical():
    a = run(bridge(0.937), bridge_stages(0.937))
    b = run(bridge(0.937), bridge_stages(0.937))
    assert [r.reliability for r in a] == [r.reliability for r in b]


def test_savings_bound_against_naive():
    rng = random.Random(99)
    for _ in range(25):
        net, stages = random_scenario(rng)
        results = run(net, stages)
        naive = full_enumeration_counts(net, stages)
        for result, bound in zip(results, naive):
            assert result.vectors_generated <= bound
        # Work per stage is exactly the retained count times the number
        # of arc-state combinations (minus the skipped zero at the end).
        assert results[0].vectors_generated == 1 << net.arc_count
        for k, specs in enumerate(stages, start=1):
            combos = 1 << len(specs)
            if k == len(stages):
                combos -= 1
            assert results[k].vectors_generated == results[k - 1].infeasible_count * combos


def _hand_driven(net, stages):
    """The stage sequence the benchmark job makes without `run`."""
    state = initial_stage(net)
    results = [
        StageResult(0, net.arc_count, state.reliability, len(state.infeasible), 1 << net.arc_count)
    ]
    for k, specs in enumerate(stages):
        expansion = Expansion.for_network(state.network, specs)
        state, result = run_expansion(state, expansion, final=(k == len(stages) - 1))
        results.append(result)
    return results


def _comparable(result):
    row = dataclasses.asdict(result)
    del row["elapsed_s"]
    row["reliability"] = result.reliability.hex()
    return row


@pytest.mark.parametrize(
    "net, stages",
    [(bridge(0.9), bridge_stages()), random_scenario(random.Random(5))],
    ids=["bridge", "random-scenario"],
)
def test_run_equals_hand_driven_stages(net, stages):
    driven = run(net, stages)
    by_hand = _hand_driven(net, stages)
    assert [_comparable(r) for r in driven] == [_comparable(r) for r in by_hand]
    assert all(r.elapsed_s >= 0 for r in driven + by_hand)


def test_full_enumeration_counts():
    assert full_enumeration_counts(bridge(), bridge_stages()) == [32, 128, 256]
    assert full_enumeration_counts(bridge(), []) == [32]
    ten = Network(
        frozenset(range(1, 6)),
        ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)),
        (0.5,) * 10,
        1,
        5,
    )
    assert full_enumeration_counts(ten, [((6, 7, 0.5), (1, 6, 0.5))]) == [1024, 4096]


def test_full_enumeration_counts_overflow_guard():
    wide = Network(
        frozenset(range(1, 13)),
        tuple((u, v) for u in range(1, 13) for v in range(u + 1, 13))[:63],
        (0.5,) * 63,
        1,
        12,
    )
    with pytest.raises(CapExceededError):
        full_enumeration_counts(wide, [])


def test_trace_callback_sees_every_vector():
    rows = []
    results = run(bridge(0.9), bridge_stages(), trace=rows.append)
    assert len(rows) == sum(r.vectors_generated for r in results)
    by_stage = {}
    for row in rows:
        by_stage.setdefault(row.stage, []).append(row.index)
    for stage, indices in by_stage.items():
        assert indices == list(range(1, len(indices) + 1))
