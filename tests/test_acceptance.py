"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The golden fixtures under tests/data hold the verified expected traces
for the bridge scenario.
"""

import math
import random
import time

import pytest

from increl import (
    Expansion,
    brute_force_reliability,
    counting_vectors,
    extend_network,
    initial_stage,
    is_connected,
    layered_search,
    mask_bits,
    partition_nodes,
    run,
    run_expansion,
    vector_probability,
)
from increl.cli import format_trace_row
from increl.connectivity import extend_partition
from increl.model import concat_bits
from helpers import DATA_DIR, bridge, bridge_stages, cumulative_networks, random_scenario

TOL = 1e-12


def best_of_three(fn):
    timings = []
    result = None
    for _ in range(3):
        start = time.perf_counter()
        result = fn()
        timings.append(time.perf_counter() - start)
    return result, min(timings)


def load_fixture(stage):
    lines = (DATA_DIR / f"bridge_stage{stage}.csv").read_text().splitlines()
    return lines[1:]


def parse_fixture_sets(row):
    i, j, vec, src, mid, snk, conn = row.split(",")
    to_set = lambda s: frozenset(int(x) for x in s.strip("{}").split()) if s != "{}" else frozenset()
    return int(i), int(j), vec, to_set(src), to_set(mid), to_set(snk), conn == "Y"


def test_criterion_1_enumeration_order_golden():
    expected = [tuple(k >> b & 1 for b in range(5)) for k in range(32)]
    got, elapsed = best_of_three(lambda: list(counting_vectors(5)))
    assert got == expected
    assert len(got) == 32
    assert elapsed < 0.001
    print(f"\nPASS criterion 1: 32-row enumeration order exact ({elapsed * 1e6:.0f} us)")


def test_criterion_2_layer_golden():
    trace, elapsed = best_of_three(lambda: layered_search(bridge(), (1, 1, 1, 1, 1)))
    assert trace.layers == (frozenset({1}), frozenset({2, 3}), frozenset({4}))
    assert trace.connected
    assert elapsed < 0.001
    print(f"PASS criterion 2: layers {{1}} {{2 3}} {{4}} connected ({elapsed * 1e6:.0f} us)")


def test_criterion_3_partition_golden_all_32():
    net = bridge()
    fixture = [parse_fixture_sets(row) for row in load_fixture(0)]
    assert len(fixture) == 32

    def check():
        for k, bits in enumerate(counting_vectors(5)):
            part = partition_nodes(net, bits)
            _, _, vec, src, mid, snk, feas = fixture[k]
            assert vec == "".join(map(str, bits))
            assert part.source_side == src
            assert part.middle_union() == mid
            assert part.sink_side == snk
            assert is_connected(part) == feas

    _, elapsed = best_of_three(check)
    assert elapsed < 0.010
    print(f"PASS criterion 3: 32 bridge partitions match goldens ({elapsed * 1e3:.2f} ms)")


def test_criterion_4_trace_golden_row_for_row():
    rows = {0: [], 1: [], 2: []}

    def run_traced():
        for v in rows.values():
            v.clear()
        run(bridge(), bridge_stages(), trace=lambda r: rows[r.stage].append(format_trace_row(r)))

    _, elapsed = best_of_three(run_traced)
    stage1, stage2 = rows[1], rows[2]
    assert stage1 == load_fixture(1)
    assert stage2 == load_fixture(2)
    assert len(stage1) == 64
    assert sum(r.endswith("Y") for r in stage1) == 6
    assert len(stage2) == 58
    # The source material tabulates 11 feasible rows here, but one of
    # them (bits 10001011) has components {1,2} | {3,4,5} and cannot
    # connect the terminals; the verified count is 10.
    assert sum(r.endswith("Y") for r in stage2) == 10
    assert elapsed < 0.010
    print(
        f"PASS criterion 4: traces match goldens row-for-row "
        f"(64 rows/6 feasible, 58 rows/10 feasible) ({elapsed * 1e3:.2f} ms)"
    )


def test_criterion_5_term_counts():
    results = run(bridge(), bridge_stages())
    counts = [r.vectors_generated for r in results]
    assert counts == [32, 64, 58]
    assert sum(counts) == 154
    from increl import full_enumeration_counts

    naive = full_enumeration_counts(bridge(), bridge_stages())
    assert naive == [32, 128, 256]
    assert sum(naive) == 416
    print("PASS criterion 5: stage counts 32+64+58=154, baseline 32+128+256=416")


@pytest.fixture(scope="module")
def scenario_suite():
    rng = random.Random(20240917)
    stage_checks = []
    residuals = []
    start = time.perf_counter()
    for _ in range(200):
        net, stages = random_scenario(rng)
        nets = cumulative_networks(net, stages)
        state = initial_stage(net)
        states = [state]
        for k, specs in enumerate(stages):
            expansion = Expansion.for_network(state.network, specs)
            state, _ = run_expansion(state, expansion, final=(k == len(stages) - 1))
            states.append(state)
        for stage_index, stage_state in enumerate(states):
            stage_checks.append(
                (
                    stage_state.reliability,
                    brute_force_reliability(nets[stage_index]),
                )
            )
            if not stage_state.finalized:
                held = math.fsum(
                    vector_probability(
                        mask_bits(mask, stage_state.network.arc_count), stage_state.network
                    )
                    for mask in stage_state.infeasible.masks
                )
                residuals.append(abs(stage_state.reliability + held - 1.0))
    elapsed = time.perf_counter() - start
    return {"checks": stage_checks, "residuals": residuals, "elapsed": elapsed}


def test_criterion_6_exactness_200_random_scenarios(scenario_suite):
    checks = scenario_suite["checks"]
    worst = max(abs(engine - oracle) for engine, oracle in checks)
    assert worst <= TOL
    assert scenario_suite["elapsed"] < 30.0
    print(
        f"PASS criterion 6: {len(checks)} stage reliabilities across 200 scenarios, "
        f"max |engine-oracle| = {worst:.2e} ({scenario_suite['elapsed']:.1f} s)"
    )


def test_criterion_7_conservation(scenario_suite):
    residuals = scenario_suite["residuals"]
    worst = max(residuals)
    assert worst <= TOL
    print(
        f"PASS criterion 7: reliability + retained mass = 1 on {len(residuals)} "
        f"non-final stages, max residual = {worst:.2e}"
    )


def test_criterion_8_commutation_10000_pairs():
    rng = random.Random(77)
    cases = []
    while len(cases) < 10_000:
        net, stages = random_scenario(rng)
        expansion = Expansion.for_network(net, stages[0])
        grown = extend_network(net, expansion)
        for _ in range(25):
            bits = tuple(rng.randint(0, 1) for _ in range(net.arc_count))
            combo = tuple(rng.randint(0, 1) for _ in range(expansion.arc_count))
            cases.append((net, grown, expansion, bits, combo))

    start = time.perf_counter()
    for net, grown, expansion, bits, combo in cases:
        part = partition_nodes(net, bits)
        updated = extend_partition(part, combo, expansion)
        scratch = partition_nodes(grown, concat_bits(bits, combo))
        if updated is None:
            assert is_connected(scratch)
        else:
            assert not is_connected(scratch)
            assert updated.source_side == scratch.source_side
            assert updated.sink_side == scratch.sink_side
            assert set(updated.middle) == set(scratch.middle)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 8: {len(cases)} extension/scratch agreements ({elapsed:.2f} s)")


def test_criterion_9_bridge_reliability():
    state = initial_stage(bridge(0.9))
    assert state.reliability == pytest.approx(0.97848, abs=TOL)
    results = run(bridge(0.9), bridge_stages())
    final_net = cumulative_networks(bridge(0.9), bridge_stages())[-1]
    oracle = brute_force_reliability(final_net)
    assert results[-1].reliability == pytest.approx(oracle, abs=TOL)
    print(
        f"PASS criterion 9: bridge R0 = 0.97848, final R = {results[-1].reliability:.12g} "
        f"matches 256-vector brute force"
    )
