"""Staged engine: stage 0, extensions, conservation, caps, traces."""

import collections
import dataclasses
import gc
import logging
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from increl import (
    CapExceededError,
    EngineState,
    Expansion,
    ExpansionError,
    Network,
    RetainedSet,
    StageResult,
    TraceRow,
    brute_force_reliability,
    counting_vectors,
    engine,
    extend_network,
    extend_partition_detail,
    full_enumeration_counts,
    initial_stage,
    mask_bits,
    partition_nodes,
    project_partition,
    run,
    run_expansion,
    vector_probability,
)
from helpers import (
    GRID_STAGES,
    bridge,
    bridge_stages,
    cumulative_networks,
    grid_3x3,
    random_scenario,
)


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
    assert [mask_bits(mask, 1) for mask in state.infeasible.masks] == [(0,)]
    assert list(state.infeasible.probabilities) == [vector_probability((0,), net)]


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
    assert len(state.infeasible) == 0
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
        infeasible=RetainedSet(),
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


def _held(state):
    """Probability mass of the retained vectors, recomputed from their masks."""
    m = state.network.arc_count
    return math.fsum(
        vector_probability(mask_bits(mask, m), state.network) for mask in state.infeasible.masks
    )


def test_conservation_on_non_final_stages():
    state = initial_stage(bridge(0.9))
    assert state.reliability + _held(state) == pytest.approx(1.0, abs=1e-12)
    expansion = Expansion.for_network(state.network, bridge_stages()[0])
    state, _ = run_expansion(state, expansion, final=False)
    assert state.reliability + _held(state) == pytest.approx(1.0, abs=1e-12)


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


def _reference_expansion(state, expansion, final):
    """The plain per-vector loop: one partition update per examined vector.

    Returns the reliability as float hex, the retained vectors as
    (bits, index, partition, probability as float hex) and every
    vector's trace row.
    """
    new_net = extend_network(state.network, expansion)
    stage = state.stage_index + 1
    total, comp = state.reliability_sum, state.reliability_comp
    retained, rows = [], []
    generated = 0
    parents = state.infeasible
    for mask, partition, index in zip(parents.masks, parents.partitions, parents.indices):
        for combo in counting_vectors(expansion.arc_count, skip_zero=final):
            generated += 1
            extended = mask_bits(mask, state.network.arc_count) + combo
            connected, part = extend_partition_detail(partition, combo, expansion)
            rows.append(TraceRow(stage, index, generated, extended, part, connected))
            x = vector_probability(extended, new_net)
            if connected:
                t = total + x
                comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
                total = t
            elif not final:
                retained.append((extended, generated, part, x.hex()))
    return (total + comp).hex(), retained, rows


def _retained(state):
    """The retained rows as (bits, index, partition, probability as float hex)."""
    r, m = state.infeasible, state.network.arc_count
    return [
        (mask_bits(mask, m), index, part, p.hex())
        for mask, part, index, p in zip(
            r.masks, r.partitions, r.indices, r.probabilities, strict=True
        )
    ]


def _sliced(retained, piece):
    """A retained set holding the same slice of each column."""
    part = RetainedSet()
    part.masks = retained.masks[piece]
    part.partitions = retained.partitions[piece]
    part.indices = retained.indices[piece]
    part.probabilities = retained.probabilities[piece]
    return part


_SMALL_CASES = [("bridge", bridge(0.9), bridge_stages())] + [
    (f"random-{seed}", *random_scenario(random.Random(seed))) for seed in range(12)
]


@pytest.mark.parametrize(
    "net, stages, cache_width",
    [pytest.param(net, stages, None, id=name) for name, net, stages in _SMALL_CASES]
    + [pytest.param(grid_3x3(), GRID_STAGES, None, id="grid-3x3")]
    + [pytest.param(net, stages, 0, id=f"{name}-streamed") for name, net, stages in _SMALL_CASES]
    + [pytest.param(net, stages, 1, id=f"{name}-chunked") for name, net, stages in _SMALL_CASES],
)
def test_run_expansion_matches_per_vector_reference(net, stages, cache_width, monkeypatch):
    if cache_width is not None:
        # 0: every batch is wider than the cache, so nothing is memoised
        # or projected, and each chunk holds one row. 1: a batch of two
        # or more arcs is streamed in chunks of two rows, so a chunk
        # boundary falls inside each vector's rows.
        monkeypatch.setattr(engine, "_COMBO_CACHE_WIDTH", cache_width)
    state = initial_stage(net)
    for k, specs in enumerate(stages):
        final = k == len(stages) - 1
        expansion = Expansion.for_network(state.network, specs)
        reliability, retained, rows = _reference_expansion(state, expansion, final)
        traced_rows = []
        traced, _ = run_expansion(state, expansion, final, trace=traced_rows.append)
        parent_count = len(state.infeasible)
        state, result = run_expansion(state, expansion, final)
        assert traced_rows == rows
        assert result.vectors_generated == len(rows)
        if len(specs) > engine._COMBO_CACHE_WIDTH:
            assert result.partitions_extended == parent_count
        for got in (state, traced):
            assert got.reliability.hex() == reliability
            assert _retained(got) == retained


def test_retained_set_reads_as_the_per_vector_reference_rows():
    state = initial_stage(bridge(0.9))
    expansion = Expansion.for_network(state.network, bridge_stages()[0])
    _, expected, _ = _reference_expansion(state, expansion, final=False)
    state, _ = run_expansion(state, expansion, final=False)
    retained = state.infeasible
    assert isinstance(retained, RetainedSet)
    assert len(retained) == len(expected) == 58
    assert type(retained.masks) is type(retained.partitions) is list
    assert (retained.indices.typecode, retained.probabilities.typecode) == ("q", "d")
    # Row k is the k-th entry of each column; `_retained` zips them strictly.
    assert _retained(state) == expected


def test_a_slice_of_the_retained_set_runs_a_stage():
    state = initial_stage(bridge(0.9))
    state = dataclasses.replace(state, infeasible=_sliced(state.infeasible, slice(5, 12)))
    expansion = Expansion.for_network(state.network, bridge_stages()[0])
    reliability, retained, rows = _reference_expansion(state, expansion, final=False)
    grown, result = run_expansion(state, expansion, final=False)
    assert result.vectors_generated == len(rows) == 7 * 4
    assert grown.reliability.hex() == reliability
    assert _retained(grown) == retained


def test_a_streamed_batch_is_split_into_chunks_of_the_cache_size(monkeypatch):
    chunks = []

    def recording(partition, rows, *args):
        chunks.append([offset for offset, _, _, _ in rows])
        return entry(partition, rows, *args)

    entry = engine._entry
    monkeypatch.setattr(engine, "_entry", recording)
    monkeypatch.setattr(engine, "_COMBO_CACHE_WIDTH", 1)
    state = initial_stage(bridge(0.9))
    three = ((2, 5, 0.9), (4, 5, 0.9), (3, 5, 0.9))
    expansion = Expansion.for_network(state.network, three)
    _, result = run_expansion(state, expansion, final=True)
    assert result.vectors_generated == 16 * 7
    # Each of the 16 vectors builds its entries afresh, two rows at a time.
    assert chunks == [[1, 2], [3, 4], [5, 6], [7]] * 16


def test_each_distinct_partition_is_extended_once_per_combination(monkeypatch):
    calls = collections.Counter()

    def counting(name):
        plain = getattr(engine, name)

        def counted(*args):
            calls[name] += 1
            return plain(*args)

        monkeypatch.setattr(engine, name, counted)

    counting("extend_partition")
    counting("extend_partition_detail")
    net = grid_3x3()
    state = initial_stage(net)
    expected = examined = 0
    for k, specs in enumerate(GRID_STAGES):
        final = k == len(GRID_STAGES) - 1
        distinct = set(state.infeasible.partitions)
        # Equal partitions are interned: one object per distinct value,
        # and so are equal components of different partitions.
        assert len(set(map(id, state.infeasible.partitions))) == len(distinct)
        components = [c for p in distinct for c in (p.source_side, p.sink_side, *p.middle)]
        assert len({id(c) for c in components}) == len(set(components))
        combos = (1 << len(specs)) - final
        if final:
            # The final stage extends each distinct projection onto the
            # terminals and the batch's endpoints, and those are fewer.
            keep = {net.source, net.sink}.union(*((u, v) for u, v, _ in specs))
            projections = {project_partition(p, frozenset(keep)) for p in distinct}
            assert len(projections) * combos < len(distinct) * combos
            expected += len(projections) * combos
        else:
            expected += len(distinct) * combos
        expansion = Expansion.for_network(state.network, specs)
        # A traced stage memoises too: once per distinct partition and combination.
        traced_before = calls["extend_partition_detail"]
        _, traced = run_expansion(state, expansion, final, trace=lambda row: None)
        assert calls["extend_partition_detail"] - traced_before == len(distinct) * combos
        assert traced.partitions_extended == len(distinct)
        state, result = run_expansion(state, expansion, final)
        assert result.partitions_extended == len(distinct)
        examined += result.vectors_generated
    assert calls["extend_partition"] == expected
    assert calls["extend_partition"] < examined
    assert calls["extend_partition_detail"] < examined


def test_streamed_batch_matches_the_same_arcs_split_in_two():
    # One arc between the terminals; its off state is the only retained vector.
    net = Network(frozenset({1, 2}), ((1, 2),), (0.7,), 1, 2)
    first = ((1, 3), (3, 2), (1, 4), (4, 2), (1, 5), (5, 2), (1, 6), (6, 2), (3, 4))
    second = ((4, 5), (5, 6), (1, 7), (7, 2), (7, 3), (1, 8), (8, 2), (8, 6))
    p = [0.5 + 0.025 * k for k in range(17)]
    batch = [(u, v, q) for (u, v), q in zip(first + second, p)]
    assert len(batch) > engine._COMBO_CACHE_WIDTH
    whole = run(net, [batch])
    split = run(net, [batch[:9], batch[9:]])
    assert whole[-1].reliability == pytest.approx(split[-1].reliability, abs=1e-12)
    assert whole[1].vectors_generated == whole[0].infeasible_count * ((1 << 17) - 1)
    assert whole[1].partitions_extended == whole[0].infeasible_count == 1
    assert split[1].vectors_generated == split[0].infeasible_count << 9
    assert split[2].vectors_generated == split[1].infeasible_count * ((1 << 8) - 1)


def test_a_dropped_stage_leaves_no_memory_held_by_the_engine():
    # One arc between the terminals, then a 12-arc batch: 4,096 combinations,
    # about 0.6 MB of tuples if the engine kept them past the stage.
    net = Network(frozenset({1, 2}), ((1, 2),), (0.7,), 1, 2)
    batch = [(1, v, 0.5) for v in range(3, 9)] + [(v, 2, 0.5) for v in range(3, 9)]
    state = initial_stage(net)
    expansion = Expansion.for_network(state.network, batch)
    tracemalloc.start(4)
    try:
        run_expansion(state, expansion, final=False)
        gc.collect()  # also empties the tuple free lists, which tracemalloc counts
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = snapshot.filter_traces([tracemalloc.Filter(True, engine.__file__, all_frames=True)])
    assert sum(trace.size for trace in held.traces) < 64 << 10


@pytest.fixture(scope="module")
def traced_stage2():
    """What a non-final stage 2 of the 3x3 grid leaves allocated, and its state.

    The stage runs from the first 1,000 of stage 1's 11,373 vectors:
    every allocation is traced, which makes the full stage some ten
    times slower.
    """
    state = initial_stage(grid_3x3())
    state, _ = run_expansion(
        state, Expansion.for_network(state.network, GRID_STAGES[0]), final=False
    )
    expansion = Expansion.for_network(state.network, GRID_STAGES[1])
    state = dataclasses.replace(state, infeasible=_sliced(state.infeasible, slice(1000)))
    gc.collect()
    tracemalloc.start()
    try:
        grown, _ = run_expansion(state, expansion, final=False)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert len(grown.infeasible) > 5000
    return snapshot, grown


def test_a_retained_vector_costs_under_200_bytes_of_its_own(traced_stage2):
    snapshot, grown = traced_stage2
    # Allocations made by the engine's own lines: each vector's mask and
    # its slots in the four columns, and the interned copy of each
    # distinct partition, shared by every vector holding it. About 91 B.
    own = snapshot.filter_traces([tracemalloc.Filter(True, engine.__file__)])
    per_vector = sum(trace.size for trace in own.traces) / len(grown.infeasible)
    assert per_vector < 100


def test_a_retained_vector_costs_under_300_bytes_in_all(traced_stage2):
    snapshot, grown = traced_stage2
    # Every allocation the stage leaves behind, components included: the
    # kernel builds only the components a selected arc joins, and the
    # engine interns them, so partitions share them. About 127 B.
    per_vector = sum(trace.size for trace in snapshot.traces) / len(grown.infeasible)
    assert per_vector < 135


@settings(derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_retained_masks_carry_exact_probabilities_and_partitions(seed):
    net, stages = random_scenario(random.Random(seed))
    state = initial_stage(net)
    # Every batch runs non-final, so every stage retains vectors to check.
    for specs in [(), *stages]:
        if specs:
            expansion = Expansion.for_network(state.network, specs)
            state, _ = run_expansion(state, expansion, final=False)
        m, r = state.network.arc_count, state.infeasible
        for mask, partition, probability in zip(r.masks, r.partitions, r.probabilities):
            bits = mask_bits(mask, m)
            assert probability.hex() == vector_probability(bits, state.network).hex()
            assert partition == partition_nodes(state.network, bits)


def test_the_increl_logger_reports_each_stage_once(caplog):
    caplog.set_level(logging.DEBUG, logger="increl")
    run(bridge(0.9), bridge_stages())
    lines = [r.getMessage() for r in caplog.records if r.name == "increl"]
    assert len(lines) == 3
    assert lines[0].startswith("stage 0: examined 32, retained 16, partitions extended 0, ")
    assert lines[1].startswith("stage 1: examined 64, retained 58, partitions extended 10, ")
    assert lines[2].startswith("stage 2: examined 58, retained 0, partitions extended 27, ")
    assert all(line.endswith(" s") for line in lines)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_stage_loops_pause_gc_and_restore_the_callers_setting(enabled):
    seen = []
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        run(bridge(), bridge_stages(), trace=lambda row: seen.append(gc.isenabled()))
        assert gc.isenabled() is enabled
        # Stage 0 retains 16 vectors and stage 1 58: trip the cap in each.
        for cap in (3, 20):
            with pytest.raises(CapExceededError):
                run(bridge(), bridge_stages(), max_retained=cap)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen and not any(seen)
