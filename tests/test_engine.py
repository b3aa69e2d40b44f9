"""Staged engine: stage 0, extensions, conservation, caps, traces."""

import collections
import gc
import inspect
import itertools
import logging
import math
import random
import time
import tracemalloc
import types
from array import array

import pytest
from hypothesis import example, given, settings
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
    extend_partition,
    extend_partition_detail,
    full_enumeration_counts,
    initial_stage,
    is_connected,
    mask_bits,
    partition_nodes,
    project_partition,
    run,
    run_expansion,
    vector_probability,
)
from increl import connectivity
from increl.connectivity import LabelOrder, label_add_arc, label_add_nodes
from helpers import (
    GRID_STAGES,
    bridge,
    bridge_stages,
    cumulative_networks,
    grid_3x3,
    random_scenario,
    renamed_scenario,
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
    assert [(mask_bits(mask, 1), p) for mask, _, _, p in state.infeasible.rows()] == [
        ((0,), vector_probability((0,), net))
    ]


def _reference_initial_stage(net):
    """The plain per-vector loop: one `partition_nodes` sweep per vector.

    Returns the reliability as float hex, the retained vectors as
    (bits, index, partition, probability as float hex) and every
    vector's trace row.
    """
    total = comp = 0.0
    retained, rows = [], []
    for index, bits in enumerate(counting_vectors(net.arc_count), start=1):
        part = partition_nodes(net, bits)
        connected = is_connected(part)
        rows.append(TraceRow(0, index, index, bits, part, connected))
        x = vector_probability(bits, net)
        if connected:
            t = total + x
            comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        else:
            retained.append((bits, index, part, x.hex()))
    return (total + comp).hex(), retained, rows


@st.composite
def _networks(draw):
    """A network of 2..7 nodes and 1..9 arcs; nodes and a terminal may have no arc."""
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    arcs = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=9, unique=True))
    source, sink = draw(st.permutations(range(1, n + 1)))[:2]
    probabilities = draw(st.lists(st.floats(0.0, 1.0), min_size=len(arcs), max_size=len(arcs)))
    return Network(frozenset(range(1, n + 1)), tuple(arcs), tuple(probabilities), source, sink)


# The sink has no arc, and node 4 is isolated.
@settings(derandomize=True, deadline=None)
@given(_networks())
@example(Network(frozenset(range(1, 6)), ((1, 2), (2, 3), (1, 3)), (0.9, 0.5, 0.25), 1, 5))
def test_stage_zero_walk_matches_the_per_vector_reference(net):
    reliability, retained, rows = _reference_initial_stage(net)
    traced_rows = []
    traced = initial_stage(net, trace=lambda block: traced_rows.extend(block.rows()))
    untraced = initial_stage(net)
    # Connected rows included: each outcome holds the exact components.
    assert traced_rows == rows
    assert all(row.partition == partition_nodes(net, row.bits) for row in traced_rows)
    for state in (traced, untraced):
        assert state.reliability.hex() == reliability
        assert _retained(state) == retained


def test_stage_zero_takes_one_label_step_per_vector(monkeypatch):
    steps = []

    def counted_step(label, ends):
        steps.append(ends)
        return label_add_arc(label, ends)

    def no_sweep(net, bits):
        raise AssertionError("stage 0 searched the graph")

    monkeypatch.setattr(engine, "label_add_arc", counted_step)
    monkeypatch.setattr(engine, "partition_nodes", no_sweep)
    net = grid_3x3()
    # Arc 1's ends, as positions among the nodes sorted.
    first = tuple(sorted(net.nodes).index(v) for v in net.arcs[0])
    for trace in (None, lambda block: None):
        steps.clear()
        initial_stage(net, trace=trace)
        assert len(steps) == (1 << net.arc_count) - 1
        # Vector k steps by the arc of its lowest set bit: arc 1 every other vector.
        assert collections.Counter(steps)[first] == 1 << (net.arc_count - 1)


def test_stage_zero_holds_a_stack_of_labels_beyond_its_retained_set(monkeypatch):
    net = grid_3x3()
    steps = []
    during = []

    def at_the_last_step(label, ends):
        child = label_add_arc(label, ends)
        steps.append(ends)
        if len(steps) == (1 << net.arc_count) - 1:
            # Every label is made by a step or by the base in `connectivity`.
            made = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, connectivity.__file__)]
            )
            during.append(len(made.traces))
        return child

    monkeypatch.setattr(engine, "label_add_arc", at_the_last_step)
    tracemalloc.start()
    try:
        state = initial_stage(net)
    finally:
        tracemalloc.stop()
    distinct = len({part for _, part, _, _ in state.infeasible.rows()})
    assert 0 < distinct < len(state.infeasible)
    # One label per distinct retained partition, the walk's m + 1 and the step's own.
    assert during[0] <= distinct + net.arc_count + 2


def test_initial_stage_rejects_arcless_network():
    with pytest.raises(ValueError):
        initial_stage(Network(frozenset({1, 2}), (), (), 1, 2))


def test_initial_stage_cap():
    # Refused before any vector is enumerated.
    with pytest.raises(CapExceededError, match="31 arcs, enumeration capped at 30"):
        initial_stage(_long_ladder(31))


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
    net = state.network
    empty = EngineState(
        network=net,
        stage_index=state.stage_index,
        reliability_sum=state.reliability_sum,
        reliability_comp=state.reliability_comp,
        infeasible=RetainedSet(state.infeasible.order),
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
        vector_probability(mask_bits(mask, m), state.network)
        for mask, _, _, _ in state.infeasible.rows()
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
    row = result._asdict()
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


def _counted_binds(monkeypatch, delay=0.0):
    """Wrap `engine.extend_network`, sleeping `delay` s per call; returns the call list."""
    calls, extend = [], engine.extend_network

    def counted(net, expansion):
        calls.append(expansion)
        time.sleep(delay)
        return extend(net, expansion)

    monkeypatch.setattr(engine, "extend_network", counted)
    return calls


def test_run_binds_each_batch_once(monkeypatch):
    calls = _counted_binds(monkeypatch)
    run(bridge(0.9), bridge_stages())
    assert len(calls) == 2
    state = initial_stage(bridge(0.9))
    run_expansion(state, Expansion.for_network(state.network, bridge_stages()[0]), final=False)
    assert len(calls) == 3


def test_elapsed_s_excludes_binding(monkeypatch):
    # Each bridge stage takes well under a millisecond; binding sleeps 50 ms.
    _counted_binds(monkeypatch, delay=0.05)
    rows = run(bridge(0.9), bridge_stages())[1:]
    state = initial_stage(bridge(0.9))
    expansion = Expansion.for_network(state.network, bridge_stages()[0])
    rows.append(run_expansion(state, expansion, final=False)[1])
    assert [r.elapsed_s < 0.05 for r in rows] == [True] * 3


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


def test_full_enumeration_counts_past_63_arcs():
    wide = Network(
        frozenset(range(1, 13)),
        tuple((u, v) for u in range(1, 13) for v in range(u + 1, 13))[:63],
        (0.5,) * 63,
        1,
        12,
    )
    assert full_enumeration_counts(wide, []) == [1 << 63]


def test_trace_callback_sees_every_vector():
    rows = []
    results = run(bridge(0.9), bridge_stages(), trace=lambda block: rows.extend(block.rows()))
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
    for mask, partition, index, _ in parents.rows():
        for combo in list(counting_vectors(expansion.arc_count))[final:]:
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
    m = state.network.arc_count
    return [
        (mask_bits(mask, m), index, part, p.hex())
        for mask, part, index, p in state.infeasible.rows()
    ]


def _sliced(state, piece):
    """A retained set holding a slice of the state's groups, each whole."""
    retained = state.infeasible
    part = RetainedSet(retained.order)
    part.masks, part.probabilities = retained.masks[piece], retained.probabilities[piece]
    part.bases, part.kept = retained.bases[piece], retained.kept[piece]
    return part


_SMALL_CASES = [("bridge", bridge(0.9), bridge_stages())] + [
    (f"random-{seed}", *random_scenario(random.Random(seed))) for seed in range(12)
]


@pytest.mark.parametrize(
    "net, stages, chunk",
    [pytest.param(net, stages, None, id=name) for name, net, stages in _SMALL_CASES]
    + [pytest.param(grid_3x3(), GRID_STAGES, None, id="grid-3x3")]
    + [pytest.param(net, stages, 1, id=f"{name}-streamed") for name, net, stages in _SMALL_CASES]
    + [pytest.param(net, stages, 2, id=f"{name}-chunked") for name, net, stages in _SMALL_CASES],
)
def test_run_expansion_matches_per_vector_reference(net, stages, chunk):
    # Streamed: the same arcs in the same order, one per batch. Chunked:
    # each batch split into batches of at most two arcs. Either way only
    # the last batch's stage is final.
    batches = (
        [batch[i : i + chunk] for batch in stages for i in range(0, len(batch), chunk)]
        if chunk
        else stages
    )
    state = initial_stage(net)
    for k, specs in enumerate(batches):
        final = k == len(batches) - 1
        expansion = Expansion.for_network(state.network, specs)
        reliability, retained, rows = _reference_expansion(state, expansion, final)
        traced_rows = []
        traced, _ = run_expansion(
            state, expansion, final, trace=lambda block: traced_rows.extend(block.rows())
        )
        state, result = run_expansion(state, expansion, final)
        assert traced_rows == rows
        assert result.vectors_generated == len(rows)
        for got in (state, traced):
            assert got.reliability.hex() == reliability
            assert _retained(got) == retained
    if chunk:
        assert state.reliability == pytest.approx(run(net, stages)[-1].reliability, abs=1e-12)


def test_retained_set_reads_as_the_per_vector_reference_rows():
    state = initial_stage(bridge(0.9))
    expansion = Expansion.for_network(state.network, bridge_stages()[0])
    _, expected, _ = _reference_expansion(state, expansion, final=False)
    state, _ = run_expansion(state, expansion, final=False)
    retained = state.infeasible
    assert isinstance(retained, RetainedSet)
    assert len(retained) == len(expected) == 58
    assert type(retained.kept) is list
    columns = (retained.masks, retained.bases, retained.probabilities)
    assert [column.typecode for column in columns] == ["Q", "q", "d"]
    # One group per stage-0 vector that keeps a child, in the stage's order.
    assert len(retained.masks) == len(retained.kept) < len(retained)
    # `_retained` spells the groups out as vectors.
    assert _retained(state) == expected


@pytest.mark.parametrize(
    "net, stages", [pytest.param(net, stages, id=name) for name, net, stages in _SMALL_CASES]
)
def test_every_stage_keeps_one_group_rule(net, stages):
    # A group's base counts the vectors its stage examined before the
    # group's first one, and a row's offset is its combination's number
    # plus one. Stage 0's vector k, its mask, comes after k others and
    # is the empty combination of a group of its own.
    state = initial_stage(net)
    retained = state.infeasible
    assert list(retained.bases) == list(retained.masks)
    # One row: offset 1, and no bits, mask or factors.
    assert all(rows == ((1, (), 0, ()),) for rows, _ in retained.kept)
    for specs in stages[:-1]:
        shift = state.network.arc_count
        expansion = Expansion.for_network(state.network, specs)
        state, _ = run_expansion(state, expansion, final=False)
        retained = state.infeasible
        combos = 1 << expansion.arc_count
        assert all(base % combos == 0 for base in retained.bases)
        for rows, _ in retained.kept:
            assert all(mask == (offset - 1) << shift for offset, _, mask, _ in rows)


def _long_ladder(arc_count):
    """A ladder cut to `arc_count` arcs: node i on the top rail, i + 40 below it."""
    arcs = []
    for i in range(1, 40):
        arcs += [(i, i + 1), (i, i + 40), (i + 40, i + 41)]
    arcs = arcs[:arc_count]
    nodes = frozenset(v for arc in arcs for v in arc)
    return Network(nodes, tuple(arcs), (0.5,) * arc_count, 1, max(nodes))


@pytest.mark.parametrize("arc_count", [64, 65])
def test_a_stage_that_keeps_vectors_holds_its_masks_in_a_word(arc_count):
    # A 63-arc ladder grown by an arc from the source to a new node, to
    # 64 arcs, or by that arc and one on to the sink, to 65.
    net = _long_ladder(63)
    order = LabelOrder(sorted(net.nodes), net.source, net.sink)
    rng = random.Random(63)
    # A few vectors with the source's two arcs failed, so none joins the
    # terminals, and the last arc working.
    parents = RetainedSet(order)
    for index in range(1, 6):
        bits = (0, 0, *(int(rng.random() < 0.7) for _ in range(60)), 1)
        part = partition_nodes(net, bits)
        assert not is_connected(part)
        # Each vector a group of its own, as stage 0 keeps them.
        parents.masks.append(sum(bit << j for j, bit in enumerate(bits)))
        parents.probabilities.append(vector_probability(bits, net))
        parents.bases.append(3 * index)
        parents.kept.append(((engine._IDENTITY_ROW,), (order.label(part),)))
    state = EngineState(net, 0, 0.25, 0.0, parents)
    batch = ((1, 1000, 0.75), (1000, net.sink, 0.5))[: arc_count - 63]
    expansion = Expansion.for_network(net, batch)
    if arc_count > 64:
        with pytest.raises(CapExceededError, match="65 arcs before the final stage; masks hold 64"):
            run_expansion(state, expansion, final=False)
        # A final stage keeps nothing, so it may pass the word.
        reliability, _, rows = _reference_expansion(state, expansion, final=True)
        grown, result = run_expansion(state, expansion, final=True)
        assert grown.reliability.hex() == reliability
        assert result.vectors_generated == len(rows) == 5 * 3
        return
    reliability, retained, rows = _reference_expansion(state, expansion, final=False)
    grown, result = run_expansion(state, expansion, final=False)
    assert isinstance(grown.infeasible.masks, array) and grown.infeasible.masks.typecode == "Q"
    assert grown.reliability.hex() == reliability
    assert _retained(grown) == retained
    assert result.vectors_generated == len(rows) == 5 * 2
    # The new arc's working state is the word's top bit.
    assert max(mask for mask, _, _, _ in grown.infeasible.rows()) >= 1 << 63


def test_a_slice_of_the_retained_set_runs_a_stage():
    state = initial_stage(bridge(0.9))
    state = state._replace(infeasible=_sliced(state, slice(5, 12)))
    expansion = Expansion.for_network(state.network, bridge_stages()[0])
    reliability, retained, rows = _reference_expansion(state, expansion, final=False)
    grown, result = run_expansion(state, expansion, final=False)
    assert result.vectors_generated == len(rows) == 7 * 4
    assert grown.reliability.hex() == reliability
    assert _retained(grown) == retained


class _EqualCopies(list):
    """Groups' (rows, labels) pairs that read as equal copies, a new object each time."""

    def __iter__(self):
        for rows, labels in super().__iter__():
            yield tuple([*rows]), tuple([*labels])


def test_a_stage_does_not_depend_on_the_identity_of_its_groups_pairs():
    # A copy freed after its group has been read hands its `id` on to a
    # later copy, so nothing keyed by identity may outlive the group.
    state = initial_stage(bridge(0.9))
    first, second = bridge_stages()
    state, _ = run_expansion(state, Expansion.for_network(state.network, first), final=False)
    copied = state._replace(infeasible=_sliced(state, slice(None)))
    copied.infeasible.kept = _EqualCopies(copied.infeasible.kept)
    expansion = Expansion.for_network(state.network, second)
    for trace in (None, lambda block: None):
        expected = run_expansion(state, expansion, final=True, trace=trace)
        got = run_expansion(copied, expansion, final=True, trace=trace)
        assert got[0].reliability.hex() == expected[0].reliability.hex()
        assert _comparable(got[1]) == _comparable(expected[1])
        assert got[0].reliability == pytest.approx(0.98872974, abs=1e-12)


@pytest.mark.parametrize("final", [False, True], ids=["kept", "final"])
def test_groups_of_equal_partitions_keep_their_own_rows(final):
    # Vectors 00110 and 00111 of the bridge share one partition, {1} and
    # {2 3 4}: arc 5 joins two nodes already joined. Each is a group of
    # the parent 0011 with one row for arc 5, so the groups' pairs hold
    # equal partitions but not equal rows.
    net = bridge(0.9)
    part = partition_nodes(net, (0, 0, 1, 1, 1))
    assert part == partition_nodes(net, (0, 0, 1, 1, 0)) and not is_connected(part)
    p = net.probabilities[0]
    order = LabelOrder(sorted(net.nodes), net.source, net.sink)
    parents = RetainedSet(order)
    label = order.label(part)
    for offset, bit in ((1, 0), (2, 1)):
        parents.masks.append(0b1100)
        parents.probabilities.append(math.prod((1.0 - p, 1.0 - p, p, p)))
        parents.bases.append(0)
        parents.kept.append((((offset, (bit,), bit << 4, (p if bit else 1.0 - p,)),), (label,)))
    assert [row[1] for row in parents.rows()] == [part, part]
    state = EngineState(net, 0, 0.0, 0.0, parents)
    expansion = Expansion.for_network(net, bridge_stages()[0])
    reliability, retained, rows = _reference_expansion(state, expansion, final)
    traced_rows = []
    traced, _ = run_expansion(
        state, expansion, final, trace=lambda block: traced_rows.extend(block.rows())
    )
    untraced, _ = run_expansion(state, expansion, final)
    assert traced_rows == rows
    for got in (traced, untraced):
        assert got.reliability.hex() == reliability
        assert _retained(got) == retained


def test_each_distinct_partition_is_extended_once_per_combination(monkeypatch):
    # One entry per base, in the order the bases are built: the label
    # steps taken from it, and whether one of them started from a label
    # that already connects.
    bases = []

    def counted_base(label, count):
        bases.append([0, False])
        return label_add_nodes(label, count)

    def counted_step(label, ends):
        bases[-1][0] += 1
        bases[-1][1] |= label[s] == label[t]
        return label_add_arc(label, ends)

    projected = []

    def counted_projection(label, positions):
        projected.append(label)
        return connectivity.project_label(label, positions)

    monkeypatch.setattr(engine, "label_add_nodes", counted_base)
    monkeypatch.setattr(engine, "label_add_arc", counted_step)
    monkeypatch.setattr(engine, "project_label", counted_projection)
    net = grid_3x3()
    # The terminals' positions: the network's nodes come first, sorted.
    s, t = (sorted(net.nodes).index(v) for v in (net.source, net.sink))
    state = initial_stage(net)
    steps = collections.Counter()
    examined = 0
    for k, specs in enumerate(GRID_STAGES):
        final = k == len(GRID_STAGES) - 1
        # Equal labels are interned: one object per distinct value.
        labels = [label for _, group in state.infeasible.kept for label in group]
        assert len(set(map(id, labels))) == len(set(labels))
        partitions = [part for _, part, _, _ in state.infeasible.rows()]
        distinct = set(partitions)
        assert len(distinct) == len(set(labels))
        # `rows()` builds one partition per distinct label, and equal
        # components of different partitions are one object.
        assert len(set(map(id, partitions))) == len(distinct)
        components = [c for p in distinct for c in (p.source_side, p.sink_side, *p.middle)]
        assert len({id(c) for c in components}) == len(set(components))
        if final:
            # An untraced final stage steps from each distinct projection
            # onto the terminals and the batch's endpoints, and those are fewer.
            keep = {net.source, net.sink}.union(*((u, v) for u, v, _ in specs))
            projections = {project_partition(p, frozenset(keep)) for p in distinct}
            # It projects each distinct tuple of the labels' own characters
            # at those nodes once. Those are fewer than the labels, and
            # some differ yet project equally: the projection merges them.
            position = state.infeasible.order.position
            at_keep = sorted(position[v] for v in keep if v in position)
            characters = {tuple(label[i] for i in at_keep) for label in labels}
            assert len(projections) < len(characters) < len(set(labels))
        expansion = Expansion.for_network(state.network, specs)
        for traced in (True, False):
            bases.clear()
            projected.clear()
            trace = (lambda block: None) if traced else None
            grown, result = run_expansion(state, expansion, final, trace=trace)
            assert len(bases) == (len(projections) if final and not traced else len(distinct))
            assert len(projected) == (len(characters) if final and not traced else 0)
            # At most one step per combination past the base, and none
            # from a prefix that already connects.
            assert all(taken <= (1 << len(specs)) - 1 for taken, _ in bases)
            assert not any(from_connected for _, from_connected in bases)
            assert result.partitions_extended == len(distinct)
            steps[traced] += sum(taken for taken, _ in bases)
        examined += result.vectors_generated
        state = grown
    assert 0 < steps[False] < examined and 0 < steps[True] < examined


# Seed 20 draws a 4-arc batch with an arc to a new node and one between two new nodes.
@settings(derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
@example(20)
def test_one_arc_steps_give_each_combinations_extension(seed):
    net, stages = random_scenario(random.Random(seed), max_batch=4)
    state = initial_stage(net)
    for k, specs in enumerate(stages):
        final = k == len(stages) - 1
        expansion = Expansion.for_network(state.network, specs)
        grown = extend_network(state.network, expansion)
        combos = tuple(counting_vectors(expansion.arc_count))
        parents, n = list(state.infeasible.rows()), len(combos)
        blocks = []
        traced, _ = run_expansion(state, expansion, final, trace=blocks.append)
        kept, _ = run_expansion(state, expansion, final=False)
        untraced, _ = run_expansion(state, expansion, final)
        assert untraced.reliability.hex() == traced.reliability.hex()
        children = {index: part for _, part, index, _ in kept.infeasible.rows()}
        # The first vector holding each distinct partition, with its block.
        first = {}
        for position, ((mask, part, _, _), block) in enumerate(zip(parents, blocks, strict=True)):
            first.setdefault(part, (position, mask, block))
        for part, (position, mask, block) in first.items():
            assert block.combos == combos[final:]
            traced_outcomes = [extend_partition_detail(part, c, expansion)[1] for c in combos]
            assert block.outcomes == tuple(traced_outcomes[final:])
            bits = mask_bits(mask, state.network.arc_count)
            for j, (combo, outcome) in enumerate(zip(combos, traced_outcomes)):
                child = extend_partition(part, combo, expansion)
                assert children.get(position * n + j + 1) == child
                if child is not None:
                    # A combination that does not connect holds the exact components.
                    assert outcome == child == partition_nodes(grown, bits + combo)
        state = kept


def _staged(net, stages, traced):
    """Each stage's comparable result, trace rows and retained labels' lengths."""
    rows, results = [], []
    trace = (lambda block: rows.extend(block.rows())) if traced else None
    state = initial_stage(net, trace=trace)
    for k, specs in enumerate([None, *stages]):
        if specs is not None:
            expansion = Expansion.for_network(state.network, specs)
            state, result = run_expansion(state, expansion, k == len(stages), trace=trace)
            results.append(_comparable(result))
        n = len(state.network.nodes)
        assert len(state.infeasible.order.nodes) == n
        assert {len(label) for _, labels in state.infeasible.kept for label in labels} <= {n}
    results.append(state.reliability.hex())
    return results, rows


def _components(partition):
    return partition.source_side, partition.sink_side, frozenset(partition.middle)


# New node ids drawn at random past a million: they arrive out of order,
# and a label's length is the node count, not the largest id.
@settings(derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.data())
def test_traced_and_untraced_runs_agree_under_any_node_ids(seed, data):
    net, stages = random_scenario(random.Random(seed))
    nodes = sorted(cumulative_networks(net, stages)[-1].nodes)
    drawn = data.draw(
        st.lists(st.integers(1, 10**12), min_size=len(nodes), max_size=len(nodes), unique=True)
    )
    ids = dict(zip(nodes, drawn))
    renamed, renamed_stages = renamed_scenario(net, stages, ids)
    plain, plain_rows = _staged(net, stages, traced=True)
    assert _staged(net, stages, traced=False)[0] == plain
    got, got_rows = _staged(renamed, renamed_stages, traced=True)
    assert got == plain
    assert _staged(renamed, renamed_stages, traced=False)[0] == plain
    assert len(got_rows) == len(plain_rows)
    back = {ids[v]: v for v in nodes}
    for row, expected in zip(got_rows, plain_rows):
        assert row._replace(partition=None) == expected._replace(partition=None)
        sides = [frozenset(back[v] for v in comp) for comp in row.partition[:2]]
        middle = frozenset(frozenset(back[v] for v in comp) for comp in row.partition.middle)
        assert (*sides, middle) == _components(expected.partition)
        assert (row.partition.source_side is row.partition.sink_side) == row.connected


def test_new_node_ids_may_arrive_in_any_order():
    # Node 100 arrives first, then 50, then a million.
    stages = [
        ((2, 100, 0.9), (4, 100, 0.8)),
        ((3, 50, 0.7), (50, 100, 0.6)),
        ((50, 10**6, 0.5), (10**6, 4, 0.4), (1, 10**6, 0.3)),
    ]
    in_order = {1: 1, 2: 2, 3: 3, 4: 4, 100: 5, 50: 6, 10**6: 7}
    renamed, renamed_stages = renamed_scenario(bridge(0.9), stages, in_order)
    got, _ = _staged(bridge(0.9), stages, traced=True)
    assert got == _staged(renamed, renamed_stages, traced=True)[0]
    assert got == _staged(bridge(0.9), stages, traced=False)[0]
    grown = cumulative_networks(bridge(0.9), stages)[-1]
    reliability = float.fromhex(got[-1])
    assert reliability == pytest.approx(brute_force_reliability(grown), abs=1e-12)


# One arc between the terminals; its off state is the only retained vector.
_ONE_ARC = Network(frozenset({1, 2}), ((1, 2),), (0.7,), 1, 2)
# 17 arcs to grow it by: one more than a batch may hold.
_WIDE_BATCH = [
    (u, v, 0.5 + 0.025 * k)
    for k, (u, v) in enumerate(
        ((1, 3), (3, 2), (1, 4), (4, 2), (1, 5), (5, 2), (1, 6), (6, 2), (3, 4))
        + ((4, 5), (5, 6), (1, 7), (7, 2), (7, 3), (1, 8), (8, 2), (8, 6))
    )
]


def test_a_batch_over_16_arcs_is_refused_and_its_splits_agree():
    with pytest.raises(CapExceededError, match="split"):
        run(_ONE_ARC, [_WIDE_BATCH])
    nine = run(_ONE_ARC, [_WIDE_BATCH[:9], _WIDE_BATCH[9:]])
    sixteen = run(_ONE_ARC, [_WIDE_BATCH[:16], _WIDE_BATCH[16:]])
    assert nine[-1].reliability == pytest.approx(sixteen[-1].reliability, abs=1e-12)
    assert nine[1].vectors_generated == nine[0].infeasible_count << 9
    assert nine[2].vectors_generated == nine[1].infeasible_count * ((1 << 8) - 1)
    assert sixteen[1].vectors_generated == sixteen[0].infeasible_count << 16
    assert sixteen[1].partitions_extended == sixteen[0].infeasible_count == 1
    assert sixteen[2].vectors_generated == sixteen[1].infeasible_count


def test_a_batch_of_16_arcs_runs():
    state = initial_stage(_ONE_ARC)
    expansion = Expansion.for_network(state.network, _WIDE_BATCH[:16])
    grown, result = run_expansion(state, expansion, final=True)
    assert result.vectors_generated == (1 << 16) - 1
    assert run(_ONE_ARC, [_WIDE_BATCH[:16]])[-1].reliability == grown.reliability


def test_a_batch_of_17_arcs_is_refused_before_any_stage_work(monkeypatch):
    state = initial_stage(_ONE_ARC)
    expansion = Expansion.for_network(state.network, _WIDE_BATCH)

    def no_work(*args):
        raise AssertionError("stage work before the cap")

    monkeypatch.setattr(engine, "extend_network", no_work)
    monkeypatch.setattr(engine, "_rows", no_work)
    with pytest.raises(CapExceededError, match="combination") as refused:
        run_expansion(state, expansion, final=True)
    assert "at most 16 arcs" in str(refused.value)
    monkeypatch.undo()
    with pytest.raises(CapExceededError, match="split"):
        run(_ONE_ARC, [_WIDE_BATCH])


def test_run_binds_and_checks_every_batch_before_stage_zero(monkeypatch):
    def no_stage(*args, **kwargs):
        raise AssertionError("stage 0 ran before every batch was checked")

    monkeypatch.setattr(engine, "_initial", no_stage)
    first, second = bridge_stages()
    limit = connectivity.MAX_NODES
    # A network, the batches before the refused one, the refused batch,
    # which is not the last, the node limit, the error and its message.
    cases = [
        (bridge(), [first], [(1, 100 + k, 0.5) for k in range(17)], limit,
         CapExceededError, "split"),
        (bridge(), [first, second], first, limit, ExpansionError, "parallel"),
        (bridge(), [first], [(1, 6, 0.5), (6, 7, 0.5)], 6,
         CapExceededError, "7 nodes, labels hold at most 6"),
        (bridge(), [first], [(0, 5, 0.5)], limit,
         ExpansionError, r"node ids must be positive, got \(0, 5\)"),
        (_long_ladder(60), [], [(1, 100 + k, 0.5) for k in range(5)], limit,
         CapExceededError, "65 arcs before the final stage; masks hold 64"),
    ]
    for net, before, refused, node_limit, error, message in cases:
        monkeypatch.setattr(connectivity, "MAX_NODES", node_limit)
        with pytest.raises(error, match=message) as by_run:
            run(net, [*before, refused, [(1, 999, 0.5)]])
        # The same batch, unchecked, handed to the stage that would run it.
        grown = net
        for specs in before:
            grown = extend_network(grown, Expansion.for_network(grown, specs))
        order = LabelOrder(sorted(grown.nodes), grown.source, grown.sink)
        arcs = tuple((u, v) for u, v, _ in refused)
        new_nodes = frozenset(w for arc in arcs for w in arc) - grown.nodes
        expansion = Expansion(arcs, tuple(p for _, _, p in refused), new_nodes)
        state = EngineState(grown, len(before), 0.0, 0.0, RetainedSet(order))
        with pytest.raises(error) as by_stage:
            run_expansion(state, expansion, final=False)
        assert type(by_stage.value) is type(by_run.value)
        assert str(by_stage.value) == str(by_run.value)


def _rows_held(grown):
    """The bytes of the combinations' rows that a stage leaves allocated."""
    gc.collect()  # also empties the tuple free lists, which tracemalloc counts
    snapshot = tracemalloc.take_snapshot()
    # The loaded code's lines, not the file's: an edit on disk would shift them.
    linenos = [line for _, _, line in engine._rows.__code__.co_lines() if line is not None]
    made_by_rows = snapshot.filter_traces(
        [
            tracemalloc.Filter(True, engine.__file__, lineno)
            for lineno in range(min(linenos), max(linenos) + 1)
        ]
    )
    return sum(trace.size for trace in made_by_rows.traces)


def test_the_groups_of_a_stage_share_its_rows():
    state = initial_stage(bridge(0.9))
    expansion = Expansion.for_network(state.network, bridge_stages()[0])
    _, expected, _ = _reference_expansion(state, expansion, final=False)
    # Rows built from tuples freed before tracing starts would go uncounted.
    gc.collect()
    tracemalloc.start()
    try:
        grown, _ = run_expansion(state, expansion, final=False)
        held = _rows_held(grown)
    finally:
        tracemalloc.stop()
    assert _retained(grown) == expected
    # The stage's rows live on in the groups that refer to them.
    assert held > 0
    assert len(grown.infeasible.kept) < len(grown.infeasible)


def test_an_entry_that_keeps_no_row_shares_one_empty_pair(monkeypatch):
    entries = []
    make_entry = engine._entry

    def recorded(*args):
        entries.append(make_entry(*args))
        return entries[-1]

    monkeypatch.setattr(engine, "_entry", recorded)
    state = initial_stage(grid_3x3())
    for k, specs in enumerate(GRID_STAGES):
        final = k == len(GRID_STAGES) - 1
        expansion = Expansion.for_network(state.network, specs)
        for trace in (None, lambda block: None):
            entries.clear()
            grown, _ = run_expansion(state, expansion, final, trace=trace)
            # A non-final entry keeps at least the combination of no new
            # arc; a final one keeps nothing.
            assert {pair is engine._NO_KEPT for _, _, pair in entries} == {final}
        state = grown


def test_an_untraced_final_stage_prices_only_the_children_it_connects(monkeypatch):
    net = grid_3x3()
    state = initial_stage(net)
    state, _ = run_expansion(
        state, Expansion.for_network(state.network, GRID_STAGES[0]), final=False
    )
    # Three arcs, so a child's two row factors tell its product from a combination's.
    expansion = Expansion.for_network(state.network, GRID_STAGES[1])
    # Each retained vector's connecting combinations, from its partition.
    connects = {}
    for _, part, _, _ in state.infeasible.rows():
        if part not in connects:
            combos = list(counting_vectors(expansion.arc_count))[1:]
            connects[part] = sum(extend_partition(part, c, expansion) is None for c in combos)
    counts = [connects[part] for _, part, _, _ in state.infeasible.rows()]
    reliability, _, _ = _reference_expansion(state, expansion, final=True)
    products = []

    def counted(factors, start):
        products.append(len(factors))
        return math.prod(factors, start=start)

    monkeypatch.setattr(engine, "prod", counted)
    grown, result = run_expansion(state, expansion, final=True)
    assert grown.reliability.hex() == reliability
    children = sum(count > 0 for count in counts)
    assert 0 < children < len(counts) == 11373
    # One product per child that some combination connects, for its
    # probability, and one per combination that connects it.
    assert len(products) == children + sum(counts)
    assert products.count(len(GRID_STAGES[0])) == children


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
    """What a non-final stage 2 of the 3x3 grid leaves allocated, its
    peak of traced bytes, and its state.

    The stage runs from the first 1,000 of stage 1's groups, each whole:
    every allocation is traced, which makes the full stage some ten
    times slower.
    """
    state = initial_stage(grid_3x3())
    state, _ = run_expansion(
        state, Expansion.for_network(state.network, GRID_STAGES[0]), final=False
    )
    expansion = Expansion.for_network(state.network, GRID_STAGES[1])
    state = state._replace(infeasible=_sliced(state, slice(1000)))
    gc.collect()
    tracemalloc.start()
    try:
        grown, _ = run_expansion(state, expansion, final=False)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(grown.infeasible) > 5000
    return snapshot, peak, grown


def test_a_retained_vector_costs_under_200_bytes_of_its_own(traced_stage2):
    snapshot, _, grown = traced_stage2
    # Allocations made by the engine's own lines: each group's slots in
    # the four columns, its mask a machine word, shared by the group's
    # vectors; the kept rows and child labels of each memo entry, shared
    # by every group that refers to them; and the interned copy of each
    # distinct label, shared by every vector holding it. About 26 B;
    # interned `NodePartition`s in place of labels read 53 B.
    own = snapshot.filter_traces([tracemalloc.Filter(True, engine.__file__)])
    per_vector = sum(trace.size for trace in own.traces) / len(grown.infeasible)
    assert per_vector < 30


def test_a_retained_vector_costs_under_300_bytes_in_all(traced_stage2):
    snapshot, _, grown = traced_stage2
    # Every allocation the stage leaves behind: a label is one string
    # with one character per node, and holds no component sets. About
    # 49 B; `NodePartition`s, sharing interned components, read 89 B.
    per_vector = sum(trace.size for trace in snapshot.traces) / len(grown.infeasible)
    assert per_vector < 55


def test_a_stage_peaks_under_160_bytes_per_retained_vector(traced_stage2):
    _, peak, grown = traced_stage2
    # The peak adds what the stage drops at its end, the memo above all:
    # an entry refers to the stage's rows, one pointer per kept row.
    # About 79 B; `NodePartition`s in place of labels read 142 B.
    assert peak / len(grown.infeasible) < 90


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
        m = state.network.arc_count
        for mask, partition, _, probability in state.infeasible.rows():
            bits = mask_bits(mask, m)
            assert probability.hex() == vector_probability(bits, state.network).hex()
            assert partition == partition_nodes(state.network, bits)


def test_the_default_retained_cap_trips_before_memory_runs_out():
    # A retained vector was measured at 155 B of resident memory on a
    # 4x4 grid (469 MB for 3.03M vectors); a full set at the default cap
    # must stay under 3 GB, well inside an 8 GB machine.
    assert engine.DEFAULT_MAX_RETAINED * 155 < 3 << 30
    assert (engine.DEFAULT_MAX_RETAINED + 1) * 155 > 2.5e9
    for entry_point in (run, initial_stage, run_expansion):
        default = inspect.signature(entry_point).parameters["max_retained"].default
        assert default == engine.DEFAULT_MAX_RETAINED


def test_the_increl_logger_reports_each_stage_once(caplog, monkeypatch):
    # A clock that steps 1.0 s per reading: a stage that reads it once to
    # start and once to close takes 1.000 s, on its row and on its line.
    clock = itertools.count(0.0, 1.0)
    monkeypatch.setattr(engine, "time", types.SimpleNamespace(perf_counter=clock.__next__))
    caplog.set_level(logging.DEBUG, logger="increl")

    def logged():
        lines = [r.getMessage() for r in caplog.records if r.name == "increl"]
        caplog.clear()
        return lines

    rows = run(bridge(0.9), bridge_stages())
    lines = logged()
    assert len(lines) == 3
    assert lines[0].startswith("stage 0: examined 32, retained 16, partitions extended 0, ")
    assert lines[1].startswith("stage 1: examined 64, retained 58, partitions extended 10, ")
    assert lines[2].startswith("stage 2: examined 58, retained 0, partitions extended 27, ")
    assert [line.split(", ")[-1] for line in lines] == [f"{r.elapsed_s:.3f} s" for r in rows]
    assert [r.elapsed_s for r in rows] == [1.0] * 3
    # Driven by hand, each stage logs the same one line; the growth rows match theirs.
    state = initial_stage(bridge(0.9))
    assert logged() == lines[:1]
    by_hand = []
    for k, specs in enumerate(bridge_stages()):
        expansion = Expansion.for_network(state.network, specs)
        state, row = run_expansion(state, expansion, final=k == 1)
        by_hand.append(row)
        assert logged() == [lines[k + 1]]
    assert [f"{r.elapsed_s:.3f} s" for r in by_hand] == [line.split(", ")[-1] for line in lines[1:]]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_stage_loops_leave_the_callers_gc_setting_untouched(enabled):
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
    # Every block of every stage was handed over under the caller's setting:
    # one per stage-0 vector, then one per retained parent vector.
    assert len(seen) == 32 + 16 + 58
    assert set(seen) == {enabled}
