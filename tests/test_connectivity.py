"""Connectivity: layered search, node partitions, and in-place extension."""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from increl import (
    Expansion,
    ExpansionError,
    NodePartition,
    concat_bits,
    counting_vectors,
    extend_network,
    extend_partition,
    extend_partition_detail,
    initial_stage,
    is_connected,
    layered_search,
    mask_bits,
    partition_nodes,
    project_partition,
    run_expansion,
)
from helpers import bridge, random_scenario


def bfs_connected(net, bits):
    """Reference predicate, kept deliberately plain."""
    adj = {v: [] for v in net.nodes}
    for (u, v), bit in zip(net.arcs, bits):
        if bit:
            adj[u].append(v)
            adj[v].append(u)
    seen = {net.source}
    queue = deque([net.source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return net.sink in seen


def reference_components(net, bits):
    adj = {v: [] for v in net.nodes}
    for (u, v), bit in zip(net.arcs, bits):
        if bit:
            adj[u].append(v)
            adj[v].append(u)
    comps = []
    left = set(net.nodes)
    while left:
        start = left.pop()
        comp = {start}
        queue = [start]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        left -= comp
        comps.append(frozenset(comp))
    return set(comps)


def as_component_set(partition):
    return {partition.source_side, partition.sink_side, *partition.middle}


def test_layers_golden_all_arcs_working():
    trace = layered_search(bridge(), (1, 1, 1, 1, 1))
    assert trace.layers == (frozenset({1}), frozenset({2, 3}), frozenset({4}))
    assert trace.connected


def test_layers_no_arcs():
    trace = layered_search(bridge(), (0, 0, 0, 0, 0))
    assert trace.layers == (frozenset({1}),)
    assert not trace.connected


def test_layers_direct_path():
    assert layered_search(bridge(), (1, 0, 0, 1, 0)).connected


def test_partition_split_both_sides():
    part = partition_nodes(bridge(), (0, 1, 0, 1, 0))
    assert part.source_side == frozenset({1, 3})
    assert part.sink_side == frozenset({2, 4})
    assert part.middle == ()


def test_partition_every_node_isolated():
    part = partition_nodes(bridge(), (0, 0, 0, 0, 0))
    assert part.source_side == frozenset({1})
    assert part.sink_side == frozenset({4})
    assert part.middle == (frozenset({2}), frozenset({3}))


def test_partition_joined_middle_component():
    part = partition_nodes(bridge(), (0, 0, 1, 0, 0))
    assert part.middle == (frozenset({2, 3}),)


def test_is_connected_on_feasible_partition():
    part = partition_nodes(bridge(), (1, 1, 0, 1, 0))
    assert part.source_side is part.sink_side
    assert part.source_side == frozenset({1, 2, 3, 4})
    assert is_connected(part)


def test_is_connected_on_split_partition():
    assert not is_connected(partition_nodes(bridge(), (0, 0, 0, 0, 0)))


def test_is_connected_direct_path_component():
    part = partition_nodes(bridge(), (1, 0, 0, 1, 0))
    assert part.source_side == frozenset({1, 2, 4})
    assert is_connected(part)


def grow1(p=0.9):
    return Expansion.for_network(bridge(p), ((2, 5, p), (4, 5, p)))


def test_extend_zero_vector_adds_singleton_new_nodes():
    part = partition_nodes(bridge(), (0, 0, 0, 0, 0))
    updated = extend_partition(part, (0, 0), grow1())
    assert updated is not None
    assert updated.source_side == part.source_side
    assert updated.sink_side == part.sink_side
    assert updated.middle == (frozenset({2}), frozenset({3}), frozenset({5}))


def test_extend_absorbs_new_node_into_sink_side():
    part = partition_nodes(bridge(), (0, 0, 0, 0, 0))
    updated = extend_partition(part, (1, 1), grow1())
    assert updated is not None
    assert updated.source_side == frozenset({1})
    assert updated.sink_side == frozenset({2, 4, 5})
    assert updated.middle == (frozenset({3}),)


def test_extend_detects_merge():
    part = partition_nodes(bridge(), (1, 0, 0, 0, 0))
    assert extend_partition(part, (1, 1), grow1()) is None


def test_extend_single_arc_merge_across_sides():
    # Source side {1,3}, sink side {4,5}: one arc (3,5) joins them.
    net = extend_network(bridge(), grow1())
    part = partition_nodes(net, (0, 1, 0, 0, 0, 0, 1))
    assert part.source_side == frozenset({1, 3})
    assert part.sink_side == frozenset({4, 5})
    grow2 = Expansion.for_network(net, ((3, 5, 0.9),))
    assert extend_partition(part, (1,), grow2) is None


def test_extend_moves_whole_middle_component():
    # The middle component {2,3} must ride into the sink side together
    # when only node 2 is touched by the new arcs.
    part = partition_nodes(bridge(), (0, 0, 1, 0, 0))
    updated = extend_partition(part, (1, 1), grow1())
    assert updated is not None
    assert updated.source_side == frozenset({1})
    assert updated.sink_side == frozenset({2, 3, 4, 5})
    assert updated.middle == ()


def test_extend_detail_reports_merged_sets():
    part = partition_nodes(bridge(), (1, 0, 0, 0, 0))
    connected, merged = extend_partition_detail(part, (1, 1), grow1())
    assert connected
    assert merged.source_side is merged.sink_side
    assert merged.source_side == frozenset({1, 2, 4, 5})
    assert merged.middle == (frozenset({3}),)


def test_partition_and_layers_reject_a_vector_of_the_wrong_length():
    for search in (partition_nodes, layered_search):
        with pytest.raises(ValueError, match="vector covers 2 arcs but the network has 5"):
            search(bridge(), (1, 1))


def test_extend_rejects_wrong_selection_length():
    part = partition_nodes(bridge(), (0, 0, 0, 0, 0))
    with pytest.raises(ExpansionError, match="selection"):
        extend_partition(part, (1,), grow1())


def test_extend_rejects_an_arc_to_an_unknown_node():
    # Node 9 is neither in the partition nor among the batch's new nodes.
    part = partition_nodes(bridge(), (0, 0, 0, 0, 0))
    stray = Expansion(((2, 9),), (0.9,), frozenset())
    assert extend_partition(part, (0,), stray) is not None
    with pytest.raises(ExpansionError, match="arc endpoint 9 is not a known node"):
        extend_partition(part, (1,), stray)


def test_connectivity_oracle_equivalence():
    rng = random.Random(101)
    for _ in range(40):
        net, _ = random_scenario(rng)
        for _ in range(30):
            bits = tuple(rng.randint(0, 1) for _ in range(net.arc_count))
            expected = bfs_connected(net, bits)
            assert layered_search(net, bits).connected == expected
            assert is_connected(partition_nodes(net, bits)) == expected


def test_layer_invariants_hold():
    rng = random.Random(111)
    for _ in range(30):
        net, _ = random_scenario(rng)
        bits = tuple(rng.randint(0, 1) for _ in range(net.arc_count))
        trace = layered_search(net, bits)
        assert trace.layers[0] == frozenset({net.source})
        flattened = [v for layer in trace.layers for v in layer]
        assert len(flattened) == len(set(flattened))  # pairwise disjoint
        assert trace.connected == (net.sink in trace.layers[-1])


def test_partition_exactness_against_reference_labeling():
    rng = random.Random(202)
    for _ in range(40):
        net, _ = random_scenario(rng)
        for _ in range(20):
            bits = tuple(rng.randint(0, 1) for _ in range(net.arc_count))
            part = partition_nodes(net, bits)
            assert as_component_set(part) == reference_components(net, bits)
            assert net.source in part.source_side
            assert net.sink in part.sink_side


def test_extension_commutes_with_from_scratch_partition():
    rng = random.Random(303)
    for _ in range(300):
        net, stages = random_scenario(rng)
        expansion = Expansion.for_network(net, stages[0])
        grown = extend_network(net, expansion)
        bits = tuple(rng.randint(0, 1) for _ in range(net.arc_count))
        combo = tuple(rng.randint(0, 1) for _ in range(expansion.arc_count))
        part = partition_nodes(net, bits)
        updated = extend_partition(part, combo, expansion)
        scratch = partition_nodes(grown, concat_bits(bits, combo))
        if updated is None:
            assert is_connected(scratch)
        else:
            assert not is_connected(scratch)
            assert updated == scratch


def test_monotonicity_connected_stays_connected():
    rng = random.Random(404)
    for _ in range(200):
        net, stages = random_scenario(rng)
        expansion = Expansion.for_network(net, stages[0])
        bits = tuple(rng.randint(0, 1) for _ in range(net.arc_count))
        part = partition_nodes(net, bits)
        if not is_connected(part):
            continue
        for combo in counting_vectors(expansion.arc_count):
            assert extend_partition(part, combo, expansion) is None


def test_zero_vector_law():
    rng = random.Random(505)
    checked = 0
    for _ in range(200):
        net, stages = random_scenario(rng)
        expansion = Expansion.for_network(net, stages[0])
        bits = tuple(rng.randint(0, 1) for _ in range(net.arc_count))
        part = partition_nodes(net, bits)
        if is_connected(part):
            continue
        updated = extend_partition(part, (0,) * expansion.arc_count, expansion)
        assert updated.source_side == part.source_side
        assert updated.sink_side == part.sink_side
        singletons = set(updated.middle) - set(part.middle)
        assert singletons == {frozenset({v}) for v in expansion.new_nodes}
        checked += 1
    assert checked > 50


def test_project_partition_drops_empty_middle_components():
    part = NodePartition(
        frozenset({1, 2}), frozenset({4, 8}), (frozenset({3, 9}), frozenset({5}), frozenset({6, 7}))
    )
    projected = project_partition(part, frozenset({1, 4, 7, 9}))
    assert projected.middle == (frozenset({7}), frozenset({9}))


def test_project_partition_keeps_the_terminals():
    part = NodePartition(frozenset({1, 2, 3}), frozenset({4, 5}), (frozenset({6}),))
    projected = project_partition(part, frozenset({1, 4}))
    assert projected == NodePartition(frozenset({1}), frozenset({4}), ())
    assert not is_connected(projected)


def test_project_partition_keeps_a_connected_partition_one_object():
    part = partition_nodes(bridge(), (1, 1, 0, 1, 0))
    projected = project_partition(part, frozenset({1, 2, 4}))
    assert projected.source_side is projected.sink_side
    assert projected.source_side == frozenset({1, 2, 4})
    assert is_connected(projected)


@settings(derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_projection_onto_batch_endpoints_decides_connectivity(seed):
    net, stages = random_scenario(random.Random(seed))
    state = initial_stage(net)
    for specs in stages[:-1]:
        state, _ = run_expansion(state, Expansion.for_network(state.network, specs), final=False)
    expansion = Expansion.for_network(state.network, stages[-1])
    keep = frozenset({net.source, net.sink}).union(*expansion.arcs)
    for part in set(state.infeasible.partitions):
        projected = project_partition(part, keep)
        for combo in counting_vectors(expansion.arc_count):
            assert (extend_partition(projected, combo, expansion) is None) == (
                extend_partition(part, combo, expansion) is None
            )


@settings(derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_extend_detail_connects_exactly_when_its_sides_are_one_object(seed):
    net, stages = random_scenario(random.Random(seed))
    state = initial_stage(net)
    for k, specs in enumerate(stages):
        expansion = Expansion.for_network(state.network, specs)
        for part in set(state.infeasible.partitions):
            for combo in counting_vectors(expansion.arc_count):
                connected, child = extend_partition_detail(part, combo, expansion)
                assert connected == (child.source_side is child.sink_side)
        state, _ = run_expansion(state, expansion, final=k == len(stages) - 1)


@settings(derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_extend_detail_shows_the_partition_at_the_arc_that_joins_the_sides(seed):
    net, stages = random_scenario(random.Random(seed))
    state = initial_stage(net)
    for specs in stages:
        expansion = Expansion.for_network(state.network, specs)
        grown = extend_network(state.network, expansion)
        # One vector per distinct partition: the outcome depends on nothing else.
        retained = state.infeasible
        for part, mask in dict(zip(retained.partitions, retained.masks)).items():
            bits = mask_bits(mask, state.network.arc_count)
            for combo in counting_vectors(expansion.arc_count):
                connected, merged = extend_partition_detail(part, combo, expansion)
                if not connected:
                    continue
                # Zero every arc after the first one whose addition connects.
                cuts = (combo[: k + 1] + (0,) * (len(combo) - k - 1) for k in range(len(combo)))
                cut = next(
                    c for c in cuts if is_connected(partition_nodes(grown, concat_bits(bits, c)))
                )
                assert merged == partition_nodes(grown, concat_bits(bits, cut))
        state, _ = run_expansion(state, expansion, final=False)


@settings(derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_a_child_shares_every_component_no_selected_arc_touches(seed):
    net, stages = random_scenario(random.Random(seed))
    state = initial_stage(net)
    for specs in stages:
        expansion = Expansion.for_network(state.network, specs)
        for part in set(state.infeasible.partitions):
            for combo in counting_vectors(expansion.arc_count):
                _, child = extend_partition_detail(part, combo, expansion)
                touched = {v for bit, arc in zip(combo, expansion.arcs) if bit for v in arc}
                kept = [c for c in as_component_set(part) if c.isdisjoint(touched)]
                child_ids = {id(c) for c in (child.source_side, child.sink_side, *child.middle)}
                assert all(id(c) in child_ids for c in kept)
                if part.source_side.isdisjoint(touched):
                    assert child.source_side is part.source_side
                if part.sink_side.isdisjoint(touched):
                    assert child.sink_side is part.sink_side
        state, _ = run_expansion(state, expansion, final=False)
