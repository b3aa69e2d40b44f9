"""Connectivity: layered search, node partitions, and in-place extension."""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from increl import (
    CapExceededError,
    Expansion,
    ExpansionError,
    Network,
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
from increl.connectivity import LabelOrder, label_add_arc, label_add_nodes, project_label
from helpers import bridge, cumulative_networks, random_scenario


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


def test_label_add_arc_gives_the_joined_component_its_smallest_position():
    # Positions 1 and 2 share a component; 0, 3 and 4 are each alone.
    label = "\x00\x01\x01\x03\x04"
    assert label_add_arc(label, (2, 1)) is label
    assert label_add_arc(label, (4, 2)) == "\x00\x01\x01\x03\x01"
    assert label_add_arc(label, (1, 0)) == "\x00\x00\x00\x03\x04"


def test_label_add_nodes_appends_each_new_node_alone():
    assert label_add_nodes("", 3) == "\x00\x01\x02"
    assert label_add_nodes("\x00\x00", 2) == "\x00\x00\x02\x03"
    assert label_add_nodes("\x00", 0) == "\x00"


def test_labels_and_partitions_convert_both_ways():
    # Arrival order: the network's nodes sorted, then a batch's new nodes sorted.
    nodes = (1, 2, 3, 4, 50, 100)
    order = LabelOrder(nodes, 1, 4)
    assert order.position == {v: i for i, v in enumerate(nodes)}
    assert (order.s, order.t) == (0, 3)
    part = NodePartition(
        frozenset({1, 100}), frozenset({4}), (frozenset({2, 3}), frozenset({50}))
    )
    label = order.label(part)
    assert label == "\x00\x01\x01\x03\x04\x00"
    assert order.partition(label, {}) == part
    merged = order.partition(label_add_arc(label, (3, 5)), {})
    assert merged.source_side is merged.sink_side == frozenset({1, 4, 100})
    assert merged.middle == part.middle
    # One table interns the components of every partition built with it.
    table = {}
    first = order.partition(label, table)
    second = order.partition(label_add_arc(label, (2, 3)), table)
    assert second.source_side is first.source_side
    assert second.middle[0] is first.middle[1]
    with pytest.raises(ValueError, match="cover"):
        LabelOrder((*nodes, 7), 1, 4).label(part)


def test_partition_label_names_a_node_outside_the_order():
    order = LabelOrder((1, 2, 3), 1, 3)
    stray = NodePartition(frozenset({1}), frozenset({3}), (frozenset({7}),))
    with pytest.raises(ValueError, match="node 7 is not in the node order"):
        order.label(stray)
    # Its label over this order would read {1} as the source side.
    swapped = NodePartition(frozenset({2}), frozenset({3}), (frozenset({1}),))
    with pytest.raises(ValueError, match="terminals 1 and 3"):
        order.label(swapped)
    # Node 2 sits in two components; the label once named another partition.
    overlapping = NodePartition(frozenset({1, 2}), frozenset({3}), (frozenset({2}),))
    with pytest.raises(ValueError, match="cover"):
        order.label(overlapping)
    with pytest.raises(ValueError, match="cover"):
        extend_partition(overlapping, (1,), Expansion(((2, 4),), (0.5,), frozenset({4})))
    # Terminals that share a component are one side, counted once.
    joined = NodePartition(frozenset({1, 2, 3}), frozenset({3, 2, 1}), ())
    assert order.label(joined) == "\x00\x00\x00"


def test_an_order_holds_at_most_one_node_per_code_point():
    with pytest.raises(CapExceededError, match=f"{0x110001} nodes, labels hold at most {0x110000}"):
        LabelOrder(range(0x110001), 1, 2)


# A network drawn with every batch's arcs, and a node order drawn with it.
@settings(derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.data())
def test_a_label_folded_from_a_vectors_arcs_is_its_partition(seed, data):
    net, stages = random_scenario(random.Random(seed))
    net = cumulative_networks(net, stages)[-1]
    nodes = tuple(data.draw(st.permutations(sorted(net.nodes))))
    m = net.arc_count
    bits = tuple(data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))
    order = LabelOrder(nodes, net.source, net.sink)
    label = label_add_nodes("", len(nodes))
    for bit, ends in zip(bits, order.ends(net.arcs)):
        if bit:
            label = label_add_arc(label, ends)
    part = partition_nodes(net, bits)
    assert len(label) == len(net.nodes)
    assert order.partition(label, {}) == part
    assert order.label(part) == label
    back = order.partition(order.label(part), {})
    assert back == part
    connected = label[order.s] == label[order.t]
    assert connected == is_connected(part) == (back.source_side is back.sink_side)


# Node ids up to 10**12 arriving in batches, each sorted, so a batch's
# new nodes may sort below the ones before it, and random arcs over them.
@settings(derandomize=True, deadline=None)
@given(st.lists(st.integers(1, 10**12), min_size=2, max_size=14, unique=True), st.data())
def test_split_places_the_sorted_sides_of_the_labels_partition(ids, data):
    first = data.draw(st.integers(2, len(ids)))
    order, rest = LabelOrder(sorted(ids[:first]), ids[0], ids[1]), ids[first:]
    while rest:
        k = data.draw(st.integers(1, len(rest)))
        order, rest = order.grown(rest[:k]), rest[k:]
    n = len(order.nodes)
    position = st.integers(0, n - 1)
    label = label_add_nodes("", n)
    for ends in data.draw(st.lists(st.tuples(position, position), max_size=2 * n)):
        label = label_add_arc(label, ends)
    part = order.partition(label, {})
    source, middle, sink = order.split(label, sorted(order.nodes))
    assert source == sorted(part.source_side)
    assert middle == sorted(part.middle_union())
    assert sink == sorted(part.sink_side)
    # When the terminals connect, the sink side is the source side itself.
    assert (sink is source) == (part.source_side is part.sink_side)
    # The caller's items are placed as they are, here names.
    names = order.split(label, [f"n{v}" for v in sorted(order.nodes)])
    assert names == tuple([f"n{v}" for v in side] for side in (source, middle, sink))


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


def test_new_nodes_that_sort_below_the_old_ones_extend_like_a_fresh_search():
    # The fold orders the partition's nodes first, then the batch's new
    # node 5, which sorts below all of them.
    net = Network(
        frozenset({10, 20, 30, 40}),
        ((10, 20), (20, 30), (30, 40), (10, 30)),
        (0.9,) * 4,
        10,
        40,
    )
    expansion = Expansion.for_network(net, ((20, 5, 0.9), (5, 40, 0.9), (10, 5, 0.9)))
    grown = extend_network(net, expansion)
    for bits in counting_vectors(net.arc_count):
        part = partition_nodes(net, bits)
        for combo in counting_vectors(expansion.arc_count):
            scratch = partition_nodes(grown, concat_bits(bits, combo))
            connected, child = extend_partition_detail(part, combo, expansion)
            assert connected == is_connected(scratch)
            if connected:
                assert extend_partition(part, combo, expansion) is None
            else:
                assert child == scratch
                assert extend_partition(part, combo, expansion) == scratch


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
    for part in {part for _, part, _, _ in state.infeasible.rows()}:
        projected = project_partition(part, keep)
        for combo in counting_vectors(expansion.arc_count):
            assert (extend_partition(projected, combo, expansion) is None) == (
                extend_partition(part, combo, expansion) is None
            )


def test_project_label_renumbers_by_first_occurrence():
    # Positions 0 and 3 share a component, and so do 2 and 4.
    label = "\x00\x01\x02\x00\x02"
    assert project_label(label, (2, 4, 0, 3)) == "\x00\x00\x01\x01"
    assert project_label(label, (1, 2)) == project_label("\x00\x00\x02", (0, 2))


@settings(derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_label_projection_onto_batch_endpoints_decides_connectivity(seed):
    net, stages = random_scenario(random.Random(seed))
    state = initial_stage(net)
    for specs in stages[:-1]:
        state, _ = run_expansion(state, Expansion.for_network(state.network, specs), final=False)
    expansion = Expansion.for_network(state.network, stages[-1])
    keep = frozenset({net.source, net.sink}).union(*expansion.arcs)
    order = state.infeasible.order
    positions = sorted(order.position[v] for v in keep if v in order.position)
    by_key = {}
    for part in {part for _, part, _, _ in state.infeasible.rows()}:
        key = project_label(order.label(part), positions)
        by_key.setdefault(key, set()).add(part)
    # Two labels share a key exactly when their partitions share a projection.
    projections = [{project_partition(p, keep) for p in parts} for parts in by_key.values()]
    assert all(len(projection) == 1 for projection in projections)
    assert len(set().union(*projections)) == len(by_key)
    for parts in by_key.values():
        for combo in counting_vectors(expansion.arc_count):
            assert len({extend_partition(p, combo, expansion) is None for p in parts}) == 1


@settings(derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_extend_detail_connects_exactly_when_its_sides_are_one_object(seed):
    net, stages = random_scenario(random.Random(seed))
    state = initial_stage(net)
    for k, specs in enumerate(stages):
        expansion = Expansion.for_network(state.network, specs)
        for part in {part for _, part, _, _ in state.infeasible.rows()}:
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
        retained = {part: mask for mask, part, _, _ in state.infeasible.rows()}
        for part, mask in retained.items():
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
        for part in {part for _, part, _, _ in state.infeasible.rows()}:
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
