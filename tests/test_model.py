"""Domain types: validation, probabilities, vector concatenation."""

import copy
import itertools
import math
import pickle
import random

import pytest

from increl import (
    Expansion,
    ExpansionError,
    Network,
    concat_bits,
    counting_vectors,
    extend_network,
    initial_stage,
    mask_bits,
    run_expansion,
    vector_probability,
)
from helpers import bridge


def test_network_validates_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Network(frozenset({1, 2, 3}), ((1, 2), (3, 3)), (0.5, 0.5), 1, 3)


def test_network_validates_parallel_arc():
    with pytest.raises(ValueError, match="parallel"):
        Network(frozenset({1, 2}), ((1, 2), (2, 1)), (0.5, 0.5), 1, 2)


def test_network_validates_probability_range():
    with pytest.raises(ValueError, match="outside"):
        Network(frozenset({1, 2}), ((1, 2),), (1.5,), 1, 2)
    with pytest.raises(ValueError, match="outside"):
        Network(frozenset({1, 2}), ((1, 2),), (float("nan"),), 1, 2)


def test_network_requires_terminals_present():
    with pytest.raises(ValueError):
        Network(frozenset({1, 2}), ((1, 2),), (0.5,), 1, 9)


def test_network_requires_one_probability_per_arc():
    with pytest.raises(ValueError, match="2 probabilities for 1 arcs"):
        Network(frozenset({1, 2}), ((1, 2),), (0.5, 0.5), 1, 2)


def test_network_requires_distinct_terminals():
    with pytest.raises(ValueError, match="distinct"):
        Network(frozenset({1, 2}), ((1, 2),), (0.5,), 1, 1)


def test_network_rejects_an_arc_to_an_unknown_node():
    with pytest.raises(ValueError, match=r"arc \(1, 3\) references an unknown node"):
        Network(frozenset({1, 2}), ((1, 2), (1, 3)), (0.5, 0.5), 1, 2)


def test_vector_probability_all_working():
    assert vector_probability((1, 1, 1, 1, 1), bridge(0.9)) == pytest.approx(
        0.9**5, abs=1e-15
    )


def test_vector_probability_all_failed_is_complement_product():
    net = bridge(0.25)
    assert vector_probability((0,) * 5, net) == pytest.approx(0.75**5, abs=1e-15)


def test_vector_probability_mixed_eight_arc():
    # One failed/working pattern over the fully grown bridge.
    net = Network(
        nodes=frozenset(range(1, 6)),
        arcs=((1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (2, 5), (4, 5), (3, 5)),
        probabilities=(0.9,) * 8,
        source=1,
        sink=4,
    )
    q, p = 0.1, 0.9
    expected = q * p * q * q * q * q * p * p
    assert vector_probability((0, 1, 0, 0, 0, 0, 1, 1), net) == pytest.approx(
        expected, abs=1e-15
    )


def test_vector_probability_length_mismatch():
    with pytest.raises(ValueError, match="covers"):
        vector_probability((1, 0), bridge())


def test_probabilities_sum_to_one_over_all_vectors():
    rng = random.Random(7)
    net = Network(
        nodes=frozenset({1, 2, 3, 4}),
        arcs=((1, 2), (1, 3), (2, 4), (3, 4), (2, 3), (1, 4)),
        probabilities=tuple(rng.random() for _ in range(6)),
        source=1,
        sink=4,
    )
    total = math.fsum(
        vector_probability(bits, net) for bits in itertools.product((0, 1), repeat=6)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_concat_bits_examples():
    assert concat_bits((1, 0, 0, 0, 0), (1, 1)) == (1, 0, 0, 0, 0, 1, 1)
    assert concat_bits((0, 0, 0, 0, 0), (0, 0)) == (0, 0, 0, 0, 0, 0, 0)
    assert concat_bits((1, 0, 1), ()) == (1, 0, 1)


def test_concat_probability_is_product():
    net = bridge(0.8)
    expansion = Expansion.for_network(net, ((2, 5, 0.6), (4, 5, 0.7)))
    grown = extend_network(net, expansion)
    rng = random.Random(3)
    for _ in range(50):
        head = tuple(rng.randint(0, 1) for _ in range(5))
        tail = tuple(rng.randint(0, 1) for _ in range(2))
        tail_net = Network(frozenset({2, 4, 5}), expansion.arcs, expansion.probabilities, 2, 5)
        assert vector_probability(concat_bits(head, tail), grown) == pytest.approx(
            vector_probability(head, net) * vector_probability(tail, tail_net),
            abs=1e-15,
        )


def test_mask_bits_decodes_counting_order_with_arc_1_lowest():
    assert mask_bits(0b1011, 6) == (1, 1, 0, 1, 0, 0)
    assert mask_bits(0, 0) == ()
    for width in range(1, 9):
        assert [mask_bits(k, width) for k in range(1 << width)] == list(
            counting_vectors(width)
        )


def test_expansion_rejects_parallel_against_network():
    with pytest.raises(ExpansionError, match="parallel"):
        Expansion.for_network(bridge(), ((1, 2, 0.5),))


def test_expansion_rejects_duplicate_within_batch():
    with pytest.raises(ExpansionError, match="parallel"):
        Expansion.for_network(bridge(), ((2, 5, 0.5), (5, 2, 0.5)))


def test_expansion_rejects_self_loop_and_empty():
    with pytest.raises(ExpansionError, match="self-loop"):
        Expansion.for_network(bridge(), ((5, 5, 0.5),))
    with pytest.raises(ExpansionError, match="at least one"):
        Expansion.for_network(bridge(), ())


def test_expansion_rejects_node_id_zero():
    with pytest.raises(ExpansionError, match="node ids must be positive, got \\(0, 5\\)"):
        Expansion.for_network(bridge(), ((0, 5, 0.5),))
    # A network owns the same rule, so no network can hold an arc an
    # expansion would refuse.
    with pytest.raises(ValueError, match="node ids must be positive, got \\(0, 1\\)"):
        Network(frozenset({0, 1, 2}), ((0, 1), (1, 2)), (0.9, 0.9), 0, 2)
    # So do an isolated node and a terminal, and nodes are stored as ints.
    with pytest.raises(ValueError, match=r"node ids must be positive, got \(0, 2\)"):
        Network({0, 1, 2}, [(1, 2)], [0.5], 0, 2)
    with pytest.raises(ValueError, match=r"node ids must be positive, got \(0\)"):
        Network({0, 1, 2}, [(1, 2)], [0.5], 1, 2)
    net = Network({True, 2, 3}, [(1, 2)], [0.5], True, 2)
    assert [type(v) for v in (*net.nodes, net.source, net.sink)] == [int] * 5


def test_network_refuses_a_non_integer_node_id():
    # Truncated, (1.9, 2.2) would be the arc (1, 2).
    with pytest.raises(ValueError, match=r"node ids must be integers, got \(1\.9, 2\.2\)"):
        Network(frozenset({1, 2}), ((1.9, 2.2),), (0.5,), 1, 2)
    # So is one that no arc touches; an unordered id once escaped `run` as a TypeError.
    for stray, shown in ((2.5, r"2\.5"), ("x", "'x'")):
        with pytest.raises(ValueError, match=rf"node ids must be integers, got \({shown}\)"):
            Network({1, 2, stray}, [(1, 2)], [0.5], 1, 2)
    with pytest.raises(ValueError, match=r"node ids must be integers, got \(1\.0, 2\)"):
        Network({1, 2}, [(1, 2)], [0.5], 1.0, 2)


def test_expansion_refuses_a_non_integer_node_id():
    net = Network(frozenset({1, 2}), ((1, 2),), (0.5,), 1, 2)
    # Truncated, (1.7, 3) would be the arc (1, 3).
    with pytest.raises(ExpansionError, match=r"node ids must be integers, got \(1\.7, 3\)"):
        Expansion.for_network(net, [(1.7, 3, 0.5)])


def test_expansion_derives_new_nodes():
    expansion = Expansion.for_network(bridge(), ((2, 5, 0.5), (4, 5, 0.5)))
    assert expansion.new_nodes == frozenset({5})
    grown = extend_network(bridge(), expansion)
    assert grown.nodes == frozenset(range(1, 6))
    assert grown.arc_count == 7
    assert grown.sink == 4


def test_extend_network_keeps_terminals_and_order():
    net = bridge()
    exp1 = Expansion.for_network(net, ((2, 5, 0.5), (4, 5, 0.5)))
    grown = extend_network(net, exp1)
    exp2 = Expansion.for_network(grown, ((3, 5, 0.5),))
    full = extend_network(grown, exp2)
    assert full.arcs == ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (2, 5), (4, 5), (3, 5))
    assert (full.source, full.sink) == (1, 4)


def test_extend_network_rejects_new_nodes_already_in_the_network():
    # Bound to a network without nodes 1..4, the batch would add the
    # bridge's own nodes, terminals included, a second time.
    bound = Expansion.for_network(bridge(), ((2, 5, 0.9), (4, 5, 0.9)))
    foreign = Expansion(bound.arcs, bound.probabilities, frozenset({1, 2, 3, 4, 5}))
    with pytest.raises(ExpansionError, match="new nodes are already in the network"):
        extend_network(bridge(), foreign)
    state = initial_stage(bridge())
    with pytest.raises(ExpansionError, match="new nodes are already in the network"):
        run_expansion(state, foreign, final=False)


def test_extend_network_rejects_an_arc_to_an_unknown_node():
    # Node 6 is neither in the bridge nor among the batch's new nodes.
    foreign = Expansion(((2, 5), (5, 6)), (0.9, 0.9), frozenset({5}))
    with pytest.raises(ExpansionError, match=r"arc \(5, 6\) references an unknown node"):
        extend_network(bridge(), foreign)


def test_networks_and_expansions_are_frozen_values():
    net = bridge()
    twin = Network({4, 3, 2, 1}, list(net.arcs), list(net.probabilities), 1, 4)
    batch = Expansion.for_network(net, ((2, 5, 0.9), (4, 5, 0.9)))
    assert twin == net and hash(twin) == hash(net) and twin is not net
    assert net != bridge(0.8)
    assert batch == Expansion(((2, 5), (4, 5)), (0.9, 0.9), frozenset({5}))
    assert len({net, twin, batch}) == 2
    # Equal only to their own class: not to a tuple of the same fields.
    assert net != (net.nodes, net.arcs, net.probabilities, net.source, net.sink)
    assert repr(batch) == (
        "Expansion(arcs=((2, 5), (4, 5)), probabilities=(0.9, 0.9), new_nodes=frozenset({5}))"
    )
    assert repr(Network({1, 2}, [(1, 2)], [0.5], 1, 2)) == (
        "Network(nodes=frozenset({1, 2}), arcs=((1, 2),), probabilities=(0.5,), source=1, sink=2)"
    )
    for value, field in ((net, "source"), (batch, "arcs")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.copy(value) == value == copy.deepcopy(value)
