"""NET/INC parsing, validation errors, and round-tripping."""

import random

import pytest

from increl import (
    Expansion,
    ParseError,
    parse_expansion_specs,
    parse_network,
    serialize_network,
)
from increl.model import Network
from helpers import FIXTURE_DIR, VALIDATION_CASES

BRIDGE_TEXT = (FIXTURE_DIR / "bridge.net").read_text()


def test_parse_bridge_fixture():
    net = parse_network(BRIDGE_TEXT)
    assert net.node_count == 4
    assert net.arc_count == 5
    assert net.arcs == ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4))
    assert net.probabilities == (0.9,) * 5
    assert (net.source, net.sink) == (1, 4)


def test_parse_skips_comments_and_blank_lines():
    net = parse_network("# intro\n\nnodes 2\n  # standalone\narc 1 2 0.5  # trailing\n")
    assert net.arc_count == 1


def test_parse_rejects_self_loop():
    with pytest.raises(ParseError, match="self-loop") as info:
        parse_network("nodes 4\narc 3 3 0.5\n")
    assert info.value.line == 2


def test_parse_rejects_parallel_arc():
    with pytest.raises(ParseError, match="parallel"):
        parse_network("nodes 4\narc 1 2 0.5\narc 2 1 0.5\n")


def test_parse_rejects_bad_probability():
    with pytest.raises(ParseError, match="outside"):
        parse_network("nodes 2\narc 1 2 1.5\n")
    with pytest.raises(ParseError, match="number"):
        parse_network("nodes 2\narc 1 2 high\n")


def test_parse_rejects_out_of_range_node():
    # The largest id must be the declared sink, never silently renumbered.
    with pytest.raises(ParseError, match="beyond"):
        parse_network("nodes 4\narc 1 5 0.5\n")


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError) as info:
        parse_network("nodes 4\narc 1 2 0.9\nedge 2 3 0.9\n")
    assert info.value.line == 3


def test_parse_requires_header():
    with pytest.raises(ParseError, match="nodes"):
        parse_network("arc 1 2 0.5\n")
    with pytest.raises(ParseError, match="header"):
        parse_network("# nothing\n")


def test_parse_requires_two_nodes():
    with pytest.raises(ParseError, match="at least 2"):
        parse_network("nodes 1\n")


def test_parse_allows_arcless_network():
    net = parse_network("nodes 3\n")
    assert net.arc_count == 0
    assert net.node_count == 3


@pytest.mark.parametrize("net_text, inc_text, error, fragment, line, exit_code", VALIDATION_CASES)
def test_malformed_input_is_rejected_where_pinned(
    net_text, inc_text, error, fragment, line, exit_code
):
    with pytest.raises(error) as info:
        net = parse_network(net_text)
        if inc_text is not None:
            Expansion.for_network(net, parse_expansion_specs(inc_text))
    assert type(info.value) is error
    assert fragment in str(info.value)
    assert getattr(info.value, "line", None) == line


def test_expansion_specs_parse_and_reject_duplicates():
    specs = parse_expansion_specs("arc 2 5 0.7\narc 4 5 0.6\n")
    assert specs == ((2, 5, 0.7), (4, 5, 0.6))
    with pytest.raises(ParseError, match="parallel"):
        parse_expansion_specs("arc 2 5 0.7\narc 5 2 0.6\n")
    with pytest.raises(ParseError, match="no arcs"):
        parse_expansion_specs("# empty\n")


def test_round_trip_identity():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 7)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        rng.shuffle(pairs)
        arcs = tuple(pairs[: rng.randint(0, len(pairs))])
        net = Network(
            nodes=frozenset(range(1, n + 1)),
            arcs=arcs,
            probabilities=tuple(rng.random() for _ in arcs),
            source=1,
            sink=n,
        )
        assert parse_network(serialize_network(net)) == net


def test_serialize_rejects_non_canonical_networks():
    grown = Network(frozenset({1, 2, 3}), ((1, 3),), (0.5,), 1, 2)
    with pytest.raises(ValueError, match="not representable"):
        serialize_network(grown)
