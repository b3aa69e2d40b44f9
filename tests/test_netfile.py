"""NET/INC parsing and validation errors."""

import pytest

from increl import Expansion, ParseError, parse_expansion_specs, parse_network
from helpers import FIXTURE_DIR, VALIDATION_CASES

BRIDGE_TEXT = (FIXTURE_DIR / "bridge.net").read_text()


def test_parse_bridge_fixture():
    net = parse_network(BRIDGE_TEXT)
    assert net.nodes == frozenset({1, 2, 3, 4})
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
    assert net.nodes == frozenset({1, 2, 3})


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

