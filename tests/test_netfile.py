"""NET/INC parsing and validation errors."""

import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from increl import Expansion, ParseError, parse_expansion_specs, parse_network
from helpers import FIXTURE_DIR, VALIDATION_CASES

BRIDGE_TEXT = (FIXTURE_DIR / "bridge.net").read_text(encoding="utf-8")
BRIDGE_INC_TEXTS = [
    (FIXTURE_DIR / name).read_text(encoding="utf-8")
    for name in ("bridge_grow1.inc", "bridge_grow2.inc")
]

# The breaks `str.splitlines` knows beyond \n, \r\n and \r; none of them ends a line.
OTHER_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def test_parse_bridge_fixture():
    net = parse_network(BRIDGE_TEXT)
    assert net.nodes == frozenset({1, 2, 3, 4})
    assert net.arc_count == 5
    assert net.arcs == ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4))
    assert net.probabilities == (0.9,) * 5
    assert (net.source, net.sink) == (1, 4)
    # A leading byte-order mark is dropped for every caller, not only `increl run`.
    assert parse_network("\ufeff" + BRIDGE_TEXT) == net


@pytest.mark.parametrize("br", OTHER_BREAKS, ids=lambda br: f"U+{ord(br):04X}")
def test_parse_skips_comments_and_blank_lines(br):
    # What follows the break stays in the comment, an arc line or not.
    net = parse_network(f"# intro\n\nnodes 3\n  # standalone\narc 1 2 0.5  # x{br}arc 2 3 0.5\n")
    assert net.arcs == ((1, 2),)


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
    # A form feed on a line of its own is a blank line, not two.
    with pytest.raises(ParseError) as info:
        parse_network("nodes 3\n\f\narc 1 2 0.5\narc 2 3 bad\n")
    assert info.value.line == 4


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
    # Within ASCII and free of `_`, int() and float() decide: a sign, `.5`, `1.`, exponents.
    specs = parse_expansion_specs("arc 2 5 .5\narc 4 5 1.\narc 3 5 5e-1\narc +1 5 +0.5\n")
    assert specs == ((2, 5, 0.5), (4, 5, 1.0), (3, 5, 0.5), (1, 5, 0.5))
    with pytest.raises(ParseError, match="parallel"):
        parse_expansion_specs("arc 2 5 0.7\narc 5 2 0.6\n")
    with pytest.raises(ParseError, match="no arcs"):
        parse_expansion_specs("# empty\n")
    for text in BRIDGE_INC_TEXTS:
        assert parse_expansion_specs("\ufeff" + text) == parse_expansion_specs(text)
    assert parse_expansion_specs("arc 3 4 0.5 # x\x85arc 1 4 0.9\n") == ((3, 4, 0.5),)


@settings(derandomize=True, deadline=None)
@given(
    st.integers(0, len(BRIDGE_INC_TEXTS)),
    st.integers(0, 10),
    st.text(st.sampled_from(OTHER_BREAKS) | st.characters(exclude_characters="\n\r")),
)
def test_a_comment_appended_to_any_line_changes_nothing(which, at, comment):
    text = ([BRIDGE_TEXT] + BRIDGE_INC_TEXTS)[which]
    parse = parse_expansion_specs if which else parse_network
    lines = text.split("\n")
    lines[at % len(lines)] += "#" + comment
    assert parse("\n".join(lines)) == parse(text)



@settings(derandomize=True, deadline=None)
@given(
    st.integers(0, len(BRIDGE_INC_TEXTS)),
    st.integers(0, 30),
    st.integers(0, 2),
    st.none() | st.characters(categories=["Nd"], min_codepoint=0x80),
)
def test_a_numeral_outside_ascii_or_with_an_underscore_is_refused_at_its_line(
    which, at, place, script
):
    # One numeral of the bridge's files edited so that Python's float() reads
    # the same value: `0_` put before it (`_` between two digits), or one of
    # its digits written in the script of `script`.
    text = ([BRIDGE_TEXT] + BRIDGE_INC_TEXTS)[which]
    parse = parse_expansion_specs if which else parse_network
    lines = text.split("\n")
    numerals = [
        (i, k) for i, line in enumerate(lines) for k in range(1, len(line.split("#")[0].split()))
    ]
    i, k = numerals[at % len(numerals)]
    fields = lines[i].split()
    token = fields[k]
    if script is None:
        fields[k] = "0_" + token
    else:
        digits = [n for n, ch in enumerate(token) if ch.isdigit()]
        n = digits[place % len(digits)]
        digit = chr(ord(script) - unicodedata.decimal(script) + int(token[n]))
        assert unicodedata.decimal(digit) == int(token[n])
        fields[k] = token[:n] + digit + token[n + 1 :]
    assert float(fields[k]) == float(token)
    lines[i] = " ".join(fields)
    with pytest.raises(ParseError) as info:
        parse("\n".join(lines))
    assert info.value.line == i + 1
