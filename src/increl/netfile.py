"""Parsing of the NET and INC text formats.

NET (a whole network)::

    # comments run to end of line
    nodes 4
    arc 1 2 0.9
    arc 1 3 0.9

The header declares node ids 1..n; node 1 is the source and node n the
sink. Arc ids are assigned in file order starting at 1. INC files (one
growth batch per file) contain only arc lines and may introduce new
node ids.
"""

from __future__ import annotations

import io

from increl.connectivity import MAX_NODES
from increl.model import ArcSpec, CapExceededError, Network, ParseError
from increl.model import _check_arc, _check_probability


def _significant_lines(text: str):
    """Yield the number and fields of each line that holds more than a comment.

    The one line rule of both formats, for every caller: a leading
    byte-order mark is dropped, and a line ends only at ``\\n``, ``\\r\\n``
    or ``\\r``, as `open()` reads text. The other breaks `str.splitlines`
    knows (form feed, ``\\x85``, ``\\u2028`` and the rest) end no line, so
    one inside a comment stays in the comment, and line numbers count
    only the three.
    """
    for lineno, raw in enumerate(io.StringIO(text.removeprefix("\ufeff"), newline=None), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _parse_int(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", lineno) from None


def _parse_arc_line(fields: list[str], lineno: int, pairs: set[frozenset[int]]) -> ArcSpec:
    """Parse one arc line, checking it against the `pairs` seen so far in the file."""
    if fields[0] != "arc":
        raise ParseError(f"expected an 'arc' line, got {fields[0]!r}", lineno)
    if len(fields) != 4:
        raise ParseError("arc lines take exactly 'arc <u> <v> <p>'", lineno)
    u = _parse_int(fields[1], "node id", lineno)
    v = _parse_int(fields[2], "node id", lineno)
    try:
        p = float(fields[3])
    except ValueError:
        raise ParseError(f"probability must be a number, got {fields[3]!r}", lineno) from None
    try:
        p = _check_probability(p)
        _check_arc(u, v, pairs)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None
    return u, v, p


def parse_network(text: str) -> Network:
    """Parse NET file contents into a validated network.

    Node ids must lie in 1..n so that the source (1) and sink (n)
    exist; files that would need renumbering are rejected. A count past
    `MAX_NODES` raises `CapExceededError` before any node is allocated.
    """
    lines = _significant_lines(text)
    lineno, fields = next(lines, (None, None))
    if fields is None:
        raise ParseError("missing 'nodes <n>' header")
    if fields[0] != "nodes" or len(fields) != 2:
        raise ParseError("file must start with 'nodes <n>'", lineno)
    count = _parse_int(fields[1], "node count", lineno)
    if count < 2:
        raise ParseError("a network needs at least 2 nodes", lineno)
    if count > MAX_NODES:
        raise CapExceededError(f"network has {count} nodes, capped at {MAX_NODES}")
    arcs: list[tuple[int, int]] = []
    probs: list[float] = []
    pairs: set[frozenset[int]] = set()
    for lineno, fields in lines:
        u, v, p = _parse_arc_line(fields, lineno, pairs)
        if u > count or v > count:
            raise ParseError(
                f"arc ({u}, {v}) references a node beyond the declared {count}", lineno
            )
        arcs.append((u, v))
        probs.append(p)
    return Network(
        nodes=frozenset(range(1, count + 1)),
        arcs=tuple(arcs),
        probabilities=tuple(probs),
        source=1,
        sink=count,
    )


def parse_expansion_specs(text: str) -> tuple[ArcSpec, ...]:
    """Parse INC file contents into raw arc specs.

    Simplicity against the network the batch will be appended to is
    checked later, at binding time; this only rejects per-file
    problems (self-loops, duplicate pairs, bad probabilities).
    """
    specs: list[ArcSpec] = []
    pairs: set[frozenset[int]] = set()
    for lineno, fields in _significant_lines(text):
        specs.append(_parse_arc_line(fields, lineno, pairs))
    if not specs:
        raise ParseError("expansion file contains no arcs")
    return tuple(specs)

