"""State-vector enumeration in binary counting order.

The successor rule flips the lowest zero coordinate to one and clears
every coordinate below it, which is plain binary increment with
coordinate 1 as the least significant bit. Starting from the all-zero
vector this visits all 2**width vectors exactly once and stops after
the all-ones vector. `BitCursor` steps that rule in place;
`counting_vectors` yields the same sequence from `itertools.product`,
whose last coordinate varies fastest, with each tuple reversed, so no
Python-level step runs per vector.
"""

from __future__ import annotations

from itertools import product
from operator import itemgetter
from typing import Iterator

from increl.model import Bits


class BitCursor:
    """In-place enumerator over all bit vectors of a fixed width.

    A single internal buffer is mutated by `advance`; callers that keep
    a vector must copy it (``tuple(cursor.current)``). Independent
    cursors may run concurrently, but one cursor has a single owner.
    """

    __slots__ = ("current", "exhausted")

    def __init__(self, width: int):
        if width < 1:
            raise ValueError("width must be at least 1")
        self.current: list[int] = [0] * width
        self.exhausted = False

    def advance(self) -> list[int] | None:
        """Step to the successor vector.

        Returns the live internal buffer, or None once the all-ones
        vector has been passed (the cursor then stays exhausted).
        """
        if self.exhausted:
            return None
        bits = self.current
        for k in range(len(bits)):
            if bits[k] == 0:
                bits[k] = 1
                for j in range(k):
                    bits[j] = 0
                return bits
        self.exhausted = True
        return None


# A tuple's items last to first, as a tuple.
_REVERSED = itemgetter(slice(None, None, -1))


def counting_vectors(width: int) -> Iterator[Bits]:
    """Every vector of `width` bits in counting order, as tuples.

    Enumerates a network's state vectors at stage 0 and the state
    combinations of an expansion's arcs; a final stage slices off the
    leading all-zero combination itself. A width below 1 raises
    `ValueError` at the call.
    """
    if width < 1:
        raise ValueError("width must be at least 1")
    return map(_REVERSED, product((0, 1), repeat=width))
