"""Counting-order enumeration: golden order, completeness, sub-sequences."""

import pytest

from increl import BitCursor, counting_vectors

# All 5-bit vectors in generation order, frozen; coordinate 1 is the
# leftmost entry and acts as the least significant bit.
ORDER_5 = [
    (0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (1, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (1, 0, 1, 0, 0),
    (0, 1, 1, 0, 0),
    (1, 1, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (1, 0, 0, 1, 0),
    (0, 1, 0, 1, 0),
    (1, 1, 0, 1, 0),
    (0, 0, 1, 1, 0),
    (1, 0, 1, 1, 0),
    (0, 1, 1, 1, 0),
    (1, 1, 1, 1, 0),
    (0, 0, 0, 0, 1),
    (1, 0, 0, 0, 1),
    (0, 1, 0, 0, 1),
    (1, 1, 0, 0, 1),
    (0, 0, 1, 0, 1),
    (1, 0, 1, 0, 1),
    (0, 1, 1, 0, 1),
    (1, 1, 1, 0, 1),
    (0, 0, 0, 1, 1),
    (1, 0, 0, 1, 1),
    (0, 1, 0, 1, 1),
    (1, 1, 0, 1, 1),
    (0, 0, 1, 1, 1),
    (1, 0, 1, 1, 1),
    (0, 1, 1, 1, 1),
    (1, 1, 1, 1, 1),
]


def test_five_bit_order_golden():
    assert list(counting_vectors(5)) == ORDER_5


def test_cursor_starts_at_zero():
    cursor = BitCursor(5)
    assert cursor.current == [0, 0, 0, 0, 0]
    assert not cursor.exhausted
    assert BitCursor(1).current == [0]
    assert BitCursor(2).current == [0, 0]


def test_cursor_rejects_zero_width():
    with pytest.raises(ValueError):
        BitCursor(0)
    with pytest.raises(ValueError):
        list(counting_vectors(0))


def test_successor_examples():
    cursor = BitCursor(5)
    cursor.current[:] = [1, 1, 0, 0, 0]
    assert cursor.advance() == [0, 0, 1, 0, 0]
    cursor.current[:] = [1, 1, 1, 1, 0]
    assert cursor.advance() == [0, 0, 0, 0, 1]
    cursor.current[:] = [1, 1, 1, 1, 1]
    assert cursor.advance() is None
    assert cursor.exhausted
    assert cursor.advance() is None  # stays exhausted


def test_buffer_is_reused_in_place():
    cursor = BitCursor(3)
    first = cursor.advance()
    assert first is cursor.current
    assert cursor.advance() is first


@pytest.mark.parametrize("width", [1, 2, 3, 8, 16])
def test_completeness(width):
    seen = set(counting_vectors(width))
    assert len(seen) == 1 << width


@pytest.mark.parametrize("width", [1, 2, 3, 7])
def test_order_is_integer_counting(width):
    # Reading coordinate 1 as the least significant bit, the sequence
    # is 0, 1, 2, ... 2**width - 1.
    values = [
        sum(bit << k for k, bit in enumerate(bits)) for bits in counting_vectors(width)
    ]
    assert values == list(range(1 << width))


def test_two_arc_subsequence():
    assert list(counting_vectors(2)) == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_width_one_and_the_leading_zero_vector():
    assert list(counting_vectors(1)) == [(0,), (1,)]
    # A final stage slices the zero combination off its rows: it comes
    # first, and every vector after it has a working arc.
    vectors = list(counting_vectors(4))
    assert vectors[0] == (0, 0, 0, 0)
    assert len(vectors[1:]) == 15 and all(map(any, vectors[1:]))
