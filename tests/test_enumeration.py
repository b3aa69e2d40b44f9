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


def test_skip_zero_variants():
    assert list(counting_vectors(1, skip_zero=True)) == [(1,)]
    assert list(counting_vectors(1)) == [(0,), (1,)]
    assert len(list(counting_vectors(4, skip_zero=True))) == 15
    assert list(counting_vectors(4, skip_zero=True)) == list(counting_vectors(4))[1:]
