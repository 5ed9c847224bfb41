"""Timestamp arithmetic, entity identity, and window basics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schedtrace import (
    MAX_TIMESTAMP_US,
    Entity,
    EntityKind,
    TimestampRangeError,
    Window,
    format_timestamp,
    timestamp_from_fields,
)


def test_timestamp_from_fields():
    assert timestamp_from_fields(0, 0, 0, 0, 0) == 0
    assert timestamp_from_fields(0, 0, 1, 290, 602) == 1_290_602
    assert timestamp_from_fields(1, 0, 0, 0, 0) == 3_600_000_000
    assert timestamp_from_fields(0, 59, 59, 999, 999) == 3_599_999_999
    assert timestamp_from_fields(9999, 59, 59, 999, 999) == MAX_TIMESTAMP_US


@pytest.mark.parametrize(
    "fields",
    [
        (0, 60, 0, 0, 0),
        (0, 0, 60, 0, 0),
        (0, 0, 0, 1000, 0),
        (0, 0, 0, 0, 1000),
        (-1, 0, 0, 0, 0),
        (0, -1, 0, 0, 0),
        (10_000, 0, 0, 0, 0),  # the format writes 4 hour digits, so it reads no more
    ],
)
def test_timestamp_field_ranges(fields):
    with pytest.raises(TimestampRangeError):
        timestamp_from_fields(*fields)


def test_format_timestamp_canonical():
    assert format_timestamp(0) == "0000h 00m 00s 000 000"
    assert format_timestamp(1_290_602) == "0000h 00m 01s 290 602"
    assert format_timestamp(MAX_TIMESTAMP_US) == "9999h 59m 59s 999 999"


def test_format_timestamp_rejects_out_of_range():
    with pytest.raises(TimestampRangeError):
        format_timestamp(-1)
    with pytest.raises(TimestampRangeError):
        format_timestamp(MAX_TIMESTAMP_US + 1)


@given(
    h=st.integers(0, 9999),
    m=st.integers(0, 59),
    s=st.integers(0, 59),
    ms=st.integers(0, 999),
    us=st.integers(0, 999),
)
def test_timestamp_round_trip(h, m, s, ms, us):
    t = timestamp_from_fields(h, m, s, ms, us)
    assert format_timestamp(t) == f"{h:04d}h {m:02d}m {s:02d}s {ms:03d} {us:03d}"


def test_entity_identity():
    assert Entity.task(4) == Entity(EntityKind.TASK, 4)
    assert Entity.irq(16) == Entity(EntityKind.IRQ, 16)
    assert Entity.task(4) != Entity.irq(4)
    assert Entity.task(0).label == "task 0 (idle)"
    assert Entity.task(7).label == "task 7"
    assert Entity.irq(16).label == "irq 16"
    assert Entity.task(4).kind_name == "task"
    assert Entity.irq(16).kind_name == "irq"


def test_entity_sort_order_tasks_first():
    mixed = [Entity.irq(1), Entity.task(9), Entity.irq(0), Entity.task(2)]
    assert sorted(mixed) == [
        Entity.task(2),
        Entity.task(9),
        Entity.irq(0),
        Entity.irq(1),
    ]


def test_window_duration():
    assert Window(1_290_602, 1_291_230).duration_us == 628
    assert Window(5, 5).duration_us == 0
