"""Trace text parsing: tolerant input, canonical output, diagnostics."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schedtrace import (
    DiagnosticKind,
    EmptyTraceError,
    IrqBegin,
    IrqEnd,
    ParseError,
    TaskSchedule,
    parse_line,
    parse_trace,
    parse_trace_file,
    render_event,
    render_trace,
)
from tests.conftest import SHORT_TRACE


def test_parse_line_each_event_kind():
    ev = parse_line("<0000h 00m 01s 290 602> Task schedule: old 5 new 3")
    assert ev == TaskSchedule(1_290_602, 5, 3)
    ev = parse_line("<0000h 00m 01s 290 838> IRQ begin: 16")
    assert ev == IrqBegin(1_290_838, 16)
    ev = parse_line("<0000h 00m 01s 290 861> IRQ end: 16")
    assert ev == IrqEnd(1_290_861, 16)


def test_parse_line_tolerates_loose_spacing_and_digit_width():
    # readers must accept any digit count and runs of spaces/tabs
    ev = parse_line("<0h  0m\t1s  290   602>\tTask  schedule:  old  5  new  3")
    assert ev == TaskSchedule(1_290_602, 5, 3)
    ev = parse_line("<00000h 00m 01s 290 602> IRQ begin: 007")
    assert ev == IrqBegin(1_290_602, 7)


def test_parse_line_strips_trailing_whitespace():
    assert parse_line("<0000h 00m 00s 000 005> IRQ end: 2 \t\r\n") == IrqEnd(5, 2)


@pytest.mark.parametrize(
    "text, kind",
    [
        ("<0000h 00m 61s 000 000> IRQ begin: 1", DiagnosticKind.MALFORMED_TIMESTAMP),
        ("<0000h 00m 00s 000 1000> IRQ begin: 1", DiagnosticKind.MALFORMED_TIMESTAMP),
        ("<0000h 00m 00s 000> IRQ begin: 1", DiagnosticKind.MALFORMED_TIMESTAMP),
        ("<10000h 00m 00s 000 000> IRQ begin: 1", DiagnosticKind.MALFORMED_TIMESTAMP),
        # digits are ASCII: Arabic-Indic digits are no number
        ("<٠٠٠٠h 00m 00s 000 000> IRQ begin: 1", DiagnosticKind.MALFORMED_TIMESTAMP),
        ("hello world", DiagnosticKind.UNKNOWN_EVENT),
        ("<0000h 00m 00s 000 000> Task yield: 3", DiagnosticKind.UNKNOWN_EVENT),
        ("<0000h 00m 00s 000 000> Task schedule: old x new 2", DiagnosticKind.MALFORMED_PAYLOAD),
        ("<0000h 00m 00s 000 000> IRQ begin: ", DiagnosticKind.MALFORMED_PAYLOAD),
        ("<0000h 00m 00s 000 000> IRQ end: 1 2", DiagnosticKind.MALFORMED_PAYLOAD),
        ("<0000h 00m 00s 000 000> Task schedule: old 0 new ٣", DiagnosticKind.MALFORMED_PAYLOAD),
    ],
)
def test_parse_line_diagnoses_bad_lines(text, kind):
    with pytest.raises(ParseError) as exc:
        parse_line(text)
    assert exc.value.kind == kind


def test_numbers_have_at_most_18_digits():
    # 18 digits is the documented bound, leading zeros included
    assert parse_line("<0000h 00m 00s 000 005> IRQ begin: " + "7".zfill(18)) == IrqBegin(5, 7)
    with pytest.raises(ParseError) as exc:
        parse_line("<0000h 00m 00s 000 005> IRQ begin: " + "7".zfill(19))
    assert exc.value.kind == DiagnosticKind.MALFORMED_PAYLOAD
    with pytest.raises(ParseError) as exc:
        parse_line("<" + "0" * 19 + "h 00m 00s 000 005> IRQ begin: 7")
    assert exc.value.kind == DiagnosticKind.MALFORMED_TIMESTAMP


def test_out_of_range_field_gets_the_same_message_from_both_readers():
    line = "<0000h 00m 00s 000 1000> IRQ begin: 1"
    message = "timestamp field out of range: '0000h 00m 00s 000 1000'"
    with pytest.raises(ParseError) as exc:
        parse_line(line)
    assert exc.value.message == message
    assert parse_trace(line + "\n" + SHORT_TRACE, strict=False).diagnostics[0] == (
        1, DiagnosticKind.MALFORMED_TIMESTAMP, message
    )


def test_parse_trace_strict_reports_line_number():
    text = SHORT_TRACE + "garbage\n"
    with pytest.raises(ParseError) as exc:
        parse_trace(text)
    assert exc.value.line == 11
    assert "line 11" in str(exc.value)


def test_parse_trace_lenient_collects_diagnostics():
    text = (
        "<0000h 00m 00s 000 010> IRQ begin: 1\n"
        "not a trace line\n"
        "<0000h 00m 00s 000 020> IRQ end: 1\n"
        "<0000h 00m 00s 000 005> IRQ begin: 2\n"  # goes backwards: dropped
        "<0000h 00m 00s 000 030> Task schedule: old 0 new 0\n"
    )
    log = parse_trace(text, strict=False)
    assert [type(ev) for ev in log.events] == [IrqBegin, IrqEnd, TaskSchedule]
    kinds = [d.kind for d in log.diagnostics]
    assert kinds == [
        DiagnosticKind.UNKNOWN_EVENT,
        DiagnosticKind.NON_MONOTONIC_TIMESTAMP,
    ]
    assert log.diagnostics[1].line == 4


def test_parse_trace_strict_rejects_backwards_time():
    text = (
        "<0000h 00m 00s 000 010> IRQ begin: 1\n"
        "<0000h 00m 00s 000 005> IRQ end: 1\n"
    )
    with pytest.raises(ParseError) as exc:
        parse_trace(text)
    assert exc.value.kind == DiagnosticKind.NON_MONOTONIC_TIMESTAMP


def test_parse_trace_accepts_equal_timestamps():
    text = (
        "<0000h 00m 00s 000 010> IRQ begin: 1\n"
        "<0000h 00m 00s 000 010> IRQ end: 1\n"
    )
    log = parse_trace(text)
    assert len(log.events) == 2


def test_parse_trace_skips_blank_lines():
    text = "\n\n" + SHORT_TRACE.replace("\n<0000h 00m 01s 290 838>", "\n\n<0000h 00m 01s 290 838>")
    assert len(parse_trace(text).events) == 10


def test_parse_trace_empty_input_raises():
    with pytest.raises(EmptyTraceError):
        parse_trace("")
    with pytest.raises(EmptyTraceError):
        parse_trace("\n   \n")
    # lenient mode still needs at least one event
    with pytest.raises(EmptyTraceError):
        parse_trace("junk\n", strict=False)


def test_parse_trace_accepts_bytes_with_bom():
    raw = b"\xef\xbb\xbf<0000h 00m 00s 000 001> IRQ begin: 3\r\n"
    log = parse_trace(raw)
    assert log.events == [IrqBegin(1, 3)]


_NON_UTF8 = (
    b"<0000h 00m 00s 005 000> Task schedule: old 0 new 2\n"
    b"\xff\n"
    b"<0000h 00m 00s 005 400> Task \xffschedule: old 2 new 0\n"
    b"<0000h 00m 00s 005 500> Task schedule: old 2 new 0\n"
)


def test_parse_trace_strict_names_the_non_utf8_line():
    with pytest.raises(ParseError) as exc:
        parse_trace(_NON_UTF8)
    assert exc.value.line == 2
    assert exc.value.kind == DiagnosticKind.UNKNOWN_EVENT


def test_parse_trace_lenient_drops_non_utf8_lines():
    log = parse_trace(_NON_UTF8, strict=False)
    assert log.events == [TaskSchedule(5_000, 0, 2), TaskSchedule(5_500, 2, 0)]
    assert [(d.line, d.kind) for d in log.diagnostics] == [
        (2, DiagnosticKind.UNKNOWN_EVENT),
        (3, DiagnosticKind.UNKNOWN_EVENT),
    ]


def test_parse_trace_decodes_valid_utf8_as_before():
    raw = "<0000h 00m 00s 000 001> IRQ begin: 3\nnoté\n".encode()
    log = parse_trace(raw, strict=False)
    assert log.events == [IrqBegin(1, 3)]
    assert "noté" in log.diagnostics[0].message


# Characters str.splitlines breaks at besides LF and CRLF.  A bare CR is
# not a line ending in the trace format either.
_NOT_LINE_ENDINGS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", _NOT_LINE_ENDINGS)
def test_parse_trace_ends_lines_only_at_lf(char):
    text = (
        f"<0000h 00m 00s 005 000> Task schedule: old 0 new 2{char}junk\r\n"
        "<0000h 00m 00s 005 400> Task schedule: old 2 new 0\n"
        "bad\n"
    )
    for source in (text, text.encode()):
        log = parse_trace(source, strict=False)
        assert log.events == [TaskSchedule(5_400, 2, 0)]
        assert [d.line for d in log.diagnostics] == [1, 3]


def test_parse_trace_accepts_iterable_of_lines():
    log = parse_trace(iter(SHORT_TRACE.splitlines()))
    assert len(log.events) == 10


def test_parse_trace_file(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text(SHORT_TRACE)
    assert len(parse_trace_file(str(p)).events) == 10


def test_render_trace_is_canonical_lf_terminated(short_log):
    assert render_trace(short_log.events) == SHORT_TRACE


def test_render_parse_round_trip_seeded():
    rng = random.Random(11)
    at = 0
    events = []
    for _ in range(500):
        at += rng.randint(0, 2_000_000)
        pick = rng.randrange(3)
        if pick == 0:
            events.append(TaskSchedule(at, rng.randint(0, 4000), rng.randint(0, 4000)))
        elif pick == 1:
            events.append(IrqBegin(at, rng.randint(0, 500)))
        else:
            events.append(IrqEnd(at, rng.randint(0, 500)))
    text = render_trace(events)
    assert parse_trace(text).events == events
    assert render_trace(parse_trace(text).events) == text


_event = st.one_of(
    st.builds(TaskSchedule, st.integers(0, 35_999_999_999_999), st.integers(0, 10**6), st.integers(0, 10**6)),
    st.builds(IrqBegin, st.integers(0, 35_999_999_999_999), st.integers(0, 10**6)),
    st.builds(IrqEnd, st.integers(0, 35_999_999_999_999), st.integers(0, 10**6)),
)


@given(_event)
def test_render_parse_round_trip_property(ev):
    assert parse_line(render_event(ev)) == ev
