"""Trace text parsing: tolerant input, canonical output, diagnostics."""

import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schedtrace import (
    DiagnosticKind,
    EmptyTraceError,
    IrqBegin,
    IrqEnd,
    ParseError,
    TaskSchedule,
    TraceError,
    format_timestamp,
    generate_trace,
    parse_trace,
    parse_trace_file,
    random_scenario,
    render_event,
    render_trace,
    validate_consistency,
)
from schedtrace.replay import replay_halves
from tests.conftest import SHORT_TRACE, in_process, unique_id_trace
from tests.oracles import parse_by_line


def test_parse_line_each_event_kind():
    ev = parse_trace("<0000h 00m 01s 290 602> Task schedule: old 5 new 3").events[0]
    assert ev == TaskSchedule(1_290_602, 5, 3)
    ev = parse_trace("<0000h 00m 01s 290 838> IRQ begin: 16").events[0]
    assert ev == IrqBegin(1_290_838, 16)
    ev = parse_trace("<0000h 00m 01s 290 861> IRQ end: 16").events[0]
    assert ev == IrqEnd(1_290_861, 16)


def test_parse_line_tolerates_loose_spacing_and_digit_width():
    # readers must accept any digit count and runs of spaces/tabs
    ev = parse_trace("<0h  0m\t1s  290   602>\tTask  schedule:  old  5  new  3").events[0]
    assert ev == TaskSchedule(1_290_602, 5, 3)
    ev = parse_trace("<00000h 00m 01s 290 602> IRQ begin: 007").events[0]
    assert ev == IrqBegin(1_290_602, 7)


def test_parse_line_strips_trailing_whitespace():
    assert parse_trace("<0000h 00m 00s 000 005> IRQ end: 2 \t\r\n").events[0] == IrqEnd(5, 2)


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
        parse_trace(text)
    assert exc.value.kind == kind


def test_numbers_have_at_most_18_digits():
    # 18 digits is the documented bound, leading zeros included
    line = "<0000h 00m 00s 000 005> IRQ begin: "
    assert parse_trace(line + "7".zfill(18)).events[0] == IrqBegin(5, 7)
    with pytest.raises(ParseError) as exc:
        parse_trace(line + "7".zfill(19))
    assert exc.value.kind == DiagnosticKind.MALFORMED_PAYLOAD
    with pytest.raises(ParseError) as exc:
        parse_trace("<" + "0" * 19 + "h 00m 00s 000 005> IRQ begin: 7")
    assert exc.value.kind == DiagnosticKind.MALFORMED_TIMESTAMP


def test_out_of_range_field_gets_the_same_message_from_both_readers():
    line = "<0000h 00m 00s 000 1000> IRQ begin: 1"
    message = "timestamp field out of range: '0000h 00m 00s 000 1000'"
    with pytest.raises(ParseError) as exc:
        parse_trace(line)
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


@pytest.mark.parametrize("form", ["text", "bytes", "text file", "binary file"])
def test_parse_trace_reads_one_trace_alike_in_every_form(tmp_path, form):
    text = SHORT_TRACE + "noté\n"  # a diagnosed line that is not ASCII
    path = tmp_path / "t.txt"
    path.write_bytes(text.encode())
    if form == "text file":
        with open(path, encoding="utf-8") as handle:
            log = parse_trace(handle, strict=False)
    elif form == "binary file":
        with open(path, "rb") as handle:
            log = parse_trace(handle, strict=False)
    else:
        log = parse_trace(text if form == "text" else text.encode(), strict=False)
    assert log == parse_trace(text, strict=False)
    assert len(log.events) == 10 and "noté" in log.diagnostics[0].message


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
    assert parse_trace(render_event(ev)).events[0] == ev


def _typed(events):
    # IrqBegin(1, 2) == IrqEnd(1, 2) as tuples, so compare the types too
    return [(type(ev), ev) for ev in events]


def _outcome(parse, source, strict):
    try:
        events, diagnostics = parse(source, strict)
    except ParseError as exc:
        return "ParseError", exc.line, exc.kind, exc.message
    except EmptyTraceError:
        return "EmptyTraceError"
    return _typed(events), diagnostics


def _columns(source, strict):
    log = parse_trace(source, strict=strict)
    return log.events, log.diagnostics


def _halves(source, strict, cut):
    """The outcome of validating `source` in two halves cut at `cut`, both in
    this process, the second half's parse first, as a forked child may."""
    text = source.decode("utf-8-sig", "surrogateescape") if isinstance(source, bytes) else source
    try:
        diagnostics, violations = replay_halves(lambda: text, strict, False, in_process, cut)
    except ParseError as exc:
        return "ParseError", exc.line, exc.kind, exc.message
    except EmptyTraceError:
        return "EmptyTraceError"
    return violations, diagnostics


def _same_as_oracle(source):
    """The lenient outcome, after checking both modes against parse_by_line,
    whole and, for text and bytes, in two halves cut at every line: the
    halves find one parse's diagnostics or first error, and the violations
    of its events."""
    for strict in (True, False):
        want = _outcome(parse_by_line, source, strict)
        assert _outcome(_columns, source, strict) == want
        if isinstance(source, (str, bytes)):
            halves = want
            if isinstance(want[0], list):
                halves = validate_consistency(parse_trace(source, strict=strict)), want[1]
            text = source.decode("utf-8-sig", "surrogateescape") if isinstance(source, bytes) else source
            for cut in (0, *(i + 1 for i, c in enumerate(text) if c == "\n")):
                assert _halves(source, strict, cut) == halves
    return want


_JUNK = [b"junk", b"<0000h 00m 00s 000 000> Task yield: 3", b"<0000h 00m 00s 000> IRQ begin: 1",
         b"<0000h 00m 00s 000 000> IRQ end: 1 2", b"\x0c", b"<>", b"<0000h"]


def _edit(lines, edit, i, j):
    line = lines[i]
    if edit == "crlf":
        lines[i] = line + b"\r"
    elif edit == "tabs":
        lines[i] = b"\t " + line.replace(b" ", b"\t", j % 4) + b" \t"
    elif edit == "blank":
        lines.insert(i, b" \t\r"[: j % 4])
    elif edit == "junk":
        lines.insert(i, _JUNK[j % len(_JUNK)])
    elif edit == "backwards":
        lines.insert(i, lines[j % (i + 1)])
    elif edit == "range":  # 1000 us, 60 m, 60 s or 1000 ms
        field = (rb"[0-9]+>", rb"[0-9]+m", rb"[0-9]+s", rb"[0-9]+ [0-9]+>")[j % 4]
        value = (b"1000>", b"60m", b"60s", b"1000 000>")[j % 4]
        lines[i] = re.sub(field, value, line, count=1)
    elif edit == "digits19":  # one digit run grows to 19 digits
        runs = list(re.finditer(rb"[0-9]+", line))
        if runs:
            run = runs[j % len(runs)]
            lines[i] = line[: run.start()] + b"1" * 19 + line[run.end():]
    else:  # non-UTF-8 byte
        lines[i] = line[: j % (len(line) + 1)] + b"\xff" + line[j % (len(line) + 1):]


_EDITS = ("crlf", "tabs", "blank", "junk", "backwards", "range", "digits19", "non_utf8")


@st.composite
def _dirty_traces(draw):
    text, _ = generate_trace(random_scenario(draw(st.integers(0, 10_000)), n_runs=8))
    lines = [line.encode() for line in text.split("\n")[:-1]]
    for edit in draw(st.lists(st.sampled_from(_EDITS), max_size=10)):
        _edit(lines, edit, draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, 1000)))
    return b"\n".join(lines) + draw(st.sampled_from([b"", b"\n", b"\r\n", b"\n\n"]))


@settings(max_examples=300, deadline=None)
@given(_dirty_traces())
def test_parse_trace_matches_the_line_by_line_oracle(data):
    # same events, same diagnostics (line, kind, message), same strict error
    _same_as_oracle(data)


_FRAGMENTS = [b"<", b">", b"0000h ", b"00m ", b"00s ", b"999 ", b"1000", b"Task schedule: old 1 new 2",
              b"IRQ begin: 3", b"IRQ end: 3", b"\n", b"\r\n", b"\r", b"\t", b" ", b"\xff",
              b"\xef\xbb\xbf", b"7" * 19, b"\xe2\x80\xa8"]


@settings(deadline=None)
@given(st.one_of(st.binary(), st.lists(st.sampled_from(_FRAGMENTS)).map(b"".join)))
def test_parse_trace_raises_only_trace_errors_on_any_bytes(data):
    for strict in (False, True):
        try:
            parse_trace(data, strict=strict)
        except TraceError:
            pass


_DIRTY = (
    "\n"
    "<0000h 00m 00s 000 010> IRQ begin: 1\r\n"
    "not a trace line\n"
    " \t\n"
    "<0000h 00m 00s 000 1000> IRQ end: 1\n"
    "<0000h 00m 00s 000 020> IRQ end: 1\n"
    "<0000h 00m 00s 000 005> IRQ begin: 2\n"
    "<0000h 00m 00s 000 030> Task schedule: old 0 new 0\r\n"
    "<0000h 00m 00s 000 030> IRQ begin: 1234567890123456789\n"
)


def test_every_source_type_numbers_lines_alike(tmp_path):
    path = tmp_path / "dirty.txt"
    path.write_bytes(_DIRTY.encode())
    lines = _DIRTY.split("\n")[:-1]
    want = _same_as_oracle(_DIRTY)
    assert [d.line for d in want[1]] == [3, 5, 7, 9]
    for source in (_DIRTY.encode(), lines, [line + "\n" for line in lines]):
        assert _same_as_oracle(source) == want
    with open(path) as handle:
        assert _outcome(_columns, handle, False) == want
    with open(path) as handle, pytest.raises(ParseError) as exc:
        parse_trace(handle)
    assert exc.value.line == 3


# Clock texts that the parser's caches of the last second and millisecond
# must not confuse: a new millisecond of a cached second, the same second
# written with other spacing, out-of-range fields right after a cached
# second, and the cached second again after them.
_CLOCKS = (
    "<0001h 02m 03s 004 005> Task schedule: old 0 new 1\n"
    "<0001h 02m 03s 007 000> IRQ begin: 3\n"
    "<0001h 02m 03s 1000 000> IRQ end: 3\n"
    "<0001h 02m 03s 0007 001> IRQ end: 3\n"
    "<0001h\t02m  03s 007 002> Task schedule: old 1 new 2\n"
    "<10000h 02m 03s 007 003> Task schedule: old 2 new 1\n"
    "<0001h 02m 03s 008 000> Task schedule: old 2 new 3\n"
    "<0001h 02m 60s 008 000> Task schedule: old 3 new 1\n"
    "<0001h 02m 03s 999 999> Task schedule: old 3 new 4\n"
    "<0001h 02m 04s 000 000> Task schedule: old 4 new 5\n"
    "<0001h 02m 04s 000 000> Task schedule: old 5 new 6\n"
    "<0001h 02m 03s 999 999> Task schedule: old 6 new 7\n"
)


def test_parse_trace_converts_each_clock_text_as_the_oracle():
    events, diagnostics = _same_as_oracle(_CLOCKS)
    second = ((1 * 60 + 2) * 60 + 3) * 1_000_000
    assert [ev.at - second for _, ev in events] == [4005, 7000, 7001, 7002, 8000, 999_999, 1_000_000, 1_000_000]
    assert [(d.line, d.kind) for d in diagnostics] == [
        (3, DiagnosticKind.MALFORMED_TIMESTAMP),
        (6, DiagnosticKind.MALFORMED_TIMESTAMP),
        (8, DiagnosticKind.MALFORMED_TIMESTAMP),
        (12, DiagnosticKind.NON_MONOTONIC_TIMESTAMP),
    ]
    with pytest.raises(ParseError) as exc:
        parse_trace(_CLOCKS)
    assert (exc.value.line, exc.value.kind) == (3, DiagnosticKind.MALFORMED_TIMESTAMP)


@pytest.mark.parametrize("chunk", [0, 1, 7, 60, 200])
def test_slices_cut_anywhere_give_the_same_lines(monkeypatch, chunk):
    monkeypatch.setattr("schedtrace.tracefile._CHUNK", chunk)
    text, _ = generate_trace(random_scenario(5, n_runs=80))
    lines = text.split("\n")[:-1]
    # bad, out-of-range and blank lines at every distance from a slice edge
    bad = ["", "junk", "<0000h 00m 00s 000 1000> IRQ end: 1", " \t", "<0000h 61m 00s 000 000> IRQ end: 1"]
    for i in range(len(lines), 0, -2):
        lines.insert(i, bad[i % len(bad)])
    text = "\n".join(lines)
    events, diagnostics = _same_as_oracle(text)
    assert len(events) > 200 and len(diagnostics) > 50
    assert _same_as_oracle(text + "\n") == (events, diagnostics)


def test_parse_peaks_at_a_few_words_per_event():
    # ids that never repeat: no memory of the parse may grow with distinct numbers
    n = 100_000
    text = unique_id_trace(n)
    tracemalloc.start()
    try:
        log = parse_trace(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(log.at) == n
    assert peak <= 64 * n, f"{peak / n:.0f} B per event"


def test_events_view_builds_each_event_on_access():
    log = parse_trace(SHORT_TRACE)
    events = log.events
    expected = parse_by_line(SHORT_TRACE)[0]
    assert len(events) == 10
    assert events == expected and expected == events
    assert events != expected[:-1] and events != tuple(expected)
    assert _typed(events) == _typed(expected)
    assert events[-1] == expected[-1] and events[3] == IrqBegin(1_290_838, 16)
    assert events[2:5] == expected[2:5]
    assert list(reversed(events)) == expected[::-1]
    assert events.index(expected[4]) == 4
    with pytest.raises(IndexError):
        events[10]
    with pytest.raises(TypeError):
        events[0] = expected[0]
