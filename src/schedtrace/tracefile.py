"""Reader and writer for the text trace format.

One event per line::

    <0000h 00m 01s 290 602> Task schedule: old 5 new 3
    <0000h 00m 01s 290 838> IRQ begin: 16
    <0000h 00m 01s 290 861> IRQ end: 16

Reading is tolerant: any run of spaces/tabs between tokens, 1 to 18 ASCII
digits per number, LF or CRLF.  Writing is canonical: zero-padded fields,
single spaces, LF line endings.
"""

from __future__ import annotations

import re
import sys
from enum import Enum
from typing import IO, Iterable, NamedTuple, Union

from .errors import EmptyTraceError, ParseError, TimestampRangeError
from .model import (
    EventLog,
    IrqBegin,
    IrqEnd,
    TaskSchedule,
    TraceEvent,
    format_timestamp,
    timestamp_from_fields,
)


class DiagnosticKind(Enum):
    MALFORMED_TIMESTAMP = "malformed_timestamp"
    UNKNOWN_EVENT = "unknown_event"
    MALFORMED_PAYLOAD = "malformed_payload"
    NON_MONOTONIC_TIMESTAMP = "non_monotonic_timestamp"


class ParseDiagnostic(NamedTuple):
    line: int
    kind: DiagnosticKind
    message: str


# A number has at most 18 digits, so it fits a signed 64-bit integer and
# int() takes it on every Python (3.11 refuses more than 4300 digits).  The
# digits are ASCII: \d would also match other scripts' digits, which int()
# reads as numbers.
_NUM = r"[0-9]{1,18}"
# The h/m/s/ms part of the timestamp is one group: adjacent lines usually
# share it, so parse_trace converts it only when it changes.
_EVENT_RE = re.compile(
    rf"<({_NUM}h[ \t]+{_NUM}m[ \t]+{_NUM}s[ \t]+{_NUM})[ \t]+({_NUM})>[ \t]+"
    rf"(?:Task[ \t]+schedule:[ \t]+old[ \t]+({_NUM})[ \t]+new[ \t]+({_NUM})"
    rf"|IRQ[ \t]+(?:begin:[ \t]+({_NUM})|end:[ \t]+({_NUM})))"
)


def _prefix_us(prefix: str) -> int | None:
    """Microseconds of the h/m/s/ms group of _EVENT_RE, or None if out of range."""
    hours, minutes, seconds, ms = prefix.split()
    try:
        return timestamp_from_fields(
            int(hours[:-1]), int(minutes[:-1]), int(seconds[:-1]), int(ms), 0
        )
    except TimestampRangeError:
        return None


# Used only to classify lines the event regex or the range rule rejected.
_BRACKET_RE = re.compile(r"<([^>]*)>[ \t]*(.*)$")
_TS_FIELDS_RE = re.compile(rf"({_NUM})h[ \t]+({_NUM})m[ \t]+({_NUM})s[ \t]+({_NUM})[ \t]+({_NUM})$")
_PAYLOAD_HEAD_RE = re.compile(r"(?:Task[ \t]+schedule:|IRQ[ \t]+(?:begin|end):)")


def _diagnose(text: str) -> tuple[DiagnosticKind, str]:
    """Classify a line that is not a valid event."""
    m = _BRACKET_RE.match(text)
    if m is None:
        return DiagnosticKind.UNKNOWN_EVENT, f"unrecognized line: {text[:60]!r}"
    fields = _TS_FIELDS_RE.match(m.group(1).strip(" \t"))
    if fields is None:
        return (
            DiagnosticKind.MALFORMED_TIMESTAMP,
            f"malformed timestamp: {m.group(1)[:60]!r}",
        )
    try:
        timestamp_from_fields(*map(int, fields.groups()))
    except TimestampRangeError:
        return (
            DiagnosticKind.MALFORMED_TIMESTAMP,
            f"timestamp field out of range: {m.group(1)[:60]!r}",
        )
    rest = m.group(2)
    if _PAYLOAD_HEAD_RE.match(rest):
        return DiagnosticKind.MALFORMED_PAYLOAD, f"malformed event payload: {rest[:60]!r}"
    return DiagnosticKind.UNKNOWN_EVENT, f"unknown event type: {rest[:60]!r}"


def parse_line(text: str) -> TraceEvent:
    """Parse one trace line (without its newline) into an event.

    Raises ParseError carrying a DiagnosticKind when the line is not a valid
    event.
    """
    text = text.strip(" \t\r\n")
    if not text:  # parse_trace would skip it
        raise ParseError(*_diagnose(text))
    try:
        return parse_trace((text,)).events[0]
    except ParseError as exc:
        raise ParseError(exc.kind, exc.message) from None


def _decode(data: bytes) -> str:
    # an undecodable byte becomes a lone surrogate, which no event (and no
    # scenario directive) matches, so its line is diagnosed like any other
    return data.decode("utf-8-sig", "surrogateescape")


def read_text(path: str) -> str:
    """The decoded text of a file path, or of stdin when path is '-'."""
    if path == "-":
        return _decode(sys.stdin.buffer.read())
    with open(path, "rb") as handle:
        return _decode(handle.read())


def _iter_lines(source: Union[str, bytes, IO, Iterable[str]]) -> Iterable[str]:
    if isinstance(source, bytes):
        source = _decode(source)
    if isinstance(source, str):
        # only LF ends a line (parse_trace strips a CRLF's CR); splitlines
        # would also break at form feeds and Unicode line separators
        return source.split("\n")
    return source


def parse_trace(source, strict: bool = True) -> EventLog:
    """Parse a whole trace into an EventLog.

    `source` may be text, bytes, or an iterable of lines (e.g. an open file).
    Blank lines are skipped.  Strict mode raises ParseError (with the line
    number) on the first bad line or backwards timestamp; lenient mode skips
    each offender and records a diagnostic instead.  A trace yielding zero
    events raises EmptyTraceError in both modes.
    """
    events: list[TraceEvent] = []
    diagnostics: list[ParseDiagnostic] = []
    append = events.append
    match = _EVENT_RE.fullmatch
    last_at = 0
    prefix_key = None
    prefix_base = None
    for lineno, raw in enumerate(_iter_lines(source), 1):
        text = raw.strip(" \t\r\n")
        if not text:
            continue
        at = -1  # stays negative when the grammar or the range rule rejects the line
        m = match(text)
        if m is not None:
            prefix, us, old, new, begin, end = m.groups()
            if prefix != prefix_key:
                prefix_key = prefix
                prefix_base = _prefix_us(prefix)
            us = int(us)
            if prefix_base is not None and us < 1000:
                at = prefix_base + us
        if at >= last_at:
            last_at = at
            if old is not None:
                append(TaskSchedule(at, int(old), int(new)))
            elif begin is not None:
                append(IrqBegin(at, int(begin)))
            else:
                append(IrqEnd(at, int(end)))
            continue
        if at < 0:
            kind, message = _diagnose(text)
        else:
            kind = DiagnosticKind.NON_MONOTONIC_TIMESTAMP
            message = f"timestamp goes backwards ({at} us after {last_at} us)"
        if strict:
            raise ParseError(kind, message, line=lineno)
        diagnostics.append(ParseDiagnostic(lineno, kind, message))
    if not events:
        raise EmptyTraceError("trace contains no events")
    return EventLog(events, diagnostics)


def parse_trace_file(path: str, strict: bool = True) -> EventLog:
    """Parse a trace from a file path, or from stdin when path is '-'."""
    return parse_trace(read_text(path), strict=strict)


def render_event(event: TraceEvent) -> str:
    """Render one event as a canonical trace line (no newline)."""
    ts = format_timestamp(event.at)
    kind = type(event)
    if kind is TaskSchedule:
        return f"<{ts}> Task schedule: old {event.old} new {event.new}"
    if kind is IrqBegin:
        return f"<{ts}> IRQ begin: {event.irq}"
    if kind is IrqEnd:
        return f"<{ts}> IRQ end: {event.irq}"
    raise TypeError(f"not a trace event: {event!r}")


def render_trace(events: Iterable[TraceEvent]) -> str:
    """Render events as canonical trace text, one line each, LF-terminated."""
    lines = [render_event(ev) for ev in events]
    lines.append("")
    return "\n".join(lines)
