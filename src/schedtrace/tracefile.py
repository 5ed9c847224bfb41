"""Reader of the text trace format.

One event per line::

    <0000h 00m 01s 290 602> Task schedule: old 5 new 3
    <0000h 00m 01s 290 838> IRQ begin: 16
    <0000h 00m 01s 290 861> IRQ end: 16

Reading is tolerant: any run of spaces/tabs between tokens, 1 to 18 ASCII
digits per number, LF or CRLF.  Bad lines are diagnosed by kind.
"""

from __future__ import annotations

import re
import sys
from array import array
from enum import Enum
from typing import NamedTuple

from .errors import EmptyTraceError, ParseError, TimestampRangeError
from .model import (
    IRQ_BEGIN,
    IRQ_END,
    SCHEDULE,
    EventLog,
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
# One match per line: an event's six fields, or all empty for a blank line,
# or else the line's text (leading spaces, tabs and CRs dropped) in the
# seventh group.  The timestamp up to its microseconds is one group: adjacent
# lines usually share it, so parse_trace converts it only when it changes.
_EVENT_RE = re.compile(
    rf"^[ \t\r]*(?:<({_NUM}h[ \t]+{_NUM}m[ \t]+{_NUM}s[ \t]+{_NUM}[ \t]+)({_NUM})>[ \t]+"
    rf"(?:Task[ \t]+schedule:[ \t]+old[ \t]+({_NUM})[ \t]+new[ \t]+({_NUM})"
    rf"|IRQ[ \t]+(?:begin:[ \t]+({_NUM})|end:[ \t]+({_NUM})))[ \t\r]*$|$|(.*))",
    re.M,
)
_CHUNK = 1 << 16  # characters per findall, so per-line objects never outgrow a slice
# 0 to 999 written plainly and zero-padded to three digits: every microsecond
# field of a canonical trace and most ids.  A lookup here is cheaper than int().
_SMALL = {**{str(i): i for i in range(1000)}, **{f"{i:03d}": i for i in range(1000)}}


def _second_us(second: str) -> int | None:
    """Microseconds of the h/m/s part of _EVENT_RE's first group, or None if out of range."""
    h, m, s = second.split()
    try:
        return timestamp_from_fields(int(h[:-1]), int(m[:-1]), int(s[:-1]), 0, 0)
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


class Span(NamedTuple):
    """What parse_span found: the four event columns, the diagnostics, and
    in strict mode the error at the first bad line, if any, where it stopped."""

    columns: list[array]
    diagnostics: list[ParseDiagnostic]
    error: ParseError | None


def parse_span(text: str, start: int, stop: int, strict: bool, last_at: int = 0, line: int = 0) -> Span:
    """Parse the lines of text[start:stop], which start and stop at line
    boundaries, after `line` lines whose last event was at `last_at` us."""
    columns = [array("q") for _ in range(4)]
    # a chunk's events go to lists, whose append is cheaper than array's,
    # and then to the columns at once
    ats, kinds, firsts, seconds = pending = [[] for _ in range(4)]
    add_at, add_kind, add_a, add_b = ats.append, kinds.append, firsts.append, seconds.append
    diagnostics: list[ParseDiagnostic] = []
    error = None
    number = _SMALL.get  # number(digits) or int(digits) is int(digits)
    # the clock text up to the millisecond, and up to the second, last converted
    prefix_key = prefix_base = second_key = second_base = None
    lineno = line
    while start < stop and error is None:
        chunk_end = text.find("\n", start + _CHUNK, stop) + 1 or stop
        rows = _EVENT_RE.findall(text, start, chunk_end - (text[chunk_end - 1] == "\n"))
        for lineno, (prefix, us, old, new, begin, end, rest) in enumerate(rows, lineno + 1):
            if prefix:
                if prefix != prefix_key:
                    prefix_key = prefix
                    second, ms = prefix.rsplit(None, 1)
                    if second != second_key:
                        second_key, second_base = second, _second_us(second)
                    ms = number(ms) or int(ms)
                    in_range = second_base is not None and ms < 1000
                    prefix_base = second_base + ms * 1000 if in_range else None
                at = number(us) or int(us)
                if prefix_base is not None and at < 1000:
                    at += prefix_base
                    if at >= last_at:
                        last_at = at
                        add_at(at)
                        if old:
                            add_kind(SCHEDULE)
                            add_a(number(old) or int(old))
                            add_b(number(new) or int(new))
                        else:
                            add_kind(IRQ_BEGIN if begin else IRQ_END)
                            irq = begin or end
                            add_a(number(irq) or int(irq))
                            add_b(0)
                        continue
                    kind = DiagnosticKind.NON_MONOTONIC_TIMESTAMP
                    message = f"timestamp goes backwards ({at} us after {last_at} us)"
                else:  # the grammar held, so the timestamp alone decides the diagnosis
                    kind, message = _diagnose(f"<{prefix}{us}>")
            elif rest:
                kind, message = _diagnose(rest.rstrip(" \t\r"))
            else:
                continue
            if strict:
                error = ParseError(kind, message, line=lineno)
                break
            diagnostics.append(ParseDiagnostic(lineno, kind, message))
        for column, values in zip(columns, pending):
            column.fromlist(values)
            values.clear()
        start = chunk_end
    return Span(columns, diagnostics, error)


def parse_trace(source, strict: bool = True) -> EventLog:
    """Parse a whole trace into an EventLog.

    `source` may be text, bytes, or an iterable of lines of either, such as a
    file open in either mode.  In text and bytes only LF ends a line.  The
    lines of an iterable are joined with LFs, one trailing LF of each removed
    first, so line numbers count them unless one holds an LF inside.  Blank
    lines are skipped.  Strict mode raises ParseError (with the line number)
    on the first bad line or backwards timestamp; lenient mode skips each
    offender and records a diagnostic instead.  A trace yielding zero events
    raises EmptyTraceError in both modes.
    """
    if not isinstance(source, (str, bytes)):
        lines = iter(source)
        first = next(lines, "")
        lf = b"\n" if isinstance(first, bytes) else "\n"
        source = lf.join([first.removesuffix(lf), *(line.removesuffix(lf) for line in lines)])
    text = _decode(source) if isinstance(source, bytes) else source
    span = parse_span(text, 0, len(text), strict)
    if span.error is not None:
        raise span.error
    if not span.columns[0]:
        raise EmptyTraceError("trace contains no events")
    return EventLog(*span.columns, span.diagnostics)


def parse_trace_file(path: str, strict: bool = True) -> EventLog:
    """Parse a trace from a file path, or from stdin when path is '-'."""
    return parse_trace(read_text(path), strict=strict)

