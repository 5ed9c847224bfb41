"""Replay of an event log into execution slices.

Every microsecond between two consecutive events is charged to exactly one
entity: the innermost open IRQ handler if any, otherwise the scheduled task.
Interrupt time is thereby subtracted from the interrupted task, and from
enclosing handlers when interrupts nest.  The analysis window runs from the
first event to the last, so partially observed executions at either edge are
truncated to what the trace shows.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from enum import Enum
from typing import NamedTuple

from .errors import ConsistencyError, EmptyTraceError
from .model import (
    IDLE_TASK_ID,
    IRQ_CODE,
    IRQ_END,
    SCHEDULE,
    EventLog,
    SliceSet,
    Window,
    entity_of,
)
from .tracefile import parse_span


class ViolationKind(Enum):
    OLD_TASK_MISMATCH = "old_task_mismatch"
    IRQ_END_WITHOUT_BEGIN = "irq_end_without_begin"
    IRQ_END_ID_MISMATCH = "irq_end_id_mismatch"
    IRQ_OPEN_AT_TRACE_END = "irq_open_at_trace_end"


class ConsistencyViolation(NamedTuple):
    at: int
    kind: ViolationKind
    detail: str


_DETAILS = {
    ViolationKind.OLD_TASK_MISMATCH: "switch claims old task {} but task {} is current",
    ViolationKind.IRQ_END_WITHOUT_BEGIN: "IRQ {} ends but no handler is open",
    ViolationKind.IRQ_END_ID_MISMATCH: "IRQ {} ends but IRQ {} is innermost",
    ViolationKind.IRQ_OPEN_AT_TRACE_END: "IRQ {} is still open at the end of the trace",
}


def _violation(at: int, kind: ViolationKind, *ids: int) -> ConsistencyViolation:
    return ConsistencyViolation(at, kind, _DETAILS[kind].format(*ids))


# The code of the task of a first half that holds no switch: the second half names it.
_UNKNOWN = -1
# The start of a run open at the cut, which only the first half knows.  It
# lies below every timestamp, so the second half records every such run.
_SPANNING = -1


def _first_task(log: EventLog, default: int = IDLE_TASK_ID) -> int:
    """The task running where `log` starts: `old` of its first switch, else `default`."""
    return log.a[log.kind.index(SCHEDULE)] if SCHEDULE in log.kind else default


def _check_ids(log: EventLog) -> None:
    """ValueError if a task or IRQ id lies outside [0, IRQ_CODE), where codes would collide."""
    from sys import byteorder

    # the top byte of an id in [0, IRQ_CODE) is below 0x10, of a negative id 0x80 or more
    top = 7 if byteorder == "little" else 0
    for column in (log.a, log.b):
        if memoryview(column).cast("B")[top::8].tobytes().translate(None, bytes(range(16))):
            raise ValueError("task and IRQ ids must lie in [0, 2**60)")


class _Part(NamedTuple):
    """What _replay found in part of a trace: slices as in SliceSet (`bounds`
    holds the window end only if the trace ended there), the runs of each code
    in the order they ended, schedule-ins, violations, and the stack still
    open after the part's last event."""

    owners: array
    bounds: array
    runs: dict[int, array]
    schedule_ins: dict[int, list[int]]
    violations: list[ConsistencyViolation]
    stack: list[tuple[int, int, int]]


def build_slices(log: EventLog, strict: bool = True) -> SliceSet:
    """Attribute every instant of the analysis window to exactly one entity.

    Strict mode raises ConsistencyError at the first event that contradicts
    the replayed state.  Lenient mode repairs and keeps going: a bad `old`
    field resyncs the current task to `new`, an unmatched IRQ end (with no
    handler open, or another innermost) is dropped, and handlers still open
    at the end of the trace are closed at the window end, innermost first;
    every repair is recorded as a diagnostic on the returned SliceSet.  The
    rules are validate_consistency's, on the same entity codes, in a loop of
    their own that the tests hold equal to it.  replay_halves gives the same
    SliceSet from the two halves of a trace's text, replayed at once.

    The slices are two columns: the entity code each charges, and the
    len(owners) + 1 times that bound them (see SliceSet).  ValueError if a
    task or IRQ id lies outside [0, IRQ_CODE), where codes would collide.
    """
    if not log.at:
        raise EmptyTraceError("cannot replay an empty event log")
    _check_ids(log)
    start = log.at[0]
    return _slice_set(log.window, _replay(log, strict, [(_first_task(log), start, 0)], start, True))


def _slice_set(window: Window, part: _Part) -> SliceSet:
    ordered = dict(sorted(part.runs.items()))  # plain dicts, so a missing id raises KeyError
    entities = list(map(entity_of, ordered))
    owners, bounds, _, schedule_ins, violations, _ = part
    return SliceSet(window, owners, bounds, ordered, schedule_ins, entities, violations)


def _replay(log: EventLog, strict: bool, stack: list, cursor: int, close: bool) -> _Part:
    """Replay `log` from `stack`, the (code, start of its run, net us charged
    in it) of each open entity, the task first and the innermost last, with
    time charged up to `cursor`.  If `close`, the trace ends with `log`: open
    runs end at its last event (or at `cursor` if it has none).  A run whose
    start is _SPANNING is recorded whatever its length."""
    violations: list[ConsistencyViolation] = []

    def violation(at, kind, *ids):
        found = _violation(at, kind, *ids)
        if strict:
            raise ConsistencyError(found)
        violations.append(found)

    owners = array("q")  # entity codes, see SliceSet
    bounds = array("q")
    runs: dict[int, array] = {}
    schedule_ins: defaultdict[int, list[int]] = defaultdict(list)

    # The innermost open entity: its code, the start of its run and the net us
    # charged to it in that run; a task's code is its id.  The same of each
    # entity that open handlers interrupt, innermost last: the task, then the
    # handlers that enclose the innermost one.
    suspended = stack[:-1]
    code, start, net = stack[-1]
    owner = None  # the code of the last slice, extended while the charge stays

    # array.append and array.extend convert each item on its own, at several
    # times the cost of the list methods: each chunk of events collects its
    # slices and runs in lists, and fromlist moves them into the arrays.
    new_owners: list[int] = []
    new_bounds: list[int] = []
    new_runs: defaultdict[int, list[int]] = defaultdict(list)

    def keep_chunk():
        owners.fromlist(new_owners)
        bounds.fromlist(new_bounds)
        for c, triples in new_runs.items():
            if c in runs:
                runs[c].fromlist(triples)
            else:  # sized to fit: an id that runs once keeps 24 bytes
                runs[c] = array("q", triples)
        new_owners.clear()
        new_bounds.clear()
        new_runs.clear()

    for lo in range(0, len(log.at), 4096):
        hi = lo + 4096
        for at, kind, a, b in zip(log.at[lo:hi], log.kind[lo:hi], log.a[lo:hi], log.b[lo:hi]):
            if at > cursor:
                net += at - cursor
                if code != owner:
                    new_owners.append(code)
                    new_bounds.append(cursor)
                    owner = code
                cursor = at
            if kind == SCHEDULE:  # a: old task, b: new task
                if suspended:  # the task lies beneath open handlers
                    task, run_start, run_net = suspended[0]
                    suspended[0] = (b, at, 0)
                else:
                    task, run_start, run_net = code, start, net
                    code, start, net = b, at, 0
                if a != task:
                    violation(at, ViolationKind.OLD_TASK_MISMATCH, a, task)
                if at > run_start:
                    new_runs[task] += run_start, at, run_net
                schedule_ins[b].append(at)
            elif kind == IRQ_END:  # a: IRQ id
                if not suspended:
                    violation(at, ViolationKind.IRQ_END_WITHOUT_BEGIN, a)
                elif code != a + IRQ_CODE:
                    violation(at, ViolationKind.IRQ_END_ID_MISMATCH, a, code - IRQ_CODE)
                else:
                    if at > start:
                        new_runs[code] += start, at, net
                    code, start, net = suspended.pop()
            else:  # IRQ_BEGIN, a: IRQ id
                suspended.append((code, start, net))
                code, start, net = a + IRQ_CODE, at, 0
        keep_chunk()

    if close:  # handlers still open close at the window end, innermost first; then the task
        while suspended:
            violation(cursor, ViolationKind.IRQ_OPEN_AT_TRACE_END, code - IRQ_CODE)
            if cursor > start:
                new_runs[code] += start, cursor, net
            code, start, net = suspended.pop()
        if cursor > start:
            new_runs[code] += start, cursor, net
        keep_chunk()
        bounds.append(cursor)  # the window end
    else:
        suspended.append((code, start, net))
    return _Part(owners, bounds, runs, dict(schedule_ins), violations, suspended)


def validate_consistency(log: EventLog) -> list[ConsistencyViolation]:
    """Report every violation a strict replay would hit.

    Returns an empty list exactly when build_slices(log, strict=True) would
    succeed; recovery between violations follows the lenient rules, because
    these are the repairs of a lenient replay.  The check walks entity codes
    alone, the task and the stack of open handlers, and builds no slice, run
    or Entity.  ValueError for ids outside [0, 2**60), as build_slices.
    """
    if not log.at:
        return []
    _check_ids(log)
    stack = [_first_task(log)]
    return _check(log, stack) + _open_at_end(stack, log.at[-1])


def _check(log: EventLog, stack: list[int]) -> list[ConsistencyViolation]:
    """The violations of `log` checked from `stack`, the codes of the task and
    the open handlers, innermost last, which it leaves holding those open
    after the last event.  build_slices' rules and repairs, in a loop of
    their own: held equal to it by the tests."""
    violations: list[ConsistencyViolation] = []
    task = stack[0]
    handlers = [code - IRQ_CODE for code in stack[1:]]  # ids, innermost last
    for at, kind, a, b in zip(log.at, log.kind, log.a, log.b):
        if kind == SCHEDULE:
            if a != task:
                violations.append(_violation(at, ViolationKind.OLD_TASK_MISMATCH, a, task))
            task = b
        elif kind == IRQ_END:
            if not handlers:
                violations.append(_violation(at, ViolationKind.IRQ_END_WITHOUT_BEGIN, a))
            elif handlers[-1] != a:
                violations.append(_violation(at, ViolationKind.IRQ_END_ID_MISMATCH, a, handlers[-1]))
            else:
                handlers.pop()
        else:
            handlers.append(a)
    stack[:] = [task, *(irq + IRQ_CODE for irq in handlers)]
    return violations


def _open_at_end(stack: list[int], end: int) -> list[ConsistencyViolation]:
    """A violation at `end` for each handler of `stack` still open, innermost first."""
    kind = ViolationKind.IRQ_OPEN_AT_TRACE_END
    return [_violation(end, kind, code - IRQ_CODE) for code in reversed(stack[1:])]


def replay_halves(read, strict: bool, slices: bool, spawn, cut: int | None = None):
    """Parse and replay the trace text that read() returns in two halves at once.

    Returns what one process finds: the parse diagnostics, and the SliceSet
    of build_slices(parse_trace(text, strict), strict) if `slices`, else the
    violations of validate_consistency; it raises what one process would
    raise first, any parse error before the first consistency error.  The
    text is cut at `cut`, a line start, or after the line break that follows
    its middle.  The caller need hold no reference to the text, which this
    process releases once it has parsed its half.

    `spawn(prepare, finish)` is a context manager whose value has
    `send(message)` and `result()`: finish(prepare(), message) runs on the
    one message sent, in a second process or here, and result() returns what
    it returned or raises what it raised.

    The first half is parsed here while prepare parses the second.  A pass on
    entity codes alone checks the first half and finds the task and handlers
    open at its end; their codes and its last timestamp are the message.
    When strict slices already fail on the first half, no codes are sent and
    the second half is only parsed, for a parse error that would come first.
    finish parses its half again from that timestamp if its first event is
    earlier, then checks it or replays it from those codes, with the start
    and net of each run open at the cut unknown.  Meanwhile this process
    replays the first half.  It joins the halves' slices, runs and
    schedule-ins.
    """
    text = read()
    if cut is None:
        cut = text.find("\n", len(text) // 2) + 1 or len(text)
    end = len(text)

    def prepare():  # the second half, parsed while the first is
        line = text.count("\n", 0, cut)
        return text, line, parse_span(text, cut, end, strict, 0, line)

    def finish(prepared, carry):  # the second half, from where the first left off
        whole, line, span = prepared
        codes, cursor = carry or ([_UNKNOWN], 0)
        if span.columns[0] and span.columns[0][0] < cursor:
            span = parse_span(whole, cut, end, strict, cursor, line)
        if span.error is not None:
            raise span.error
        if codes is None:  # the first half failed strict replay: only this parse counts
            return span.diagnostics, None, None
        log = EventLog(*span.columns)
        if carry is None:  # the first half held no event: replay from the start
            if not log.at:
                raise EmptyTraceError("trace contains no events")
            cursor = log.at[0]
        if codes[0] == _UNKNOWN:
            codes[0] = _first_task(log)
        task = codes[0]
        if not slices:
            violations = _check(log, codes)
            violations += _open_at_end(codes, log.at[-1] if log.at else cursor)
            return span.diagnostics, task, violations
        start = cursor if carry is None else _SPANNING
        return span.diagnostics, task, _replay(log, False, [(c, start, 0) for c in codes], cursor, True)

    with spawn(prepare, finish) as second:
        head = parse_span(text, 0, cut, strict)
        del text  # neither half's replay needs it
        if head.error is not None:
            raise head.error
        log = EventLog(*head.columns)
        carry, violations, part = None, [], None
        if log.at:
            task = _first_task(log, _UNKNOWN)
            codes = [task]
            violations = _check(log, codes)
            carry = (None if slices and strict and violations else codes, log.at[-1])
        second.send(carry)
        if slices and log.at and not (strict and violations):
            part = _replay(log, False, [(task, log.at[0], 0)], log.at[0], False)
        window_start = log.at[0] if log.at else None
        del log
        diagnostics, named, tail = second.result()
    diagnostics = head.diagnostics + diagnostics
    if not slices:
        return diagnostics, violations + tail
    if strict and (violations or tail.violations):
        raise ConsistencyError((violations or tail.violations)[0])
    if part is None:  # the first half held no event
        return diagnostics, _slice_set(Window(tail.bounds[0], tail.bounds[-1]), tail)
    return diagnostics, _slice_set(Window(window_start, tail.bounds[-1]), _join(part, tail, named))


def _join(head: _Part, tail: _Part, task: int) -> _Part:
    """One part of `head` and `tail`, the replay of the rest of the trace from
    head's stack with each start _SPANNING and each net counted from the cut.
    `task` is the task that head, holding no switch, charged as _UNKNOWN."""
    owners, bounds, runs, schedule_ins, violations, stack = head
    if stack[0][0] == _UNKNOWN:
        owners = array("q", [task if code == _UNKNOWN else code for code in owners])
        stack[0] = (task, *stack[0][1:])
    if owners and tail.owners and owners[-1] == tail.owners[0]:  # one slice spans the cut
        del tail.owners[0], tail.bounds[0]
    owners += tail.owners
    bounds += tail.bounds
    # Each run open at the cut ended in the tail, recorded there as
    # (_SPANNING, end, net since the cut).  Runs of one code are recorded as
    # they end, and the runs open at the cut end innermost first.
    found: dict[int, int] = {}
    empty = []
    for code, start, net in reversed(stack):
        triples = tail.runs[code]
        index = triples[0::3].index(_SPANNING, found.get(code, 0))
        found[code] = index + 1
        i = 3 * index
        if triples[i + 1] > start:
            triples[i] = start
            triples[i + 2] += net
        else:  # it ended where it started: no run
            empty.append((code, i))
    for code, i in reversed(empty):
        del tail.runs[code][i:i + 3]
        if not tail.runs[code]:
            del tail.runs[code]
    for code, triples in tail.runs.items():
        if code in runs:
            runs[code] += triples
        else:
            runs[code] = triples
    for new, ats in tail.schedule_ins.items():
        if new in schedule_ins:
            schedule_ins[new] += ats
        else:
            schedule_ins[new] = ats
    return _Part(owners, bounds, runs, schedule_ins, violations + tail.violations, [])
