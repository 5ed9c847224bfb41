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
    entity_of,
)

class ViolationKind(Enum):
    OLD_TASK_MISMATCH = "old_task_mismatch"
    IRQ_END_WITHOUT_BEGIN = "irq_end_without_begin"
    IRQ_END_ID_MISMATCH = "irq_end_id_mismatch"
    IRQ_OPEN_AT_TRACE_END = "irq_open_at_trace_end"


class ConsistencyViolation(NamedTuple):
    at: int
    kind: ViolationKind
    detail: str


def build_slices(log: EventLog, strict: bool = True) -> SliceSet:
    """Attribute every instant of the analysis window to exactly one entity.

    Strict mode raises ConsistencyError at the first event that contradicts
    the replayed state.  Lenient mode repairs and keeps going: a bad `old`
    field resyncs the current task to `new`, an unmatched IRQ end is dropped,
    and handlers still open at the end of the trace are closed at the window
    end; every repair is recorded as a diagnostic on the returned SliceSet.

    The slices are two columns: the entity code each charges, and the
    len(owners) + 1 times that bound them (see SliceSet).  ValueError if a
    task or IRQ id lies outside [0, IRQ_CODE), where codes would collide.
    """
    if not log.at:
        raise EmptyTraceError("cannot replay an empty event log")
    from sys import byteorder

    # the top byte of an id in [0, IRQ_CODE) is below 0x10, of a negative id 0x80 or more
    top = 7 if byteorder == "little" else 0
    for column in (log.a, log.b):
        if memoryview(column).cast("B")[top::8].tobytes().translate(None, bytes(range(16))):
            raise ValueError("task and IRQ ids must lie in [0, 2**60)")
    window = log.window
    violations: list[ConsistencyViolation] = []

    def violation(at, kind, detail):
        found = ConsistencyViolation(at, kind, detail)
        if strict:
            raise ConsistencyError(found)
        violations.append(found)

    owners = array("q")  # entity codes, see SliceSet
    bounds = array("q")
    runs: dict[int, array] = {}
    schedule_ins: defaultdict[int, list[int]] = defaultdict(list)

    # The innermost open entity: its code, the start of its run and the net us
    # charged to it in that run.  The window opens on the task running at its
    # start, `old` of the first switch seen; a task's code is its id.
    code = log.a[log.kind.index(SCHEDULE)] if SCHEDULE in log.kind else IDLE_TASK_ID
    start, net = window.start, 0
    # The same of each entity that open handlers interrupt, innermost last:
    # the task, then the handlers that enclose the innermost one.
    suspended: list[tuple[int, int, int]] = []
    owner = -1  # the code of the last slice, extended while the charge stays
    cursor = window.start

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
                    violation(
                        at,
                        ViolationKind.OLD_TASK_MISMATCH,
                        f"switch claims old task {a} but task {task} is current",
                    )
                if at > run_start:
                    new_runs[task] += run_start, at, run_net
                schedule_ins[b].append(at)
            elif kind == IRQ_END:  # a: IRQ id
                if not suspended:
                    violation(
                        at,
                        ViolationKind.IRQ_END_WITHOUT_BEGIN,
                        f"IRQ {a} ends but no handler is open",
                    )
                elif code != a + IRQ_CODE:
                    violation(
                        at,
                        ViolationKind.IRQ_END_ID_MISMATCH,
                        f"IRQ {a} ends but IRQ {code - IRQ_CODE} is innermost",
                    )
                else:
                    if at > start:
                        new_runs[code] += start, at, net
                    code, start, net = suspended.pop()
            else:  # IRQ_BEGIN, a: IRQ id
                suspended.append((code, start, net))
                code, start, net = a + IRQ_CODE, at, 0
        keep_chunk()

    # handlers still open close at the window end, innermost first; then the task
    while suspended:
        violation(
            window.end,
            ViolationKind.IRQ_OPEN_AT_TRACE_END,
            f"IRQ {code - IRQ_CODE} is still open at the end of the trace",
        )
        if window.end > start:
            new_runs[code] += start, window.end, net
        code, start, net = suspended.pop()
    if window.end > start:
        new_runs[code] += start, window.end, net
    keep_chunk()
    bounds.append(cursor)  # the window end

    # handed back as plain dicts, so a missing id raises KeyError
    ordered = dict(sorted(runs.items()))
    entities = list(map(entity_of, ordered))
    return SliceSet(window, owners, bounds, ordered, dict(schedule_ins), entities, violations)


def validate_consistency(log: EventLog) -> list[ConsistencyViolation]:
    """Report every violation a strict replay would hit.

    Returns an empty list exactly when build_slices(log, strict=True) would
    succeed; recovery between violations follows the lenient rules, because
    these are the repairs of a lenient replay.
    """
    if not log.at:
        return []
    return build_slices(log, strict=False).diagnostics
