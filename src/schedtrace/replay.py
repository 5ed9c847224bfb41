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
from functools import partial
from typing import NamedTuple

from .errors import ConsistencyError, EmptyTraceError
from .model import (
    IDLE_TASK_ID,
    IRQ_END,
    SCHEDULE,
    Entity,
    EntityKind,
    EventLog,
    SliceSet,
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

    The slices are two columns: the entity each charges, and the
    len(owners) + 1 times that bound them (see SliceSet).
    """
    if not log.at:
        raise EmptyTraceError("cannot replay an empty event log")
    window = log.window

    # the task running at the window start: `old` of the first switch seen
    current = log.a[log.kind.index(SCHEDULE)] if SCHEDULE in log.kind else IDLE_TASK_ID
    violations: list[ConsistencyViolation] = []

    def violation(at, kind, detail):
        found = ConsistencyViolation(at, kind, detail)
        if strict:
            raise ConsistencyError(found)
        violations.append(found)

    owners: list[Entity] = []
    bounds = array("q")
    task_runs: defaultdict[int, array] = defaultdict(partial(array, "q"))  # see SliceSet
    irq_runs: defaultdict[int, array] = defaultdict(partial(array, "q"))
    schedule_ins: defaultdict[int, list[int]] = defaultdict(list)

    # Interned Entity values: the last slice is extended while the charged
    # entity stays the same object.
    task_entities: dict[int, Entity] = {}
    irq_entities: dict[int, Entity] = {}
    current_entity = Entity(EntityKind.TASK, current)
    task_entities[current] = current_entity
    owner: Entity | None = None  # of the last slice
    cursor = window.start

    run_start = window.start
    run_net = 0
    # Open handler frames, innermost last:
    # [irq id, begin at, direct net us, handler entity].
    stack: list[list] = []

    for at, kind, a, b in zip(log.at, log.kind, log.a, log.b):
        if at > cursor:
            if stack:
                frame = stack[-1]
                frame[2] += at - cursor
                entity = frame[3]
            else:
                run_net += at - cursor
                entity = current_entity
            if entity is not owner:
                owners.append(entity)
                bounds.append(cursor)
                owner = entity
            cursor = at
        if kind == SCHEDULE:  # a: old task, b: new task
            if a != current:
                violation(
                    at,
                    ViolationKind.OLD_TASK_MISMATCH,
                    f"switch claims old task {a} but task {current} is current",
                )
            if at > run_start:
                task_runs[current].extend((run_start, at, run_net))
            current = b
            current_entity = task_entities.get(current)
            if current_entity is None:
                current_entity = Entity(EntityKind.TASK, current)
                task_entities[current] = current_entity
            run_start = at
            run_net = 0
            schedule_ins[current].append(at)
        elif kind == IRQ_END:  # a: IRQ id
            if not stack:
                violation(
                    at,
                    ViolationKind.IRQ_END_WITHOUT_BEGIN,
                    f"IRQ {a} ends but no handler is open",
                )
            elif stack[-1][0] != a:
                violation(
                    at,
                    ViolationKind.IRQ_END_ID_MISMATCH,
                    f"IRQ {a} ends but IRQ {stack[-1][0]} is innermost",
                )
            else:
                irq_id, begin, net, _ = stack.pop()
                if at > begin:
                    irq_runs[irq_id].extend((begin, at, net))
        else:  # IRQ_BEGIN, a: IRQ id
            entity = irq_entities.get(a)
            if entity is None:
                entity = irq_entities[a] = Entity(EntityKind.IRQ, a)
            stack.append([a, at, 0, entity])

    if window.end > run_start:
        task_runs[current].extend((run_start, window.end, run_net))
    while stack:
        irq_id, begin, net, _ = stack.pop()
        violation(
            window.end,
            ViolationKind.IRQ_OPEN_AT_TRACE_END,
            f"IRQ {irq_id} is still open at the end of the trace",
        )
        if window.end > begin:
            irq_runs[irq_id].extend((begin, window.end, net))
    bounds.append(cursor)  # the window end

    # handed back as plain dicts, so a missing id raises KeyError
    return SliceSet(
        window, owners, bounds, dict(task_runs), dict(irq_runs), dict(schedule_ins), violations
    )


def validate_consistency(log: EventLog) -> list[ConsistencyViolation]:
    """Report every violation a strict replay would hit.

    Returns an empty list exactly when build_slices(log, strict=True) would
    succeed; recovery between violations follows the lenient rules, because
    these are the repairs of a lenient replay.
    """
    if not log.at:
        return []
    return build_slices(log, strict=False).diagnostics
