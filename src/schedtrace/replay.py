"""Replay of an event log into execution slices.

Every microsecond between two consecutive events is charged to exactly one
entity: the innermost open IRQ handler if any, otherwise the scheduled task.
Interrupt time is thereby subtracted from the interrupted task, and from
enclosing handlers when interrupts nest.  The analysis window runs from the
first event to the last, so partially observed executions at either edge are
truncated to what the trace shows.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from typing import NamedTuple

from .errors import ConsistencyError, EmptyTraceError
from .model import (
    Entity,
    EntityKind,
    EventLog,
    ExecutionSlice,
    IDLE_TASK_ID,
    Run,
    SliceSet,
    TaskSchedule,
    IrqEnd,
    Window,
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


def _initial_task(events) -> int:
    """The task running at the window start: `old` of the first switch seen."""
    for ev in events:
        if type(ev) is TaskSchedule:
            return ev.old
    return IDLE_TASK_ID


def build_slices(log: EventLog, strict: bool = True) -> SliceSet:
    """Attribute every instant of the analysis window to exactly one entity.

    Strict mode raises ConsistencyError at the first event that contradicts
    the replayed state.  Lenient mode repairs and keeps going: a bad `old`
    field resyncs the current task to `new`, an unmatched IRQ end is dropped,
    and handlers still open at the end of the trace are closed at the window
    end; every repair is recorded as a diagnostic on the returned SliceSet.
    """
    events = log.events
    if not events:
        raise EmptyTraceError("cannot replay an empty event log")
    window = Window(events[0].at, events[-1].at)

    current = _initial_task(events)
    violations: list[ConsistencyViolation] = []

    def violation(at, kind, detail):
        found = ConsistencyViolation(at, kind, detail)
        if strict:
            raise ConsistencyError(found)
        violations.append(found)

    slices: list[ExecutionSlice] = []
    task_runs: defaultdict[int, list[Run]] = defaultdict(list)
    irq_runs: defaultdict[int, list[Run]] = defaultdict(list)
    schedule_ins: defaultdict[int, list[int]] = defaultdict(list)

    # Interned Entity values: the open slice is extended while the charged
    # entity stays the same object.
    task_entities: dict[int, Entity] = {}
    irq_entities: dict[int, Entity] = {}
    current_entity = Entity(EntityKind.TASK, current)
    task_entities[current] = current_entity
    pend_entity: Entity | None = None
    pend_start = cursor = window.start

    run_start = window.start
    run_net = 0
    # Open handler frames, innermost last:
    # [irq id, begin at, direct net us, handler entity].
    stack: list[list] = []
    tuple_new = tuple.__new__  # see the note above ExecutionSlice

    for ev in events:
        at = ev.at
        if at > cursor:
            if stack:
                frame = stack[-1]
                frame[2] += at - cursor
                entity = frame[3]
            else:
                run_net += at - cursor
                entity = current_entity
            if entity is not pend_entity:
                if pend_entity is not None:
                    pending = (pend_entity, pend_start, cursor)
                    slices.append(tuple_new(ExecutionSlice, pending))
                pend_entity = entity
                pend_start = cursor
            cursor = at
        kind = type(ev)
        if kind is TaskSchedule:
            if ev.old != current:
                violation(
                    at,
                    ViolationKind.OLD_TASK_MISMATCH,
                    f"switch claims old task {ev.old} but task {current} is current",
                )
            if at > run_start:
                task_runs[current].append(tuple_new(Run, (run_start, at, run_net)))
            current = ev.new
            current_entity = task_entities.get(current)
            if current_entity is None:
                current_entity = Entity(EntityKind.TASK, current)
                task_entities[current] = current_entity
            run_start = at
            run_net = 0
            schedule_ins[current].append(at)
        elif kind is IrqEnd:
            if not stack:
                violation(
                    at,
                    ViolationKind.IRQ_END_WITHOUT_BEGIN,
                    f"IRQ {ev.irq} ends but no handler is open",
                )
            elif stack[-1][0] != ev.irq:
                violation(
                    at,
                    ViolationKind.IRQ_END_ID_MISMATCH,
                    f"IRQ {ev.irq} ends but IRQ {stack[-1][0]} is innermost",
                )
            else:
                irq_id, begin, net, _ = stack.pop()
                if at > begin:
                    irq_runs[irq_id].append(tuple_new(Run, (begin, at, net)))
        else:  # IrqBegin
            irq_id = ev.irq
            entity = irq_entities.get(irq_id)
            if entity is None:
                entity = irq_entities[irq_id] = Entity(EntityKind.IRQ, irq_id)
            stack.append([irq_id, at, 0, entity])

    if window.end > run_start:
        task_runs[current].append(tuple_new(Run, (run_start, window.end, run_net)))
    while stack:
        irq_id, begin, net, _ = stack.pop()
        violation(
            window.end,
            ViolationKind.IRQ_OPEN_AT_TRACE_END,
            f"IRQ {irq_id} is still open at the end of the trace",
        )
        if window.end > begin:
            irq_runs[irq_id].append(tuple_new(Run, (begin, window.end, net)))
    if pend_entity is not None:
        slices.append(tuple_new(ExecutionSlice, (pend_entity, pend_start, cursor)))

    # handed back as plain dicts, so a missing id raises KeyError
    return SliceSet(
        window, slices, dict(task_runs), dict(irq_runs), dict(schedule_ins), violations
    )


def validate_consistency(log: EventLog) -> list[ConsistencyViolation]:
    """Report every violation a strict replay would hit.

    Returns an empty list exactly when build_slices(log, strict=True) would
    succeed; recovery between violations follows the lenient rules, because
    these are the repairs of a lenient replay.
    """
    if not log.events:
        return []
    return build_slices(log, strict=False).diagnostics
