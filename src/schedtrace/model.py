"""Core domain types for scheduler/interrupt trace analysis.

All time values are integer microseconds on the trace clock; time accounting
never goes through floating point, so conservation checks can be exact.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from enum import IntEnum
from typing import TYPE_CHECKING, NamedTuple, Union

from .errors import TimestampRangeError

if TYPE_CHECKING:  # only for annotations; avoids runtime import cycles
    from .replay import ConsistencyViolation
    from .tracefile import ParseDiagnostic

US_PER_MS = 1_000
US_PER_SECOND = 1_000_000
US_PER_MINUTE = 60 * US_PER_SECOND
US_PER_HOUR = 60 * US_PER_MINUTE

# The timestamp carries a 4-digit hour field, which caps what the format can
# express: parsing and writing accept the same range.
MAX_TIMESTAMP_US = 10_000 * US_PER_HOUR - 1

IDLE_TASK_ID = 0


def timestamp_from_fields(hours, minutes, seconds, ms, us):
    """Combine clock fields into integer microseconds.

    Raises TimestampRangeError when a field is negative, when hours exceed
    9999 or when minutes, seconds, milliseconds or microseconds exceed their
    carrying range.
    """
    if hours >= 10_000 or minutes >= 60 or seconds >= 60 or ms >= 1000 or us >= 1000:
        raise TimestampRangeError(
            f"timestamp field out of range: {hours}h {minutes}m {seconds}s {ms} {us}"
        )
    if hours < 0 or minutes < 0 or seconds < 0 or ms < 0 or us < 0:
        raise TimestampRangeError("timestamp fields must be non-negative")
    return ((hours * 60 + minutes) * 60 + seconds) * US_PER_SECOND + ms * US_PER_MS + us


def format_timestamp(t: int) -> str:
    """Render microseconds in the trace file layout, e.g. '0000h 00m 01s 290 602'."""
    if not 0 <= t <= MAX_TIMESTAMP_US:
        raise TimestampRangeError(
            f"timestamp {t} us does not fit the 4-digit-hour trace format"
        )
    hours, rem = divmod(t, US_PER_HOUR)
    minutes, rem = divmod(rem, US_PER_MINUTE)
    seconds, rem = divmod(rem, US_PER_SECOND)
    ms, us = divmod(rem, US_PER_MS)
    return f"{hours:04d}h {minutes:02d}m {seconds:02d}s {ms:03d} {us:03d}"


class EntityKind(IntEnum):
    """What an execution entity is: a scheduled task or an interrupt handler.

    Task ids and IRQ ids live in disjoint namespaces; task 0 is the processor
    idle account, an ordinary task as far as accounting is concerned.
    """

    TASK = 0
    IRQ = 1


class Entity(NamedTuple):
    kind: EntityKind
    id: int

    @property
    def kind_name(self) -> str:
        return "task" if self.kind is EntityKind.TASK else "irq"

    @property
    def label(self) -> str:
        if self.kind is EntityKind.TASK:
            if self.id == IDLE_TASK_ID:
                return "task 0 (idle)"
            return f"task {self.id}"
        return f"irq {self.id}"

    @classmethod
    def task(cls, task_id: int) -> "Entity":
        return cls(EntityKind.TASK, task_id)

    @classmethod
    def irq(cls, irq_id: int) -> "Entity":
        return cls(EntityKind.IRQ, irq_id)


IDLE = Entity(EntityKind.TASK, IDLE_TASK_ID)

IRQ_CODE = 1 << 60  # an IRQ's entity code is its id plus this; a task's is its id


def entity_of(code: int) -> Entity:
    """The Entity of an entity code.  Ids lie in [0, IRQ_CODE), so codes sort
    as entities do: tasks first, then IRQs, ids ascending."""
    if code < IRQ_CODE:
        return Entity(EntityKind.TASK, code)
    return Entity(EntityKind.IRQ, code - IRQ_CODE)


class TaskSchedule(NamedTuple):
    """Context switch: the scheduler replaces task `old` with task `new`."""

    at: int
    old: int
    new: int


class IrqBegin(NamedTuple):
    at: int
    irq: int


class IrqEnd(NamedTuple):
    at: int
    irq: int


TraceEvent = Union[TaskSchedule, IrqBegin, IrqEnd]

SCHEDULE, IRQ_BEGIN, IRQ_END = range(3)  # the codes of EventLog.kind


class Window(NamedTuple):
    """Analysis window: the closed span from the first to the last event."""

    start: int
    end: int

    @property
    def duration_us(self) -> int:
        return self.end - self.start


class ExecutionSlice(NamedTuple):
    """Maximal interval [start, end) charging the processor to one entity."""

    entity: Entity
    start: int
    end: int


class Run(NamedTuple):
    """One contiguous scheduled run of a task, or one IRQ invocation.

    `net_us` excludes time consumed by handlers nested strictly inside, so a
    task's run net is its dispatch execution time and an IRQ's run net is its
    own handler time.
    """

    start: int
    end: int
    net_us: int


def _event(at: int, kind: int, a: int, b: int) -> TraceEvent:
    if kind == SCHEDULE:
        return TaskSchedule(at, a, b)
    return (IrqBegin if kind == IRQ_BEGIN else IrqEnd)(at, a)


class ColumnView(Sequence):
    """Rows over parallel columns, read-only: row i is built from the columns'
    i-th values when it is read.  It equals, and slices as, the list of its rows."""

    def __init__(self, row, *columns):
        self.row = row
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(self.row, *(column[index] for column in self.columns)))
        return self.row(*[column[index] for column in self.columns])

    def __iter__(self):
        return map(self.row, *self.columns)

    def __eq__(self, other):
        return isinstance(other, (ColumnView, list)) and list(self) == list(other)


def tiling(row, labels, bounds: array) -> ColumnView:
    """The rows (labels[i], bounds[i], bounds[i + 1]) of spans that tile, each
    starting where the one before it ends: len(labels) + 1 bounds."""
    edges = memoryview(bounds)
    return ColumnView(row, labels, edges[:-1], edges[1:])


class EventLog(NamedTuple):
    """Parsed trace: events in file order with non-decreasing timestamps.

    Event i is at[i], kind[i] (SCHEDULE, IRQ_BEGIN or IRQ_END), a[i] (the
    old task or the IRQ id) and b[i] (the new task, 0 for an IRQ event), in
    four array('q') columns.
    """

    at: array
    kind: array
    a: array
    b: array
    diagnostics: Sequence["ParseDiagnostic"] = ()

    @property
    def events(self) -> ColumnView:
        return ColumnView(_event, self.at, self.kind, self.a, self.b)

    @property
    def window(self) -> Window:
        return Window(self.at[0], self.at[-1])


def _slice(code: int, start: int, end: int) -> ExecutionSlice:
    return ExecutionSlice(entity_of(code), start, end)


def _run_view(triples: array) -> ColumnView:
    return ColumnView(Run, triples[0::3], triples[1::3], triples[2::3])


class SliceSet(NamedTuple):
    """Complete attribution of an analysis window to execution entities.

    Slices are pairwise disjoint, time ordered, and tile
    [window.start, window.end) exactly: slice i charges the entity code
    owners[i] from bounds[i] to bounds[i + 1], and `slices` builds each
    ExecutionSlice when it is read.  Dispatch and invocation runs carry the
    sample boundaries of the statistics reports: `runs` maps the code of each
    entity that ran, in code order, to an array('q') of (start, end, net_us)
    triples, and `entities` lists the Entity of each of those codes in the
    same order, for the reports to share.  `task_runs` and `irq_runs` build
    on each access, by numeric id, a read-only sequence of Run over each,
    whose `columns` are those three.
    """

    window: Window
    owners: array
    bounds: array
    runs: dict[int, array]
    schedule_ins: dict[int, list[int]]
    entities: list[Entity]
    diagnostics: Sequence["ConsistencyViolation"] = ()

    @property
    def slices(self) -> ColumnView:
        return tiling(_slice, self.owners, self.bounds)

    @property
    def task_runs(self) -> dict[int, ColumnView]:
        return {code: _run_view(t) for code, t in self.runs.items() if code < IRQ_CODE}

    @property
    def irq_runs(self) -> dict[int, ColumnView]:
        return {code - IRQ_CODE: _run_view(t) for code, t in self.runs.items() if code >= IRQ_CODE}

    def net_times(self) -> dict[Entity, int]:
        """Net charged time per entity; sums exactly to the window duration."""
        return {entity_of(code): sum(t[2::3]) for code, t in self.runs.items()}
