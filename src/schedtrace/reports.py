"""The four analysis reports and their text/csv/json rendering.

Reports are plain values computed from a SliceSet: average processor load,
slotted processor utilization, per-entity task statistics, and per-entity
execution timelines.  Rendering is deterministic: entities are ordered tasks
first then IRQs, ids ascending, and slots/segments in time order.  Times stay
integer microseconds in csv and json; text output adds human-scaled
durations.  Fractions are printed with six decimal places.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .errors import EmptyWindowError
from .model import (
    Entity,
    EntityKind,
    IDLE,
    Run,
    SliceSet,
    Window,
    format_timestamp,
)
from .stats import (
    ExponentialFit,
    Histogram,
    SampleSummary,
    UniformFit,
    fit_exponential,
    fit_uniform,
    histogram,
    summarize,
)

RUNNING = "running"
PREEMPTED_BY_IRQ = "preempted_by_irq"
INACTIVE = "inactive"
ACTIVE = "active"

TEXT, CSV, JSON = "text", "csv", "json"
FORMATS = (TEXT, CSV, JSON)


# ---------------------------------------------------------------------------
# report values


@dataclass(frozen=True)
class LoadRow:
    entity: Entity
    net_us: int
    utilization: float


@dataclass(frozen=True)
class LoadReport:
    window: Window
    rows: list[LoadRow]
    idle_fraction: float


@dataclass(frozen=True)
class UtilizationSlot:
    start_us: int
    span_us: int
    partial: bool
    fractions: list[tuple[Entity, float]]


@dataclass(frozen=True)
class UtilizationReport:
    window: Window
    view: Window
    slot_width_us: int
    slots: list[UtilizationSlot]


@dataclass(frozen=True)
class SeriesStats:
    """Summary, histogram and fits for one sample series (executions or periods)."""

    summary: SampleSummary
    histogram: Histogram
    exponential: ExponentialFit | None
    uniform: UniformFit
    notes: list[str]


@dataclass(frozen=True)
class EntityStats:
    entity: Entity
    net_us: int
    share: float
    dispatches: int
    execution: SeriesStats
    period: SeriesStats | None


@dataclass(frozen=True)
class StatsReport:
    window: Window
    bins: int
    rows: list[EntityStats]


class TimelineSegment(NamedTuple):
    state: str
    start_us: int
    end_us: int


@dataclass(frozen=True)
class EntityTimeline:
    entity: Entity
    segments: list[TimelineSegment]


@dataclass(frozen=True)
class TimelineReport:
    window: Window
    view: Window
    entities: list[EntityTimeline]


Report = LoadReport | UtilizationReport | StatsReport | TimelineReport


# ---------------------------------------------------------------------------
# computations


def _clip_view(view, window: Window) -> Window:
    if view is None:
        clipped = window
    else:
        start, end = view
        clipped = Window(max(start, window.start), min(end, window.end))
    if clipped.duration_us <= 0:
        raise EmptyWindowError(
            f"no time to analyze in [{clipped.start}, {clipped.end}] us"
        )
    return clipped


def average_load(s: SliceSet) -> LoadReport:
    """Net time and fraction of the window per entity; idle is task 0's share."""
    duration = _clip_view(None, s.window).duration_us
    nets = s.net_times()
    rows = [
        LoadRow(entity, net, net / duration)
        for entity, net in sorted(nets.items())
        if net > 0
    ]
    idle = next((r.utilization for r in rows if r.entity == IDLE), 0.0)
    return LoadReport(s.window, rows, idle)


def utilization(
    s: SliceSet, slot_width_us: int = 100_000, view=None
) -> UtilizationReport:
    """Per-entity utilization over consecutive time slots.

    Slots start at the view start and are slot_width_us wide; a final slot
    cut short by the view end is normalized by its actual span and flagged
    partial.  Entities with no charge inside a slot are omitted from it.
    """
    if slot_width_us < 1:
        raise ValueError("slot width must be at least 1 us")
    clipped = _clip_view(view, s.window)
    view_start, view_end = clipped
    width = slot_width_us
    slots: list[UtilizationSlot] = []
    acc: dict[Entity, int] = {}  # the open slot's charge per entity
    slot_start = view_start
    slot_end = min(view_start + width, view_end)
    slices = s.slices
    first = bisect_right(slices, view_start, key=itemgetter(2))
    entity, a, b = slices[first]
    head = (entity, max(a, view_start), b)  # it may start before the view
    # Slices tile the window in time order.  One walk charges each into the
    # open slot; a slice reaching the slot's end closes that slot and each
    # later slot it covers whole.  The walk ends when the last slot closes.
    for entity, a, b in chain((head,), islice(slices, first + 1, None)):
        if b < slot_end:
            acc[entity] = acc.get(entity, 0) + (b - a)
            continue
        while b >= slot_end:
            acc[entity] = acc.get(entity, 0) + (slot_end - a)
            span = slot_end - slot_start
            fractions = [(e, us / span) for e, us in sorted(acc.items())]
            slots.append(UtilizationSlot(slot_start, span, span < width, fractions))
            if slot_end == view_end:
                return UtilizationReport(s.window, clipped, width, slots)
            acc.clear()
            a = slot_start = slot_end
            slot_end = min(slot_end + width, view_end)
        if a < b:
            acc[entity] = b - a


def _series(samples: list[int], bins: int) -> SeriesStats:
    notes: list[str] = []
    positives = [x for x in samples if x > 0]
    if len(positives) < len(samples):
        dropped = len(samples) - len(positives)
        notes.append(f"{dropped} zero sample(s) excluded from the exponential fit")
    exponential = fit_exponential(positives) if positives else None
    if exponential is None:
        notes.append("exponential fit skipped: no positive samples")
    return SeriesStats(
        summarize(samples), histogram(samples, bins), exponential, fit_uniform(samples), notes
    )


def task_statistics(s: SliceSet, bins: int = 20) -> StatsReport:
    """Execution-time and period statistics per entity.

    Execution samples are per dispatch for tasks (net of interrupt time) and
    per invocation for IRQ handlers (net of nested handlers).  Period samples
    are the deltas between successive schedule-ins of a task; a task seen
    scheduled in fewer than twice has no period section.
    """
    duration = _clip_view(None, s.window).duration_us
    rows = []
    for entity in s.entities():
        if entity.kind is EntityKind.TASK:
            runs = s.task_runs[entity.id]
        else:
            runs = s.irq_runs[entity.id]
        samples = [r.net_us for r in runs]
        net = sum(samples)
        period = None
        if entity.kind is EntityKind.TASK:
            ins = s.schedule_ins.get(entity.id, ())
            if len(ins) >= 2:
                deltas = [b - a for a, b in zip(ins, ins[1:])]
                period = _series(deltas, bins)
        rows.append(
            EntityStats(
                entity, net, net / duration, len(runs), _series(samples, bins), period
            )
        )
    return StatsReport(s.window, bins, rows)


def _segments(states: list[str], bounds: list[int]) -> list[TimelineSegment]:
    # Segments tile the view, so a timeline is kept as its states plus the
    # boundaries between them.  On tuple.__new__ see the note above
    # model.ExecutionSlice.
    rows = zip(states, bounds, bounds[1:])
    return list(map(tuple.__new__, repeat(TimelineSegment), rows))


def _task_timelines(s: SliceSet, view: Window) -> dict[int, list[TimelineSegment]]:
    # One pass over the slices, walking the runs of all tasks in time order:
    # the runs tile the window, and inside a run the task's own slices are
    # running time and every other slice is irq time.  A state equal to the
    # previous one extends its segment.
    view_start, view_end = view
    runs = sorted(
        (run.start, run.end, tid)
        for tid, task_runs in s.task_runs.items()
        for run in task_runs
    )
    tracks = {
        tid: (Entity(EntityKind.TASK, tid), [], [view_start]) for tid in s.task_runs
    }
    slices = s.slices
    i = bisect_right(slices, view_start, key=itemgetter(1)) - 1
    for a, b, tid in runs:
        if a < view_start:
            a = view_start
        if b > view_end:
            b = view_end
        if a >= b:
            continue
        entity, states, bounds = tracks[tid]
        if a > bounds[-1]:
            states.append(INACTIVE)
            bounds.append(a)
        last = states[-1] if states else None
        while True:
            owner, _, end = slices[i]
            if end > b:
                end = b  # the slice goes on into the next run
            else:
                i += 1
            state = RUNNING if owner == entity else PREEMPTED_BY_IRQ
            if state is last:
                bounds[-1] = end
            else:
                states.append(state)
                bounds.append(end)
                last = state
            if end == b:
                break
    timelines = {}
    for tid, (_, states, bounds) in tracks.items():
        if bounds[-1] < view_end:
            states.append(INACTIVE)
            bounds.append(view_end)
        timelines[tid] = _segments(states, bounds)
    return timelines


def _irq_timeline(runs: list[Run], view: Window) -> list[TimelineSegment]:
    # Same-id invocations may overlap when a handler nests within itself, and
    # the replay records them in pop order, so take the union of the spans.
    view_start, view_end = view
    states: list[str] = []
    bounds = [view_start]
    for run_start, run_end, _ in sorted(runs):
        a = run_start if run_start > view_start else view_start
        b = run_end if run_end < view_end else view_end
        covered = bounds[-1]
        if b <= covered or b <= a:
            continue
        if a > covered:
            states.append(INACTIVE)
            bounds.append(a)
        elif states:  # touches or overlaps the active span before it
            bounds[-1] = b
            continue
        states.append(ACTIVE)
        bounds.append(b)
    if bounds[-1] < view_end:
        states.append(INACTIVE)
        bounds.append(view_end)
    return _segments(states, bounds)


def timeline(s: SliceSet, view=None) -> TimelineReport:
    """Per-entity state segments tiling the view.

    Task states are running / preempted_by_irq / inactive; IRQ states are
    active / inactive (a handler is active while anywhere on the IRQ stack,
    nested handlers included).  Every entity active anywhere in the window is
    listed, even if it never runs inside a zoomed view.
    """
    clipped = _clip_view(view, s.window)
    task_timelines = _task_timelines(s, clipped)
    entities = []
    for entity in s.entities():
        if entity.kind is EntityKind.TASK:
            segments = task_timelines[entity.id]
        else:
            segments = _irq_timeline(s.irq_runs[entity.id], clipped)
        entities.append(EntityTimeline(entity, segments))
    return TimelineReport(s.window, clipped, entities)


# ---------------------------------------------------------------------------
# rendering helpers


def human_duration(us) -> str:
    """Scale a microsecond duration for human reading (us / ms / s)."""
    if us < 1_000:
        if isinstance(us, float):
            return f"{us:.3f} us"
        return f"{us} us"
    if us < 1_000_000:
        return f"{us / 1_000:.3f} ms"
    return f"{us / 1_000_000:.3f} s"


def _frac(x: float) -> str:
    return f"{x:.6f}"


def _num(x) -> str:
    # csv/json numbers: integers stay integers, floats keep full precision
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _table(header: list[str], rows: list[list[str]], align: str) -> list[str]:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            if len(cell) > widths[i]:
                widths[i] = len(cell)
    lines = []
    for row in [header] + rows:
        cells = []
        for i, cell in enumerate(row):
            if align[i] == "r":
                cells.append(cell.rjust(widths[i]))
            else:
                cells.append(cell.ljust(widths[i]))
        lines.append(("  " + "  ".join(cells)).rstrip())
    return lines


def _span_text(us: int) -> str:
    human = human_duration(us)
    if human == f"{us} us":
        return human
    return f"{human} ({us} us)"


def _head(title: str, window: Window, *extra: str) -> list[str]:
    """A text report's title and window block, then its own extra lines."""
    return [
        title,
        f"  window  {format_timestamp(window.start)} .. {format_timestamp(window.end)}",
        f"  span    {_span_text(window.duration_us)}",
        *extra,
    ]


def _bins(h: Histogram):
    """(lower edge, upper edge, count) per histogram bin."""
    return zip(h.edges, h.edges[1:], h.counts)


def _join(lines: list[str]) -> str:
    lines.append("")  # every rendered document ends with a newline
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# load report rendering


def _load_text(report: LoadReport) -> list[str]:
    lines = _head("Average processor load", report.window, "")
    rows = [
        [row.entity.label, f"{row.net_us} us", _frac(row.utilization)]
        for row in report.rows
    ]
    total_net = sum(row.net_us for row in report.rows)
    total_frac = sum(row.utilization for row in report.rows)
    rows.append(["total", f"{total_net} us", _frac(total_frac)])
    lines += _table(["entity", "net time", "utilization"], rows, "lrr")
    lines.append("")
    lines.append(f"  idle fraction  {_frac(report.idle_fraction)}")
    return lines


def _load_csv(report: LoadReport) -> list[str]:
    lines = ["entity,kind,net_us,utilization"]
    for row in report.rows:
        lines.append(
            f"{row.entity.id},{row.entity.kind_name},{row.net_us},{_frac(row.utilization)}"
        )
    return lines


# ---------------------------------------------------------------------------
# utilization report rendering


def _utilization_text(report: UtilizationReport) -> list[str]:
    lines = _head(
        "Processor utilization",
        report.window,
        f"  view    {report.view.start} .. {report.view.end} us",
        f"  slot    {report.slot_width_us} us",
        "",
    )
    rows = []
    for slot in report.slots:
        cells = [str(slot.start_us), str(slot.span_us), "partial" if slot.partial else ""]
        for entity, fraction in slot.fractions:
            rows.append([*cells, entity.label, _frac(fraction)])
    lines += _table(
        ["slot_start_us", "span_us", "note", "entity", "fraction"], rows, "rrllr"
    )
    return lines


def _utilization_csv(report: UtilizationReport) -> list[str]:
    lines = ["slot_start_us,slot_span_us,entity,kind,fraction"]
    for slot in report.slots:
        for entity, fraction in slot.fractions:
            lines.append(
                f"{slot.start_us},{slot.span_us},{entity.id},{entity.kind_name},{_frac(fraction)}"
            )
    return lines


# ---------------------------------------------------------------------------
# stats report rendering


def _series_text(title: str, series: SeriesStats) -> list[str]:
    s = series.summary
    lines = [f"    {title}:"]
    lines.append(f"      samples        {s.count}")
    lines.append(f"      minimum        {human_duration(s.minimum)}")
    lines.append(f"      worst case     {human_duration(s.maximum)}")
    lines.append(f"      average        {human_duration(s.mean)}")
    if series.exponential is not None:
        e = series.exponential
        lines.append(
            f"      exponential    rate {e.rate_per_us:.6g} /us"
            f"   log-likelihood {e.log_likelihood:.6g}   ks {_frac(e.ks)}"
        )
    u = series.uniform
    lines.append(
        f"      uniform        [{_num(u.lower)}, {_num(u.upper)}] us   ks {_frac(u.ks)}"
    )
    for lo, hi, count in _bins(series.histogram):
        lines.append(f"      bin            [{_num(lo)}, {_num(hi)}): {count}")
    for note in series.notes:
        lines.append(f"      note           {note}")
    return lines


def _stats_text(report: StatsReport) -> list[str]:
    lines = _head("Task statistics", report.window, f"  bins    {report.bins}")
    for row in report.rows:
        lines.append("")
        lines.append(f"  {row.entity.label}")
        lines.append(f"    utilization    {_frac(row.share)}")
        lines.append(f"    net time       {_span_text(row.net_us)}")
        lines.append(f"    dispatches     {row.dispatches}")
        lines += _series_text("execution time", row.execution)
        if row.period is not None:
            lines += _series_text("period", row.period)
    return lines


def _stats_csv(report: StatsReport) -> list[str]:
    lines = [
        "entity,kind,share,dispatches,min_us,max_us,mean_us,"
        "exp_rate_per_us,exp_ks,uni_lower_us,uni_upper_us,uni_ks"
    ]
    for row in report.rows:
        s = row.execution.summary
        if row.execution.exponential is not None:
            e = row.execution.exponential
            exp_rate, exp_ks = _num(e.rate_per_us), _frac(e.ks)
        else:
            exp_rate, exp_ks = "", ""
        u = row.execution.uniform
        lines.append(
            f"{row.entity.id},{row.entity.kind_name},{_frac(row.share)},{row.dispatches},"
            f"{_num(s.minimum)},{_num(s.maximum)},{_num(s.mean)},"
            f"{exp_rate},{exp_ks},{_num(u.lower)},{_num(u.upper)},{_frac(u.ks)}"
        )
    return lines


def render_stats_histograms_csv(report: StatsReport) -> str:
    """The histogram companion table to the stats csv, one row per bin."""
    lines = ["entity,kind,series,bin_lower,bin_upper,count"]
    for row in report.rows:
        for name, series in (("exec", row.execution), ("period", row.period)):
            if series is None:
                continue
            for lo, hi, count in _bins(series.histogram):
                lines.append(
                    f"{row.entity.id},{row.entity.kind_name},{name},"
                    f"{_num(lo)},{_num(hi)},{count}"
                )
    return _join(lines)


# ---------------------------------------------------------------------------
# timeline report rendering


def _timeline_text(report: TimelineReport) -> list[str]:
    lines = _head(
        "Task execution timeline",
        report.window,
        f"  view    {report.view.start} .. {report.view.end} us",
        "",
    )
    label_w = max((len(e.entity.label) for e in report.entities), default=6)
    ts_w = len(str(report.view.end))
    header = (
        f"  {'entity'.ljust(label_w)}  {'state'.ljust(16)}  "
        f"{'start_us'.rjust(ts_w)}  {'end_us'.rjust(ts_w)}  duration"
    )
    lines.append(header.rstrip())
    durations: dict[int, str] = {}  # rows repeat few distinct durations
    for ent in report.entities:
        prefix = "  " + ent.entity.label.ljust(label_w) + "  "
        heads = {}
        # segments tile the view, so a line's padded end_us is usually the
        # next line's start_us
        prev_end = prev_text = None
        for state, a, b in ent.segments:
            head = heads.get(state)
            if head is None:
                head = heads[state] = prefix + state.ljust(16) + "  "
            a_text = prev_text if a == prev_end else str(a).rjust(ts_w)
            b_text = str(b).rjust(ts_w)
            d = b - a
            dur = durations.get(d)
            if dur is None:
                dur = durations[d] = human_duration(d)
            lines.append(f"{head}{a_text}  {b_text}  {dur}")
            prev_end = b
            prev_text = b_text
    return lines


def _timeline_csv(report: TimelineReport) -> list[str]:
    lines = ["entity,kind,state,start_us,end_us"]
    for ent in report.entities:
        eid = ent.entity.id
        kind = ent.entity.kind_name
        for seg in ent.segments:
            lines.append(f"{eid},{kind},{seg.state},{seg.start_us},{seg.end_us}")
    return lines


# ---------------------------------------------------------------------------
# json


def _entity(kind: str, entity_id: int) -> Entity:
    return Entity(EntityKind.TASK if kind == "task" else EntityKind.IRQ, entity_id)


# The json schema.  Each value type maps to the function that rebuilds it
# from its fields in table order, and to its fields in json key order.  A
# field is (json key, attribute or tuple index, nested type); the nested
# type is left out for a plain value, and a bare name stands for a plain
# value whose key and attribute agree.  A nested type in a list stands for
# a list of that type, and a None key merges the nested object's keys into
# its parent's.  Missing optional values are null.
_FRACTION = "entity fraction"  # the (entity, fraction) pairs of a slot
_JSON_TABLE = {
    Window: (Window, (("start_us", "start"), ("end_us", "end"))),
    Entity: (_entity, (("kind", "kind_name"), "id")),
    LoadRow: (LoadRow, ((None, "entity", Entity), "net_us", "utilization")),
    LoadReport: (
        lambda window, idle, rows: LoadReport(window, rows, idle),
        (("window", "window", Window), "idle_fraction", ("entities", "rows", [LoadRow])),
    ),
    _FRACTION: (
        lambda entity, fraction: (entity, fraction),
        ((None, 0, Entity), ("fraction", 1)),
    ),
    UtilizationSlot: (
        UtilizationSlot,
        ("start_us", "span_us", "partial", ("entities", "fractions", [_FRACTION])),
    ),
    UtilizationReport: (
        UtilizationReport,
        (
            ("window", "window", Window),
            ("view", "view", Window),
            "slot_width_us",
            ("slots", "slots", [UtilizationSlot]),
        ),
    ),
    SampleSummary: (
        SampleSummary,
        (
            "count",
            ("total_us", "total"),
            ("min_us", "minimum"),
            ("max_us", "maximum"),
            ("mean_us", "mean"),
        ),
    ),
    Histogram: (Histogram, ("edges", "counts")),
    ExponentialFit: (ExponentialFit, ("rate_per_us", "log_likelihood", "ks")),
    UniformFit: (UniformFit, (("lower_us", "lower"), ("upper_us", "upper"), "ks")),
    SeriesStats: (
        SeriesStats,
        (
            ("summary", "summary", SampleSummary),
            ("histogram", "histogram", Histogram),
            ("exponential", "exponential", ExponentialFit),
            ("uniform", "uniform", UniformFit),
            "notes",
        ),
    ),
    EntityStats: (
        EntityStats,
        (
            (None, "entity", Entity),
            "net_us",
            "share",
            "dispatches",
            ("execution", "execution", SeriesStats),
            ("period", "period", SeriesStats),
        ),
    ),
    StatsReport: (
        StatsReport,
        (("window", "window", Window), "bins", ("entities", "rows", [EntityStats])),
    ),
    TimelineSegment: (TimelineSegment, ("state", "start_us", "end_us")),
    EntityTimeline: (
        EntityTimeline,
        ((None, "entity", Entity), ("segments", "segments", [TimelineSegment])),
    ),
    TimelineReport: (
        TimelineReport,
        (
            ("window", "window", Window),
            ("view", "view", Window),
            ("entities", "entities", [EntityTimeline]),
        ),
    ),
}

# Each report's json opens with its name and its units.
_JSON_REPORTS = {
    LoadReport: ("load", {"time": "us", "utilization": "fraction"}),
    UtilizationReport: ("utilization", {"time": "us", "utilization": "fraction"}),
    StatsReport: ("stats", {"time": "us", "share": "fraction"}),
    TimelineReport: ("timeline", {"time": "us"}),
}


def _json_fields(cls):
    """(key, getter, nested type, is list) per field of a table entry."""
    fields = []
    for field in _JSON_TABLE[cls][1]:
        if isinstance(field, str):
            field = (field, field)
        key, attr, nested = field if len(field) == 3 else (*field, None)
        getter = attrgetter(attr) if isinstance(attr, str) else itemgetter(attr)
        many = isinstance(nested, list)
        fields.append((key, getter, nested[0] if many else nested, many))
    return fields


_JSON_FIELDS = {cls: _json_fields(cls) for cls in _JSON_TABLE}
# Keys of the tuple types whose json fields are their own, in order: a list
# of them, such as a timeline's hundreds of thousands of segments, is dumped
# with zip, in about two thirds of the field loop's time.
_JSON_TUPLE_KEYS = {
    cls: fields for cls, (_, fields) in _JSON_TABLE.items()
    if fields == getattr(cls, "_fields", None)
}


def _dump(value, cls, many=False):
    if value is None:
        return None
    if many:
        keys = _JSON_TUPLE_KEYS.get(cls)
        if keys is not None:
            return [dict(zip(keys, item)) for item in value]
        return [_dump(item, cls) for item in value]
    out = {}
    for key, get, nested, nested_many in _JSON_FIELDS[cls]:
        field = get(value)
        if nested is not None:
            field = _dump(field, nested, nested_many)
        if key is None:
            out.update(field)
        else:
            out[key] = field
    return out


def _load(data, cls, many=False):
    if data is None:
        return None
    if many:
        return [_load(item, cls) for item in data]
    values = []
    for key, _, nested, nested_many in _JSON_FIELDS[cls]:
        field = data if key is None else data[key]
        if nested is not None:
            field = _load(field, nested, nested_many)
        values.append(field)
    return _JSON_TABLE[cls][0](*values)


def _json(report: Report) -> list[str]:
    name, units = _JSON_REPORTS[type(report)]
    doc = {"report": name, "units": units, **_dump(report, type(report))}
    return [json.dumps(doc, indent=2)]


# ---------------------------------------------------------------------------
# dispatch


_RENDERERS = {
    LoadReport: {TEXT: _load_text, CSV: _load_csv, JSON: _json},
    UtilizationReport: {TEXT: _utilization_text, CSV: _utilization_csv, JSON: _json},
    StatsReport: {TEXT: _stats_text, CSV: _stats_csv, JSON: _json},
    TimelineReport: {TEXT: _timeline_text, CSV: _timeline_csv, JSON: _json},
}


def render(report: Report, fmt: str = TEXT) -> str:
    """Render a report value deterministically in text, csv or json."""
    try:
        renderer = _RENDERERS[type(report)][fmt]
    except KeyError:
        raise ValueError(f"cannot render {type(report).__name__} as {fmt!r}") from None
    return _join(renderer(report))


_FROM_JSON = {name: cls for cls, (name, _) in _JSON_REPORTS.items()}


def report_from_json(data) -> Report:
    """Rebuild a report value from rendered json (text or parsed dict)."""
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    return _load(data, _FROM_JSON[data["report"]])
