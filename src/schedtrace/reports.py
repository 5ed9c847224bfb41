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
from array import array
from bisect import bisect_left, bisect_right
from itertools import chain, islice
from math import isfinite
from operator import attrgetter, itemgetter, lt
from typing import Iterable, Iterator, NamedTuple

from .errors import EmptyWindowError
from .model import (
    IRQ_CODE,
    ColumnView,
    Entity,
    EntityKind,
    IDLE,
    SliceSet,
    Window,
    format_timestamp,
    tiling,
)
from .stats import (
    ExponentialFit,
    Histogram,
    SampleSummary,
    UniformFit,
    describe,
)

RUNNING = "running"
PREEMPTED_BY_IRQ = "preempted_by_irq"
INACTIVE = "inactive"
ACTIVE = "active"

TEXT, CSV, JSON = "text", "csv", "json"
FORMATS = (TEXT, CSV, JSON)
MAX_SLOTS = 100_000  # a utilization report holds one slot value per slot


# ---------------------------------------------------------------------------
# report values


class LoadRow(NamedTuple):
    entity: Entity
    net_us: int
    utilization: float


class LoadReport(NamedTuple):
    window: Window
    rows: list[LoadRow]
    idle_fraction: float


class UtilizationSlot(NamedTuple):
    start_us: int
    span_us: int
    partial: bool
    fractions: list[tuple[Entity, float]]


class UtilizationReport(NamedTuple):
    window: Window
    view: Window
    slot_width_us: int
    slots: list[UtilizationSlot]


class SeriesStats(NamedTuple):
    """Summary, histogram and fits for one sample series (executions or periods)."""

    summary: SampleSummary
    histogram: Histogram
    exponential: ExponentialFit | None
    uniform: UniformFit
    notes: list[str]


class EntityStats(NamedTuple):
    entity: Entity
    net_us: int
    share: float
    dispatches: int
    execution: SeriesStats
    period: SeriesStats | None


class StatsReport(NamedTuple):
    window: Window
    bins: int
    rows: list[EntityStats]


class TimelineSegment(NamedTuple):
    state: str
    start_us: int
    end_us: int


class EntityTimeline(NamedTuple):
    """An entity's segments, which tile a span: their states and the
    len(states) + 1 bounds between them, and `segments` builds each one when
    it is read."""

    entity: Entity
    states: list[str]
    bounds: array

    @property
    def segments(self) -> ColumnView:
        return tiling(TimelineSegment, self.states, self.bounds)


class TimelineReport(NamedTuple):
    window: Window
    view: Window
    entities: list[EntityTimeline]


Report = LoadReport | UtilizationReport | StatsReport | TimelineReport


# ---------------------------------------------------------------------------
# computations


def clip_view(view, window: Window) -> Window:
    """`view` cut to `window` (the whole window for None); EmptyWindowError if empty."""
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
    duration = clip_view(None, s.window).duration_us
    nets = {code: sum(runs[2::3]) for code, runs in s.runs.items()}
    rows = [LoadRow(e, net, net / duration) for e, net in zip(s.entities, nets.values()) if net > 0]
    return LoadReport(s.window, rows, nets.get(IDLE.id, 0) / duration)


def utilization(
    s: SliceSet, slot_width_us: int = 100_000, view=None
) -> UtilizationReport:
    """Per-entity utilization over consecutive time slots.

    Slots start at the view start and are slot_width_us wide; a final slot
    cut short by the view end is normalized by its actual span and flagged
    partial.  Entities with no charge inside a slot are omitted from it.
    ValueError if that makes more than MAX_SLOTS slots.
    """
    if slot_width_us < 1:
        raise ValueError("slot width must be at least 1 us")
    clipped = clip_view(view, s.window)
    view_start, view_end = clipped
    width = slot_width_us
    if -(-clipped.duration_us // width) > MAX_SLOTS:
        raise ValueError(f"slot width {width} us makes more than {MAX_SLOTS} slots")
    slots: list[UtilizationSlot] = []
    entity = dict(zip(s.runs, s.entities))
    owners, bounds = memoryview(s.owners), memoryview(s.bounds)
    # Slices tile the window in time order.  Each slot sums the slices that
    # meet it, less what the first and the last of them hold outside it.
    slot_start = view_start
    i = bisect_right(bounds, view_start) - 1  # the slice holding the slot start
    while True:
        slot_end = min(slot_start + width, view_end)
        j = bisect_left(bounds, slot_end, i + 1)  # slices i to j - 1 meet the slot
        acc: dict[int, int] = {}  # the slot's charge per entity code
        for code, a, b in zip(owners[i:j], bounds[i:j], bounds[i + 1 : j + 1]):
            acc[code] = acc.get(code, 0) + (b - a)
        acc[owners[i]] -= slot_start - bounds[i]
        acc[owners[j - 1]] -= bounds[j] - slot_end
        span = slot_end - slot_start
        fractions = [(entity[c], us / span) for c, us in sorted(acc.items())]
        slots.append(UtilizationSlot(slot_start, span, span < width, fractions))
        if slot_end == view_end:
            return UtilizationReport(s.window, clipped, width, slots)
        slot_start = slot_end
        i = j if bounds[j] == slot_end else j - 1


def _series(samples: list[int], bins: int) -> SeriesStats:
    summary, hist, exponential, uniform, dropped = describe(samples, bins)
    notes: list[str] = []
    if dropped:
        notes.append(f"{dropped} zero sample(s) excluded from the exponential fit")
    if exponential is None:
        notes.append("exponential fit skipped: no positive samples")
    return SeriesStats(summary, hist, exponential, uniform, notes)


def task_statistics(s: SliceSet, bins: int = 20) -> StatsReport:
    """Execution-time and period statistics per entity.

    Execution samples are per dispatch for tasks (net of interrupt time) and
    per invocation for IRQ handlers (net of nested handlers).  Period samples
    are the deltas between successive schedule-ins of a task; a task seen
    scheduled in fewer than twice has no period section.
    """
    duration = clip_view(None, s.window).duration_us
    rows = []
    for (code, runs), entity in zip(s.runs.items(), s.entities):
        execution = _series(runs[2::3].tolist(), bins)
        net = execution.summary.total
        ins = s.schedule_ins.get(code, ())  # an IRQ's code is no task's id
        period = _series([b - a for a, b in zip(ins, ins[1:])], bins) if len(ins) >= 2 else None
        n = len(runs) // 3  # dispatches: one triple each
        rows.append(EntityStats(entity, net, net / duration, n, execution, period))
    return StatsReport(s.window, bins, rows)


def _task_tracks(s: SliceSet, view: Window) -> dict[int, tuple[list[str], array]]:
    # One walk over the slices in the view, cut where the runs of all tasks
    # end: the runs tile the window, and inside a run the task's own slices
    # are running time and every irq slice is preempted.  A state equal to the
    # previous one extends its segment.  A track is the states and bounds of
    # an EntityTimeline, up to the task's last run in the view.
    view_start, view_end = view
    task_of = {start: t for t, r in s.runs.items() if t < IRQ_CODE for start in r[0::3]}
    starts = sorted(task_of)  # each run ends where the next starts
    k = bisect_right(starts, view_start) - 1  # the run holding the view start
    runs = zip(islice(starts, k, None), chain(islice(starts, k + 1, None), (s.window.end,)))
    tracks = {t: ([], array("q", (view_start,))) for t in s.runs if t < IRQ_CODE}
    i = bisect_right(s.bounds, view_start) - 1
    # the walk opens on an empty run ending at the view start, outside any track
    states, bounds, last, b = [], array("q"), None, view_start
    for owner, end in zip(islice(s.owners, i, None), islice(s.bounds, i + 1, None)):
        state = PREEMPTED_BY_IRQ if owner >= IRQ_CODE else RUNNING
        while True:
            cut = end if end < b else b
            if state is last:
                bounds[-1] = cut
            else:
                states.append(state)
                bounds.append(cut)
                last = state
            if cut < b:
                break
            if b == view_end:
                return tracks
            a, b = next(runs)  # the run ends: open the next one
            states, bounds = tracks[task_of[a]]
            if b > view_end:
                b = view_end
            if a > bounds[-1]:
                states.append(INACTIVE)
                bounds.append(a)
            last = states[-1] if states else None
            if cut == end:
                break
    return tracks


def _irq_track(runs: array, view: Window) -> tuple[list[str], array]:
    # Same-id invocations may overlap when a handler nests within itself, and
    # the replay records them in pop order, so take the union of the spans.
    # The track ends with the last invocation in the view.
    view_start, view_end = view
    states: list[str] = []
    bounds = array("q", (view_start,))
    for run_start, run_end in sorted(zip(runs[0::3], runs[1::3])):
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
    return states, bounds


def timeline(s: SliceSet, view=None, kind: EntityKind | None = None) -> TimelineReport:
    """Per-entity state segments tiling the view.

    Task states are running / preempted_by_irq / inactive; IRQ states are
    active / inactive (a handler is active while anywhere on the IRQ stack,
    nested handlers included).  Every entity active anywhere in the window is
    listed, even if it never runs inside a zoomed view.  With `kind`, only
    the entities of that kind are listed and their tracks computed: the task
    or the IRQ part of the report (see write_timeline_part).
    """
    clipped = clip_view(view, s.window)
    task_tracks = {} if kind is EntityKind.IRQ else _task_tracks(s, clipped)
    entities = []
    for (code, runs), entity in zip(s.runs.items(), s.entities):
        if kind is not None and entity.kind is not kind:
            continue
        states, bounds = task_tracks[code] if code < IRQ_CODE else _irq_track(runs, clipped)
        if bounds[-1] < clipped.end:
            states.append(INACTIVE)
            bounds.append(clipped.end)
        entities.append(EntityTimeline(entity, states, bounds))
    return TimelineReport(s.window, clipped, entities)


# ---------------------------------------------------------------------------
# rendering helpers
#
# Renderers yield a document's lines without their newlines (a json row is
# one piece of several lines); `_chunks` ends and batches them for writing.


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


def _table(header: list[str], rows, align: str) -> Iterator[str]:
    """Aligned table lines; `rows()` yields the cell lists, once for the
    column widths and once for the lines."""
    widths = list(map(len, header))
    for row in rows():
        widths = list(map(max, widths, map(len, row)))
    for row in chain((header,), rows()):
        cells = [c.rjust(w) if a == "r" else c.ljust(w) for c, w, a in zip(row, widths, align)]
        yield ("  " + "  ".join(cells)).rstrip()


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


def _chunks(lines: Iterable[str]) -> Iterator[str]:
    """The document of `lines`, each newline-terminated, 2,048 lines a piece."""
    lines = iter(lines)
    while batch := list(islice(lines, 2_048)):
        batch.append("")
        yield "\n".join(batch)


# ---------------------------------------------------------------------------
# load report rendering


def _load_text(report: LoadReport) -> Iterator[str]:
    yield from _head("Average processor load", report.window, "")
    rows = [
        [row.entity.label, f"{row.net_us} us", _frac(row.utilization)]
        for row in report.rows
    ]
    total_net = sum(row.net_us for row in report.rows)
    total_frac = sum(row.utilization for row in report.rows)
    rows.append(["total", f"{total_net} us", _frac(total_frac)])
    yield from _table(["entity", "net time", "utilization"], lambda: rows, "lrr")
    yield ""
    yield f"  idle fraction  {_frac(report.idle_fraction)}"


def _load_csv(report: LoadReport) -> Iterator[str]:
    yield "entity,kind,net_us,utilization"
    for row in report.rows:
        yield f"{row.entity.id},{row.entity.kind_name},{row.net_us},{_frac(row.utilization)}"


# ---------------------------------------------------------------------------
# utilization report rendering


def _utilization_text(report: UtilizationReport) -> Iterator[str]:
    yield from _head(
        "Processor utilization",
        report.window,
        f"  view    {report.view.start} .. {report.view.end} us",
        f"  slot    {report.slot_width_us} us",
        "",
    )
    yield from _table(
        ["slot_start_us", "span_us", "note", "entity", "fraction"],
        lambda: (
            [str(slot.start_us), str(slot.span_us), "partial" if slot.partial else "",
             entity.label, _frac(fraction)]
            for slot in report.slots for entity, fraction in slot.fractions
        ),
        "rrllr",
    )


def _utilization_csv(report: UtilizationReport) -> Iterator[str]:
    yield "slot_start_us,slot_span_us,entity,kind,fraction"
    for slot in report.slots:
        for entity, fraction in slot.fractions:
            yield f"{slot.start_us},{slot.span_us},{entity.id},{entity.kind_name},{_frac(fraction)}"


# ---------------------------------------------------------------------------
# stats report rendering


def _series_text(title: str, series: SeriesStats) -> Iterator[str]:
    s = series.summary
    yield f"    {title}:"
    yield f"      samples        {s.count}"
    yield f"      minimum        {human_duration(s.minimum)}"
    yield f"      worst case     {human_duration(s.maximum)}"
    yield f"      average        {human_duration(s.mean)}"
    if series.exponential is not None:
        e = series.exponential
        yield (
            f"      exponential    rate {e.rate_per_us:.6g} /us"
            f"   log-likelihood {e.log_likelihood:.6g}   ks {_frac(e.ks)}"
        )
    u = series.uniform
    yield f"      uniform        [{_num(u.lower)}, {_num(u.upper)}] us   ks {_frac(u.ks)}"
    for lo, hi, count in _bins(series.histogram):
        yield f"      bin            [{_num(lo)}, {_num(hi)}): {count}"
    for note in series.notes:
        yield f"      note           {note}"


def _stats_text(report: StatsReport) -> Iterator[str]:
    yield from _head("Task statistics", report.window, f"  bins    {report.bins}")
    for row in report.rows:
        yield ""
        yield f"  {row.entity.label}"
        yield f"    utilization    {_frac(row.share)}"
        yield f"    net time       {_span_text(row.net_us)}"
        yield f"    dispatches     {row.dispatches}"
        yield from _series_text("execution time", row.execution)
        if row.period is not None:
            yield from _series_text("period", row.period)


def _stats_csv(report: StatsReport) -> Iterator[str]:
    yield (
        "entity,kind,share,dispatches,min_us,max_us,mean_us,"
        "exp_rate_per_us,exp_ks,uni_lower_us,uni_upper_us,uni_ks"
    )
    for row in report.rows:
        s = row.execution.summary
        e = row.execution.exponential
        exp_rate, exp_ks = ("", "") if e is None else (_num(e.rate_per_us), _frac(e.ks))
        u = row.execution.uniform
        yield (
            f"{row.entity.id},{row.entity.kind_name},{_frac(row.share)},{row.dispatches},"
            f"{_num(s.minimum)},{_num(s.maximum)},{_num(s.mean)},"
            f"{exp_rate},{exp_ks},{_num(u.lower)},{_num(u.upper)},{_frac(u.ks)}"
        )


def _histograms_csv(report: StatsReport) -> Iterator[str]:
    yield "entity,kind,series,bin_lower,bin_upper,count"
    for row in report.rows:
        for name, series in (("exec", row.execution), ("period", row.period)):
            if series is None:
                continue
            for lo, hi, count in _bins(series.histogram):
                yield (
                    f"{row.entity.id},{row.entity.kind_name},{name},"
                    f"{_num(lo)},{_num(hi)},{count}"
                )


def render_stats_histograms_csv(report: StatsReport) -> str:
    """The histogram companion table to the stats csv, one row per bin."""
    return "".join(_chunks(_histograms_csv(report)))


def write_stats_histograms_csv(report: StatsReport, stream) -> None:
    """Write `render_stats_histograms_csv(report)` to a text stream in pieces."""
    stream.writelines(_chunks(_histograms_csv(report)))


# ---------------------------------------------------------------------------
# timeline report rendering


def _timeline_text(report: TimelineReport, label_w=None, head=True) -> Iterator[str]:
    # a part of a report (see write_timeline_part) takes the whole report's
    # label width, and only the part that opens it writes its head
    if label_w is None:
        label_w = max((len(e.entity.label) for e in report.entities), default=6)
    ts_w = len(str(report.view.end))
    if head:
        yield from _head(
            "Task execution timeline",
            report.window,
            f"  view    {report.view.start} .. {report.view.end} us",
            "",
        )
        header = (
            f"  {'entity'.ljust(label_w)}  {'state'.ljust(16)}  "
            f"{'start_us'.rjust(ts_w)}  {'end_us'.rjust(ts_w)}  duration"
        )
        yield header.rstrip()
    durations: dict[int, str] = {}  # rows repeat few distinct durations
    for ent in report.entities:
        prefix = "  " + ent.entity.label.ljust(label_w) + "  "
        heads = {}
        bounds = ent.bounds
        # segments tile: a line's padded end_us is the next line's start_us
        a_text = str(bounds[0]).rjust(ts_w) if bounds else ""
        for state, a, b in zip(ent.states, bounds, islice(bounds, 1, None)):
            head = heads.get(state)
            if head is None:
                head = heads[state] = prefix + state.ljust(16) + "  "
            b_text = str(b).rjust(ts_w)
            d = b - a
            dur = durations.get(d)
            if dur is None:
                dur = durations[d] = human_duration(d)
            yield f"{head}{a_text}  {b_text}  {dur}"
            a_text = b_text


def _timeline_csv(report: TimelineReport, head=True) -> Iterator[str]:
    if head:
        yield "entity,kind,state,start_us,end_us"
    for ent in report.entities:
        eid = ent.entity.id
        kind = ent.entity.kind_name
        for state, a, b in zip(ent.states, ent.bounds, islice(ent.bounds, 1, None)):
            yield f"{eid},{kind},{state},{a},{b}"


# ---------------------------------------------------------------------------
# json


def _entity(kind: str, entity_id: int) -> Entity:
    return Entity(EntityKind.TASK if kind == "task" else EntityKind.IRQ, entity_id)


def _entity_timeline(entity: Entity, segments: list[TimelineSegment]) -> EntityTimeline:
    """The EntityTimeline of json segments; ValueError unless they tile."""
    states, starts, ends = [list(column) for column in zip(*segments)] or ([], [], [])
    if starts[1:] != ends[:-1] or not all(map(lt, starts, ends)):
        raise ValueError("timeline segments must tile their span")
    return EntityTimeline(entity, states, array("q", starts[:1] + ends))


# The json schema.  Each value type maps to the function that rebuilds it
# from its fields in table order, and to its fields in json key order.  A
# field is (json key, attribute or tuple index, nested type); the nested
# type is left out for a plain value, and a bare name stands for a plain
# value whose key and attribute agree.  A nested type in a list stands for
# a list of that type, and a None key merges the nested object's keys into
# its parent's.  Keys need no json escaping.  Missing optional values are null.
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
        _entity_timeline,
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
_STRINGS = {  # json text of the strings that fill the long lists: states, kinds
    s: json.dumps(s)
    for s in (RUNNING, PREEMPTED_BY_IRQ, INACTIVE, ACTIVE, IDLE.kind_name, Entity.irq(0).kind_name)
}


def _plain(x, pad="") -> str:
    """json.dumps(x, indent=2) of a value outside the table, at indent `pad`."""
    t = type(x)
    if t is str:
        return _STRINGS.get(x) or json.dumps(x)
    if t is int or t is float and isfinite(x):
        return repr(x)
    return json.dumps(x, indent=2).replace("\n", "\n" + pad)


# The json writer lays a report out as json.dumps(doc, indent=2) would,
# without the doc.  Its iterators chain, so a row passes up the nesting in C
# (JSONEncoder.iterencode with an indent would run in pure Python).


def _json_value(value, cls, many, pad, head, tail) -> Iterator[str]:
    """Lines of a value that opens after `head` at indent `pad` and closes with `tail`."""
    if cls is None or not value:  # a plain value, a missing one or an empty list
        return iter((f"{head}{'[]' if many else _plain(value, pad)}{tail}",))
    inner = pad + "  "
    if not many:
        members = chain.from_iterable(_json_members(value, cls, inner, ""))
        return chain((head + "{",), members, (pad + "}" + tail,))
    last = len(value) - 1
    rows = _JSON_ROWS.get(cls)
    if rows is not None:  # rows of cells, plain tuples: a view's are its columns zipped
        cells = zip(*value.columns) if isinstance(value, ColumnView) else iter(value)
        items = rows(islice(cells, last), inner, ",")
        last_item = rows(cells, inner, "")  # the one row left
    else:
        items = chain.from_iterable(
            _json_value(item, cls, False, inner, inner, ",") for item in islice(value, last)
        )
        last_item = _json_value(value[last], cls, False, inner, inner, "")
    return chain((head + "[",), items, last_item, (pad + "]" + tail,))


def _json_members(value, cls, pad, tail) -> Iterator[Iterator[str]]:
    """The lines of each member; a merged (None key) object's members take its place."""
    members = _JSON_FIELDS[cls]
    last = len(members) - 1
    for i, (key, get, nested, many) in enumerate(members):
        end = "," if i < last else tail
        if key is None:
            yield from _json_members(get(value), nested, pad, end)
        else:
            yield _json_value(get(value), nested, many, pad, f'{pad}"{key}": ', end)


def _keys(cls) -> list[str]:
    return [k for key, _, n, _ in _JSON_FIELDS[cls] for k in (_keys(n) if key is None else [key])]


# The long lists (segments, a slot's fractions) write each row in one
# f-string, around _row_text: opening and first key, later keys, close, tail.
def _row_text(cls, pad, tail) -> list[str]:
    first, *rest = (f'\n  {pad}"{k}": ' for k in _keys(cls))
    return [pad + "{" + first, *("," + k for k in rest), f"\n{pad}}}{tail}"]


def _segment_rows(cells, pad, tail) -> Iterator[str]:
    head, k2, k3, close = _row_text(TimelineSegment, pad, tail)
    for state, a, b in cells:
        yield f"{head}{_STRINGS.get(state) or _plain(state)}{k2}{a}{k3}{b}{close}"


def _fraction_rows(cells, pad, tail) -> Iterator[str]:
    head, k2, k3, close = _row_text(_FRACTION, pad, tail)
    kinds = {kind: _STRINGS[Entity(kind, 0).kind_name] for kind in EntityKind}  # json text
    for (kind, eid), fraction in cells:
        yield f"{head}{kinds[kind]}{k2}{eid}{k3}{fraction!r}{close}"


_JSON_ROWS = {TimelineSegment: _segment_rows, _FRACTION: _fraction_rows}


def _json_head(report: Report) -> tuple[str, ...]:
    name, units, _, _ = _REPORTS[type(report)]
    return "{", f'  "report": {_plain(name)},', f'  "units": {_plain(units, "  ")},'


def _json(report: Report) -> Iterator[str]:
    members = chain.from_iterable(_json_members(report, type(report), "  ", ""))
    return chain(_json_head(report), members, ("}",))


def _timeline_json(part: TimelineReport, head: bool, more: bool) -> Iterator[str]:
    """The json lines of a timeline part: the document's head or else its
    end, and the part's entities, with a comma after the last if `more`."""
    if head:
        window, view, _ = _json_members(part, TimelineReport, "  ", "")
        yield from chain(_json_head(part), window, view, ('  "entities": [',))
    last = len(part.entities) - 1
    for i, entity in enumerate(part.entities):
        tail = "," if i < last or more else ""
        yield from _json_value(entity, EntityTimeline, False, "    ", "    ", tail)
    if not head:
        yield from ("  ]", "}")


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


# ---------------------------------------------------------------------------
# dispatch


# The reports, in output order: each type's name, which also opens its json,
# its json units, and its text and csv renderers.
_REPORTS = {
    LoadReport: ("load", {"time": "us", "utilization": "fraction"}, _load_text, _load_csv),
    UtilizationReport: (
        "utilization",
        {"time": "us", "utilization": "fraction"},
        _utilization_text,
        _utilization_csv,
    ),
    StatsReport: ("stats", {"time": "us", "share": "fraction"}, _stats_text, _stats_csv),
    TimelineReport: ("timeline", {"time": "us"}, _timeline_text, _timeline_csv),
}
REPORT_TYPES = {name: cls for cls, (name, *_) in _REPORTS.items()}


def _pieces(report: Report, fmt: str) -> Iterator[str]:
    try:
        _, _, text, csv = _REPORTS[type(report)]
        renderer = {TEXT: text, CSV: csv, JSON: _json}[fmt]
    except KeyError:
        raise ValueError(f"cannot render {type(report).__name__} as {fmt!r}") from None
    return _chunks(renderer(report))


def render(report: Report, fmt: str = TEXT) -> str:
    """Render a report value deterministically in text, csv or json."""
    return "".join(_pieces(report, fmt))


def write_report(report: Report, fmt: str, stream) -> None:
    """Write `render(report, fmt)` to an io text stream, in pieces as it is rendered."""
    stream.writelines(_pieces(report, fmt))


def write_timeline_part(s: SliceSet, view, kind: EntityKind, fmt: str, stream) -> None:
    """Write the lines of write_report(timeline(s, view), fmt, ...) that the
    entities of `kind` give, computing only their tracks.  The task part
    opens the document and the IRQ part ends it, so the two written one after
    the other are the whole report."""
    part = timeline(s, view, kind)
    head = kind is EntityKind.TASK
    if fmt == TEXT:
        lines = _timeline_text(part, max(len(e.label) for e in s.entities), head)
    elif fmt == CSV:
        lines = _timeline_csv(part, head)
    elif fmt == JSON:  # the task part's last entity takes a comma if an IRQ follows
        lines = _timeline_json(part, head, head and s.entities[-1].kind is EntityKind.IRQ)
    else:
        raise ValueError(f"cannot render TimelineReport as {fmt!r}")
    stream.writelines(_chunks(lines))


def report_from_json(data) -> Report:
    """Rebuild a report value from rendered json (text or parsed dict)."""
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    return _load(data, REPORT_TYPES[data["report"]])
