"""Report computation and the text/csv/json renderings."""

import io
import json
import tracemalloc
from array import array

import pytest

from schedtrace import (
    EmptyWindowError,
    Entity,
    EntityTimeline,
    TimelineReport,
    TimelineSegment,
    Window,
    average_load,
    build_slices,
    format_timestamp,
    generate_trace,
    parse_trace,
    random_scenario,
    render,
    render_stats_histograms_csv,
    report_from_json,
    task_statistics,
    timeline,
    utilization,
    write_report,
)
from schedtrace.model import EntityKind, entity_of
from schedtrace.reports import MAX_SLOTS, write_timeline_part
from tests.conftest import (
    SHORT_END,
    SHORT_NETS,
    SHORT_SPAN,
    SHORT_START,
    SHORT_TRACE,
    gate_shaped_trace,
    unique_id_trace,
)


def test_load_rows_and_idle_fraction(short_slices):
    rep = average_load(short_slices)
    assert rep.window == Window(SHORT_START, SHORT_END)
    assert [(r.entity, r.net_us) for r in rep.rows] == sorted(SHORT_NETS.items())
    for r in rep.rows:
        assert r.utilization == SHORT_NETS[r.entity] / SHORT_SPAN
    assert rep.idle_fraction == 0.0


def test_load_reports_idle_time():
    log = parse_trace(
        "<0000h 00m 00s 000 000> Task schedule: old 0 new 1\n"
        "<0000h 00m 00s 000 030> Task schedule: old 1 new 0\n"
        "<0000h 00m 00s 000 050> Task schedule: old 0 new 1\n"
    )
    rep = average_load(build_slices(log))
    assert rep.idle_fraction == 20 / 50
    assert [(r.entity, r.net_us) for r in rep.rows] == [
        (Entity.task(0), 20),
        (Entity.task(1), 30),
    ]


def test_load_skips_entities_without_charge():
    # a zero-width visit earns a schedule-in but no load row
    log = parse_trace(
        "<0000h 00m 00s 000 000> Task schedule: old 0 new 1\n"
        "<0000h 00m 00s 000 020> Task schedule: old 1 new 2\n"
        "<0000h 00m 00s 000 020> Task schedule: old 2 new 1\n"
        "<0000h 00m 00s 000 050> Task schedule: old 1 new 0\n"
    )
    rep = average_load(build_slices(log))
    assert [r.entity for r in rep.rows] == [Entity.task(1)]


def test_utilization_two_half_window_slots(short_slices):
    rep = utilization(short_slices, slot_width_us=314)
    assert [(s.start_us, s.span_us, s.partial) for s in rep.slots] == [
        (1_290_602, 314, False),
        (1_290_916, 314, False),
    ]
    first, second = rep.slots
    assert dict(first.fractions) == {
        Entity.task(1): 86 / 314,
        Entity.task(3): 76 / 314,
        Entity.task(4): 129 / 314,
        Entity.irq(16): 23 / 314,
    }
    assert dict(second.fractions) == {
        Entity.task(2): 93 / 314,
        Entity.task(4): 6 / 314,
        Entity.task(5): 182 / 314,
        Entity.irq(23): 33 / 314,
    }
    # fractions are listed tasks first, ids ascending
    assert [e for e, _ in first.fractions] == sorted(e for e, _ in first.fractions)


def test_utilization_single_slot_equals_load(short_slices):
    rep = utilization(short_slices, slot_width_us=SHORT_SPAN)
    load = average_load(short_slices)
    (slot,) = rep.slots
    assert not slot.partial
    assert dict(slot.fractions) == {r.entity: r.utilization for r in load.rows}


def test_utilization_flags_partial_tail_slot(short_slices):
    rep = utilization(short_slices, slot_width_us=500)
    assert [(s.start_us, s.span_us, s.partial) for s in rep.slots] == [
        (1_290_602, 500, False),
        (1_291_102, 128, True),
    ]
    # the partial slot normalizes by its actual span, so it still sums to 1
    assert sum(f for _, f in rep.slots[1].fractions) == pytest.approx(1.0, abs=1e-9)


def test_utilization_zoom_clips_to_window(short_slices):
    rep = utilization(short_slices, slot_width_us=200, view=Window(1_290_700, 1_290_900))
    assert rep.view == Window(1_290_700, 1_290_900)
    (slot,) = rep.slots
    assert dict(slot.fractions) == {
        Entity.task(1): 64 / 200,
        Entity.task(4): 113 / 200,
        Entity.irq(16): 23 / 200,
    }


def test_utilization_empty_view_raises(short_slices):
    with pytest.raises(EmptyWindowError):
        utilization(short_slices, view=Window(0, 100))
    with pytest.raises(EmptyWindowError):
        utilization(short_slices, view=Window(SHORT_END, SHORT_END + 50))


@pytest.mark.parametrize("maker", [average_load, utilization, task_statistics, timeline])
def test_zero_length_window_has_one_message(maker):
    s = build_slices(parse_trace("<0000h 00m 00s 005 000> Task schedule: old 0 new 2\n"))
    with pytest.raises(EmptyWindowError, match=r"^no time to analyze in \[5000, 5000\] us$"):
        maker(s)


def test_utilization_rejects_bad_slot_width(short_slices):
    with pytest.raises(ValueError):
        utilization(short_slices, slot_width_us=0)


def test_utilization_makes_at_most_max_slots():
    def span(us):
        return build_slices(parse_trace(
            "<0000h 00m 00s 000 000> Task schedule: old 0 new 1\n"
            f"<{format_timestamp(us)}> Task schedule: old 1 new 0\n"
        ))

    assert len(utilization(span(MAX_SLOTS), 1).slots) == MAX_SLOTS
    with pytest.raises(ValueError, match=f"more than {MAX_SLOTS} slots"):
        utilization(span(MAX_SLOTS + 1), 1)
    assert len(utilization(span(MAX_SLOTS + 1), 1, Window(1, MAX_SLOTS + 5)).slots) == MAX_SLOTS


def test_stats_shares_and_dispatch_counts(short_slices):
    rep = task_statistics(short_slices)
    by_entity = {r.entity: r for r in rep.rows}
    assert set(by_entity) == set(SHORT_NETS)
    for ent, net in SHORT_NETS.items():
        assert by_entity[ent].net_us == net
        assert by_entity[ent].share == net / SHORT_SPAN
        assert by_entity[ent].dispatches == 1


def test_stats_execution_series(short_slices):
    rep = task_statistics(short_slices)
    row = {r.entity: r for r in rep.rows}[Entity.task(4)]
    s = row.execution.summary
    assert (s.count, s.total, s.minimum, s.maximum, s.mean) == (1, 135, 135, 135, 135.0)
    assert row.execution.exponential.rate_per_us == 1 / 135
    assert row.execution.uniform.lower == 135
    assert row.execution.notes == []


def test_stats_period_series_needs_two_schedule_ins(short_slices):
    rep = task_statistics(short_slices)
    by_entity = {r.entity: r for r in rep.rows}
    period = by_entity[Entity.task(3)].period
    assert period is not None
    assert (period.summary.count, period.summary.minimum) == (1, SHORT_SPAN)
    for ent, row in by_entity.items():
        if ent != Entity.task(3):
            assert row.period is None


# Task 2 is dispatched once and preempted for its whole run, so its one
# execution sample is 0 and its exponential fit is skipped.
ZERO_NET_TRACE = (
    "<0000h 00m 00s 000 000> Task schedule: old 0 new 1\n"
    "<0000h 00m 00s 000 010> Task schedule: old 1 new 2\n"
    "<0000h 00m 00s 000 010> IRQ begin: 5\n"
    "<0000h 00m 00s 000 030> IRQ end: 5\n"
    "<0000h 00m 00s 000 030> Task schedule: old 2 new 1\n"
    "<0000h 00m 00s 000 040> Task schedule: old 1 new 0\n"
)


def test_stats_zero_net_dispatch_noted_and_excluded_from_fit():
    rep = task_statistics(build_slices(parse_trace(ZERO_NET_TRACE)))
    row = {r.entity: r for r in rep.rows}[Entity.task(2)]
    assert row.net_us == 0
    assert row.execution.summary.count == 1
    assert row.execution.exponential is None
    assert any("zero sample" in n for n in row.execution.notes)
    assert any("skipped" in n for n in row.execution.notes)


TASK_4_SEGMENTS = [
    TimelineSegment("inactive", 1_290_602, 1_290_764),
    TimelineSegment("running", 1_290_764, 1_290_838),
    TimelineSegment("preempted_by_irq", 1_290_838, 1_290_861),
    TimelineSegment("running", 1_290_861, 1_290_922),
    TimelineSegment("inactive", 1_290_922, 1_291_230),
]
TASK_4_ZOOMED = [
    TimelineSegment("running", 1_290_800, 1_290_838),
    TimelineSegment("preempted_by_irq", 1_290_838, 1_290_861),
    TimelineSegment("running", 1_290_861, 1_290_900),
]


def test_timeline_task_states(short_slices):
    rep = timeline(short_slices)
    by_entity = {e.entity: e.segments for e in rep.entities}
    assert by_entity[Entity.task(4)] == TASK_4_SEGMENTS
    assert by_entity[Entity.irq(16)] == [
        TimelineSegment("inactive", 1_290_602, 1_290_838),
        TimelineSegment("active", 1_290_838, 1_290_861),
        TimelineSegment("inactive", 1_290_861, 1_291_230),
    ]


def test_timeline_segments_tile_view(short_slices):
    rep = timeline(short_slices)
    for ent in rep.entities:
        cur = rep.view.start
        for seg in ent.segments:
            assert seg.start_us == cur
            assert seg.end_us > seg.start_us
            cur = seg.end_us
        assert cur == rep.view.end


def test_timeline_zoom(short_slices):
    rep = timeline(short_slices, view=Window(1_290_800, 1_290_900))
    by_entity = {e.entity: e.segments for e in rep.entities}
    assert by_entity[Entity.task(4)] == TASK_4_ZOOMED


@pytest.mark.parametrize(
    "view, expected", [(None, TASK_4_SEGMENTS), (Window(1_290_800, 1_290_900), TASK_4_ZOOMED)]
)
def test_segments_view_builds_each_segment_on_access(short_slices, monkeypatch, view, expected):
    rep = timeline(short_slices, view)
    segments = next(e.segments for e in rep.entities if e.entity == Entity.task(4))
    n = len(expected)
    assert len(segments) == n
    assert segments == expected and expected == segments
    assert segments != expected[:-1] and expected[1:] != segments
    assert segments != tuple(expected)
    assert segments[0] == expected[0] and type(segments[0]) is TimelineSegment
    assert segments[-1] == expected[-1] and segments[-n] == expected[0]
    assert segments[1:] == expected[1:] and segments[-2:] == expected[-2:]
    assert segments[::-1] == expected[::-1] and segments[n:] == []
    assert list(reversed(segments)) == expected[::-1]
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            segments[index]
    with pytest.raises(TypeError):
        segments[0] = expected[0]

    def refuse(cls, *fields):
        raise AssertionError(f"built a {cls.__name__}")

    monkeypatch.setattr(TimelineSegment, "__new__", refuse)
    assert len(segments) == n
    assert sum(len(e.segments) for e in rep.entities) > n
    with pytest.raises(AssertionError):
        segments[0]


def test_entity_timeline_keeps_segments_that_tile():
    segments = [TimelineSegment("inactive", 0, 10), TimelineSegment("active", 10, 12)]
    ent = EntityTimeline(Entity.irq(3), ["inactive", "active"], array("q", [0, 10, 12]))
    assert ent.segments == segments
    assert ent == EntityTimeline(Entity.irq(3), list(ent.states), array("q", ent.bounds))
    assert ent != EntityTimeline(Entity.irq(3), ["inactive"], array("q", [0, 10]))
    # json segments that tile come back as the same states and bounds
    rep = TimelineReport(Window(0, 12), Window(0, 12), [ent])
    data = json.loads(render(rep, "json"))
    assert report_from_json(data) == rep
    data["entities"][0]["segments"] = []
    assert report_from_json(data).entities[0] == EntityTimeline(Entity.irq(3), [], array("q"))


def test_a_timeline_entity_with_no_segments_renders_in_every_format(short_slices):
    full = timeline(short_slices)
    data = json.loads(render(full, "json"))
    data["entities"][1]["segments"] = []
    rep = report_from_json(data)
    assert rep.entities[1].segments == [] and rep.entities[1].states == []
    assert json.loads(render(rep, "json")) == data
    assert report_from_json(render(rep, "json")) == rep
    dropped = len(full.entities[1].segments)
    for fmt in ("text", "csv"):
        assert render(rep, fmt).count("\n") == render(full, fmt).count("\n") - dropped


@pytest.mark.parametrize(
    "segments",
    [
        [("running", 0, 10), ("inactive", 11, 20)],  # a gap
        [("running", 0, 10), ("inactive", 9, 20)],  # an overlap
        [("running", 0, 10), ("inactive", 10, 10)],  # an empty segment
        [("running", 10, 0)],  # ends before it starts
        [("running", 10, 20), ("inactive", 0, 10)],  # out of order
    ],
    ids=["gap", "overlap", "empty", "backwards", "unordered"],
)
def test_entity_timeline_refuses_segments_that_do_not_tile(segments):
    window = Window(0, 20)
    ent = EntityTimeline(Entity.task(1), ["running"], array("q", [0, 20]))
    data = json.loads(render(TimelineReport(window, window, [ent]), "json"))
    keys = ("state", "start_us", "end_us")
    data["entities"][0]["segments"] = [dict(zip(keys, segment)) for segment in segments]
    with pytest.raises(ValueError, match="tile"):
        report_from_json(data)


def test_timeline_adds_a_few_words_per_segment():
    s = build_slices(parse_trace(gate_shaped_trace(20_000)))
    tracemalloc.start()
    try:
        rep = timeline(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = sum(len(e.segments) for e in rep.entities)
    assert n > 200_000
    assert peak <= 48 * n, f"{peak / n:.0f} B per segment"


def test_timeline_of_ids_that_never_repeat_adds_a_few_words_per_segment():
    # three segments per task: inactive, running, inactive
    s = build_slices(parse_trace(unique_id_trace(100_000)))
    tracemalloc.start()
    try:
        rep = timeline(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = sum(len(e.segments) for e in rep.entities)
    assert n > 290_000
    assert peak <= 150 * n, f"{peak / n:.0f} B per segment"


def test_stats_of_ids_that_never_repeat_take_under_a_kilobyte_per_entity():
    # each entity's row holds its two series' summary, histogram and fits
    s = build_slices(parse_trace(unique_id_trace(100_000)))
    tracemalloc.start()
    try:
        task_statistics(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = len(s.runs)
    assert n > 99_000
    assert peak <= 950 * n, f"{peak / n:.0f} B per entity"


def test_timeline_merges_segments_across_self_switch():
    log = parse_trace(
        "<0000h 00m 00s 000 000> Task schedule: old 0 new 9\n"
        "<0000h 00m 00s 000 025> Task schedule: old 9 new 9\n"
        "<0000h 00m 00s 000 060> Task schedule: old 9 new 0\n"
    )
    rep = timeline(build_slices(log))
    by_entity = {e.entity: e.segments for e in rep.entities}
    assert by_entity[Entity.task(9)] == [
        TimelineSegment("running", 0, 60),
    ]


def test_timeline_merges_touching_invocations_of_one_irq():
    log = parse_trace(
        "<0000h 00m 00s 000 000> Task schedule: old 0 new 1\n"
        "<0000h 00m 00s 000 010> IRQ begin: 5\n"
        "<0000h 00m 00s 000 020> IRQ end: 5\n"
        "<0000h 00m 00s 000 020> IRQ begin: 5\n"
        "<0000h 00m 00s 000 030> IRQ end: 5\n"
        "<0000h 00m 00s 000 040> Task schedule: old 1 new 0\n"
    )
    by_entity = {e.entity: e.segments for e in timeline(build_slices(log)).entities}
    assert by_entity[Entity.irq(5)] == [
        TimelineSegment("inactive", 0, 10),
        TimelineSegment("active", 10, 30),
        TimelineSegment("inactive", 30, 40),
    ]


def test_load_csv_is_exact(short_slices):
    assert render(average_load(short_slices), "csv") == (
        "entity,kind,net_us,utilization\n"
        "1,task,86,0.136943\n"
        "2,task,93,0.148089\n"
        "3,task,76,0.121019\n"
        "4,task,135,0.214968\n"
        "5,task,182,0.289809\n"
        "16,irq,23,0.036624\n"
        "23,irq,33,0.052548\n"
    )


def test_utilization_csv_rows(short_slices):
    text = render(utilization(short_slices, slot_width_us=314), "csv")
    lines = text.splitlines()
    assert lines[0] == "slot_start_us,slot_span_us,entity,kind,fraction"
    assert "1290602,314,1,task,0.273885" in lines
    assert "1290916,314,23,irq,0.105096" in lines
    assert len(lines) == 9  # header + 4 entities per slot


def test_stats_csv_shape(short_slices):
    text = render(task_statistics(short_slices), "csv")
    lines = text.splitlines()
    assert lines[0] == (
        "entity,kind,share,dispatches,min_us,max_us,mean_us,"
        "exp_rate_per_us,exp_ks,uni_lower_us,uni_upper_us,uni_ks"
    )
    assert len(lines) == 8
    t4 = next(l for l in lines if l.startswith("4,task,"))
    fields = t4.split(",")
    assert fields[2] == "0.214968"
    assert fields[3] == "1"
    assert fields[4:7] == ["135", "135", "135.0"]


def test_stats_histograms_csv(short_slices):
    text = render_stats_histograms_csv(task_statistics(short_slices, bins=4))
    lines = text.splitlines()
    assert lines[0] == "entity,kind,series,bin_lower,bin_upper,count"
    # every entity has an exec histogram; only task 3 has a period series
    assert sum(1 for l in lines if ",exec," in l) == 7  # degenerate: 1 bin each
    period_rows = [l for l in lines if ",period," in l]
    assert period_rows == ["3,task,period,628.0,629.0,1"]


def test_timeline_csv_rows(short_slices):
    text = render(timeline(short_slices), "csv")
    lines = text.splitlines()
    assert lines[0] == "entity,kind,state,start_us,end_us"
    assert "4,task,preempted_by_irq,1290838,1290861" in lines
    assert "16,irq,active,1290838,1290861" in lines


def test_text_renders_mention_key_facts(short_slices):
    load_text = render(average_load(short_slices), "text")
    assert "628 us" in load_text
    assert "task 4" in load_text and "0.214968" in load_text
    stats_text = render(task_statistics(short_slices), "text")
    for label in ("utilization", "worst case", "minimum", "average"):
        assert label in stats_text
    tl_text = render(timeline(short_slices), "text")
    assert "preempted_by_irq" in tl_text


def test_timeline_text_is_exact(short_slices):
    # Worked out from the SHORT_TRACE events: every segment boundary is an
    # event time, each entity's rows tile the 628 us window, and the running
    # rows add up to SHORT_NETS (task 4: 74 + 61 = 135 us, task 5: 76 + 106
    # = 182 us).  Labels are 6 wide, states 16, timestamps 7.
    assert render(timeline(short_slices), "text") == (
        "Task execution timeline\n"
        "  window  0000h 00m 01s 290 602 .. 0000h 00m 01s 291 230\n"
        "  span    628 us\n"
        "  view    1290602 .. 1291230 us\n"
        "\n"
        "  entity  state             start_us   end_us  duration\n"
        "  task 1  inactive          1290602  1290678  76 us\n"
        "  task 1  running           1290678  1290764  86 us\n"
        "  task 1  inactive          1290764  1291230  466 us\n"
        "  task 2  inactive          1290602  1290922  320 us\n"
        "  task 2  running           1290922  1291015  93 us\n"
        "  task 2  inactive          1291015  1291230  215 us\n"
        "  task 3  running           1290602  1290678  76 us\n"
        "  task 3  inactive          1290678  1291230  552 us\n"
        "  task 4  inactive          1290602  1290764  162 us\n"
        "  task 4  running           1290764  1290838  74 us\n"
        "  task 4  preempted_by_irq  1290838  1290861  23 us\n"
        "  task 4  running           1290861  1290922  61 us\n"
        "  task 4  inactive          1290922  1291230  308 us\n"
        "  task 5  inactive          1290602  1291015  413 us\n"
        "  task 5  running           1291015  1291091  76 us\n"
        "  task 5  preempted_by_irq  1291091  1291124  33 us\n"
        "  task 5  running           1291124  1291230  106 us\n"
        "  irq 16  inactive          1290602  1290838  236 us\n"
        "  irq 16  active            1290838  1290861  23 us\n"
        "  irq 16  inactive          1290861  1291230  369 us\n"
        "  irq 23  inactive          1290602  1291091  489 us\n"
        "  irq 23  active            1291091  1291124  33 us\n"
        "  irq 23  inactive          1291124  1291230  106 us\n"
    )


def test_timeline_text_pads_timestamps_to_view_end():
    # the view ends at 1200 us, so timestamps are right-aligned 4 wide, and
    # durations from 1 ms up switch to the ms scale
    log = parse_trace(
        "<0000h 00m 00s 000 000> Task schedule: old 0 new 1\n"
        "<0000h 00m 00s 000 030> IRQ begin: 2\n"
        "<0000h 00m 00s 000 045> IRQ end: 2\n"
        "<0000h 00m 00s 001 200> Task schedule: old 1 new 0\n"
    )
    assert render(timeline(build_slices(log)), "text") == (
        "Task execution timeline\n"
        "  window  0000h 00m 00s 000 000 .. 0000h 00m 00s 001 200\n"
        "  span    1.200 ms (1200 us)\n"
        "  view    0 .. 1200 us\n"
        "\n"
        "  entity  state             start_us  end_us  duration\n"
        "  task 1  running              0    30  30 us\n"
        "  task 1  preempted_by_irq    30    45  15 us\n"
        "  task 1  running             45  1200  1.155 ms\n"
        "  irq 2   inactive             0    30  30 us\n"
        "  irq 2   active              30    45  15 us\n"
        "  irq 2   inactive            45  1200  1.155 ms\n"
    )


def test_render_rejects_unknown_format(short_slices):
    with pytest.raises(ValueError):
        render(average_load(short_slices), "yaml")


@pytest.mark.parametrize("maker", [average_load, utilization, task_statistics, timeline])
def test_json_round_trip_short_trace(short_slices, maker):
    rep = maker(short_slices)
    data = json.loads(render(rep, "json"))
    assert report_from_json(data) == rep


def test_json_round_trip_zoomed_timeline(short_slices):
    rep = timeline(short_slices, Window(1_290_800, 1_290_900))
    back = report_from_json(render(rep, "json"))
    assert back == rep
    assert [e.segments for e in back.entities] == [e.segments for e in rep.entities]


@pytest.mark.parametrize("maker", [average_load, utilization, task_statistics, timeline])
def test_json_round_trip_random_scenario(maker):
    text, _ = generate_trace(random_scenario(303))
    s = build_slices(parse_trace(text))
    rep = maker(s)
    assert report_from_json(json.loads(render(rep, "json"))) == rep


@pytest.mark.parametrize("maker", [average_load, utilization, task_statistics, timeline])
def test_json_round_trip_zero_net_dispatch(maker):
    rep = maker(build_slices(parse_trace(ZERO_NET_TRACE)))
    rendered = render(rep, "json")
    if maker is task_statistics:
        # the optional sections left empty round-trip through null
        assert '"exponential": null' in rendered
        assert '"period": null' in rendered
    assert report_from_json(rendered) == rep


def test_json_declares_units(short_slices):
    for maker in (average_load, utilization, task_statistics, timeline):
        data = json.loads(render(maker(short_slices), "json"))
        assert "units" in data and data["units"]["time"] == "us"


# Task 1 runs the whole window, so its timeline is one segment.
ONE_SEGMENT_TRACE = (
    "<0000h 00m 00s 000 000> Task schedule: old 0 new 1\n"
    "<0000h 00m 00s 000 050> Task schedule: old 1 new 0\n"
)
WRITER_CASES = {
    "short": (SHORT_TRACE, None),
    "short-zoom": (SHORT_TRACE, Window(SHORT_START + 100, SHORT_START + 450)),
    "seed-303": (generate_trace(random_scenario(303))[0], None),
    "seed-7": (generate_trace(random_scenario(7))[0], None),
    "zero-net": (ZERO_NET_TRACE, None),
    "one-segment": (ONE_SEGMENT_TRACE, None),
}


def _writer_report(case, maker):
    trace, view = WRITER_CASES[case]
    s = build_slices(parse_trace(trace))
    if maker is utilization:  # several slots, the last one partial
        return utilization(s, max(1, s.window.duration_us * 2 // 5), view)
    if maker is timeline:
        return timeline(s, view)
    return task_statistics(s, bins=4) if maker is task_statistics else average_load(s)


def test_one_segment_case_has_a_one_segment_timeline():
    rep = _writer_report("one-segment", timeline)
    assert [len(e.segments) for e in rep.entities if e.entity == Entity.task(1)] == [1]


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("maker", [average_load, utilization, task_statistics, timeline])
@pytest.mark.parametrize("case", WRITER_CASES)
def test_write_report_writes_what_render_returns(case, maker, fmt):
    rep = _writer_report(case, maker)
    stream = io.StringIO()
    write_report(rep, fmt, stream)
    out = stream.getvalue()
    assert out == render(rep, fmt)
    if fmt == "json":
        # the writer lays json out byte for byte as json.dumps(indent=2) does
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert report_from_json(out) == rep


class _Sink(io.TextIOBase):
    """A text stream that keeps only the count of what it is given."""

    size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)


def test_write_report_never_holds_a_whole_json_timeline():
    n = 100_000
    states = [("running", "inactive")[i % 2] for i in range(n)]
    window = Window(0, 10 * n)
    track = EntityTimeline(Entity.task(1), states, array("q", range(0, 10 * n + 1, 10)))
    rep = TimelineReport(window, window, [track])
    sink = _Sink()
    tracemalloc.start()
    try:
        write_report(rep, "json", sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > 10_000_000
    assert peak < sink.size / 10


def test_reports_read_the_entities_the_slice_set_built_once(monkeypatch):
    s = build_slices(parse_trace(gate_shaped_trace(20) + unique_id_trace(3).replace("<0000h", "<0001h")))
    entities = s.entities
    assert entities == list(map(entity_of, s.runs)) and len(entities) == len(s.runs) == 11

    def refuse(cls, *fields):
        raise AssertionError("built an Entity")

    monkeypatch.setattr(Entity, "__new__", refuse)
    reports = [average_load(s), utilization(s, 10**8), task_statistics(s), timeline(s)]
    assert [row.entity for row in reports[2].rows] == entities
    for kind in EntityKind:
        assert [t.entity for t in timeline(s, kind=kind).entities] == [e for e in entities if e.kind is kind]


_NO_IRQ = "".join(
    f"<0000h 00m 00s 000 {10 * i:03d}> Task schedule: old {i % 3} new {(i + 1) % 3}\n" for i in range(9)
)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize(
    "trace", [SHORT_TRACE, gate_shaped_trace(30), unique_id_trace(40), _NO_IRQ],
    ids=["short", "gate-shaped", "unique-ids", "no-irq"],
)
def test_timeline_parts_written_in_turn_are_the_whole_report(trace, fmt):
    s = build_slices(parse_trace(trace))
    for view in (None, Window(s.window.start + 3, s.window.end - 4)):
        stream = io.StringIO()
        for kind in (EntityKind.TASK, EntityKind.IRQ):
            write_timeline_part(s, view, kind, fmt, stream)
        assert stream.getvalue() == render(timeline(s, view), fmt)
