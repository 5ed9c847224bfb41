"""Charge accounting: slices, runs, nesting, recovery from bad traces."""

import gc
import re
import tracemalloc
from array import array
from functools import partial

import pytest
from hypothesis import given, settings

from schedtrace import (
    ConsistencyError,
    EmptyTraceError,
    Entity,
    EventLog,
    ExecutionSlice,
    IrqBegin,
    IrqEnd,
    ParseError,
    Run,
    SliceSet,
    TaskSchedule,
    ViolationKind,
    build_slices,
    generate_trace,
    parse_trace,
    random_scenario,
    timeline,
    validate_consistency,
)
from schedtrace.model import IRQ_BEGIN, IRQ_END, SCHEDULE, EntityKind, entity_of
from schedtrace.replay import _check, _first_task, _replay, replay_halves
from tests.conftest import (
    SHORT_END,
    SHORT_NETS,
    SHORT_SPAN,
    SHORT_START,
    damaged_traces,
    gate_shaped_trace,
    in_process,
    unique_id_trace,
)
from tests.oracles import charge_by_microsecond, task_states_by_microsecond


def test_window_is_first_to_last_event(short_slices):
    assert short_slices.window.start == SHORT_START
    assert short_slices.window.end == SHORT_END
    assert short_slices.window.duration_us == SHORT_SPAN


def test_net_times_match_hand_derivation(short_slices):
    assert short_slices.net_times() == SHORT_NETS


def test_net_times_conserve_window(short_slices):
    assert sum(short_slices.net_times().values()) == SHORT_SPAN


def test_slices_tile_window_exactly(short_slices):
    cur = short_slices.window.start
    for sl in short_slices.slices:
        assert sl.start == cur
        assert sl.end > sl.start
        cur = sl.end
    assert cur == short_slices.window.end


SHORT_SLICES = [
    ExecutionSlice(Entity.task(3), 1_290_602, 1_290_678),
    ExecutionSlice(Entity.task(1), 1_290_678, 1_290_764),
    ExecutionSlice(Entity.task(4), 1_290_764, 1_290_838),
    ExecutionSlice(Entity.irq(16), 1_290_838, 1_290_861),
    ExecutionSlice(Entity.task(4), 1_290_861, 1_290_922),
    ExecutionSlice(Entity.task(2), 1_290_922, 1_291_015),
    ExecutionSlice(Entity.task(5), 1_291_015, 1_291_091),
    ExecutionSlice(Entity.irq(23), 1_291_091, 1_291_124),
    ExecutionSlice(Entity.task(5), 1_291_124, 1_291_230),
]


def test_slice_sequence(short_slices):
    assert short_slices.slices == SHORT_SLICES


def test_slices_view_builds_each_slice_on_access(short_slices, monkeypatch):
    slices = short_slices.slices
    expected = SHORT_SLICES
    assert len(slices) == 9
    assert slices == expected and expected == slices
    assert slices != expected[:-1] and expected[1:] != slices and slices != tuple(expected)
    assert slices == short_slices.slices
    assert slices[0] == expected[0] and type(slices[0]) is ExecutionSlice
    assert slices[-1] == expected[-1] and slices[-9] == expected[0]
    assert slices[2:5] == expected[2:5] and slices[-3:] == expected[-3:]
    assert slices[::-2] == expected[::-2] and slices[7:2] == []
    assert list(reversed(slices)) == expected[::-1]
    assert slices.index(expected[4]) == 4
    for index in (9, -10):
        with pytest.raises(IndexError):
            slices[index]
    with pytest.raises(TypeError):
        slices[0] = expected[0]

    def refuse(cls, *fields):
        raise AssertionError(f"built a {cls.__name__}")

    monkeypatch.setattr(ExecutionSlice, "__new__", refuse)
    assert len(slices) == 9
    with pytest.raises(AssertionError):
        slices[0]


# About 100,000 events each: the gate trace's shape, and ids that never repeat,
# where replay pays for each task's run array and schedule-ins
@pytest.mark.parametrize(
    "trace, per_event",
    [(partial(gate_shaped_trace, 20_000), 64), (partial(unique_id_trace, 100_000), 580)],
    ids=["gate-shaped", "ids-never-repeat"],
)
def test_build_slices_peaks_at_a_few_words_per_event(trace, per_event):
    log = parse_trace(trace())
    n = len(log.at)
    tracemalloc.start()
    try:
        s = build_slices(log)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(s.slices) == n - 1  # a slice between each two events
    assert peak <= per_event * n, f"{peak / n:.0f} B per event"


# A code is a task's id, or an IRQ's id plus 2**60: ids outside [0, 2**60)
# would collide, so an IRQ -1 would be charged as task 2**60 - 1.
@pytest.mark.parametrize(
    "a, b", [((0, -1, -1), (1, 0, 0)), ((0, 5, 5), (2**60, 0, 0))], ids=["irq-1", "task-2**60"]
)
def test_build_slices_refuses_ids_outside_the_codes(a, b):
    kinds = (SCHEDULE, IRQ_BEGIN, IRQ_END)
    log = EventLog(*(array("q", column) for column in ((0, 10, 20), kinds, a, b)))
    with pytest.raises(ValueError, match=re.escape("[0, 2**60)")):
        build_slices(log, strict=False)


def test_build_slices_gives_the_collector_no_object_per_run():
    # a full collection scans every object the cyclic GC tracks: the runs are
    # columns, so replay's tracked objects grow with entities, not runs
    log = parse_trace(gate_shaped_trace(20_000))
    gc.collect()
    before = len(gc.get_objects())
    s = build_slices(log)
    added = len(gc.get_objects()) - before
    assert sum(map(len, s.task_runs.values())) + sum(map(len, s.irq_runs.values())) == 60_000
    assert added <= 1_000, f"{added} tracked objects"


def test_runs_view_builds_each_run_on_access(monkeypatch):
    s = build_slices(parse_trace(
        "<0000h 00m 00s 000 000> Task schedule: old 0 new 9\n"
        "<0000h 00m 00s 000 010> IRQ begin: 2\n"
        "<0000h 00m 00s 000 015> IRQ end: 2\n"
        "<0000h 00m 00s 000 025> Task schedule: old 9 new 9\n"
        "<0000h 00m 00s 000 060> Task schedule: old 9 new 0\n"
    ))
    runs = s.task_runs[9]
    expected = [Run(0, 25, 20), Run(25, 60, 35)]
    assert len(runs) == 2
    assert runs == expected and expected == runs and s.runs[9].tolist() == [0, 25, 20, 25, 60, 35]
    assert runs != expected[:1] and runs != tuple(expected)
    assert runs[0] == expected[0] and type(runs[-1]) is Run and runs[-1].net_us == 35
    assert runs[1:] == expected[1:] and runs[::-1] == expected[::-1]
    assert [list(c) for c in runs.columns] == [[0, 25], [25, 60], [20, 35]]
    assert list(s.irq_runs[2]) == [Run(10, 15, 5)]
    with pytest.raises(IndexError):
        runs[2]
    with pytest.raises(TypeError):
        runs[0] = expected[0]

    def refuse(cls, *fields):
        raise AssertionError(f"built a {cls.__name__}")

    monkeypatch.setattr(Run, "__new__", refuse)
    assert len(runs) == 2 and s.net_times()[Entity.task(9)] == 55
    with pytest.raises(AssertionError):
        runs[0]


def test_one_dispatch_per_task_with_net_of_irq_time(short_slices):
    runs = short_slices.task_runs
    assert runs[4] == [Run(1_290_764, 1_290_922, 135)]
    assert runs[5] == [Run(1_291_015, 1_291_230, 182)]
    assert short_slices.irq_runs[16] == [Run(1_290_838, 1_290_861, 23)]


def test_schedule_ins_back_successive_periods(short_slices):
    # task 3 is scheduled in twice, 628 us apart; nobody else repeats
    ins = short_slices.schedule_ins
    assert ins[3] == [1_290_602, 1_291_230]
    assert all(len(v) == 1 for k, v in ins.items() if k != 3)


def test_initial_task_defaults_to_idle():
    log = parse_trace(
        "<0000h 00m 00s 000 010> IRQ begin: 4\n"
        "<0000h 00m 00s 000 014> IRQ end: 4\n"
        "<0000h 00m 00s 000 020> Task schedule: old 0 new 1\n"
    )
    s = build_slices(log)
    assert s.net_times() == {Entity.task(0): 6, Entity.irq(4): 4}


def test_trace_without_a_switch_charges_idle():
    log = parse_trace(
        "<0000h 00m 00s 000 010> IRQ begin: 4\n"
        "<0000h 00m 00s 000 014> IRQ end: 4\n"
        "<0000h 00m 00s 000 020> IRQ begin: 4\n"
        "<0000h 00m 00s 000 025> IRQ end: 4\n"
    )
    assert build_slices(log).net_times() == {Entity.task(0): 6, Entity.irq(4): 9}


def test_runs_by_entity_lists_tasks_first_ids_ascending():
    s = build_slices(parse_trace(
        "<0000h 00m 00s 000 000> Task schedule: old 7 new 5\n"
        "<0000h 00m 00s 000 010> IRQ begin: 2\n"
        "<0000h 00m 00s 000 015> IRQ end: 2\n"
        "<0000h 00m 00s 000 020> Task schedule: old 5 new 3\n"
        "<0000h 00m 00s 000 030> Task schedule: old 3 new 0\n"
    ))
    runs = {entity_of(code): triples.tolist() for code, triples in s.runs.items()}
    assert list(runs) == [Entity.task(3), Entity.task(5), Entity.irq(2)] == s.entities
    assert runs == {Entity.task(3): [20, 30, 10], Entity.task(5): [0, 20, 15], Entity.irq(2): [10, 15, 5]}
    # an id that never ran has no list, and asking for one does not make it
    for by_id in (s.task_runs, s.irq_runs, s.schedule_ins):
        with pytest.raises(KeyError):
            by_id[7]


def test_nested_irq_charged_to_inner_handler():
    log = parse_trace(
        "<0000h 00m 00s 000 000> Task schedule: old 0 new 1\n"
        "<0000h 00m 00s 000 010> IRQ begin: 7\n"
        "<0000h 00m 00s 000 014> IRQ begin: 8\n"
        "<0000h 00m 00s 000 019> IRQ end: 8\n"
        "<0000h 00m 00s 000 030> IRQ end: 7\n"
        "<0000h 00m 00s 000 040> Task schedule: old 1 new 0\n"
    )
    s = build_slices(log)
    assert s.net_times() == {
        Entity.task(1): 20,
        Entity.irq(7): 15,  # 20 us span minus 5 us stolen by irq 8
        Entity.irq(8): 5,
    }
    # the outer invocation spans both, net of the inner
    assert s.irq_runs[7] == [Run(10, 30, 15)]


def test_self_switch_splits_dispatch_but_not_slice():
    log = parse_trace(
        "<0000h 00m 00s 000 000> Task schedule: old 0 new 9\n"
        "<0000h 00m 00s 000 025> Task schedule: old 9 new 9\n"
        "<0000h 00m 00s 000 060> Task schedule: old 9 new 0\n"
    )
    s = build_slices(log)
    assert s.task_runs[9] == [Run(0, 25, 25), Run(25, 60, 35)]
    assert s.slices == [ExecutionSlice(Entity.task(9), 0, 60)]
    assert s.schedule_ins[9] == [0, 25]


def test_zero_gross_dispatch_is_not_recorded():
    log = parse_trace(
        "<0000h 00m 00s 000 000> Task schedule: old 0 new 1\n"
        "<0000h 00m 00s 000 020> Task schedule: old 1 new 2\n"
        "<0000h 00m 00s 000 020> Task schedule: old 2 new 3\n"
        "<0000h 00m 00s 000 050> Task schedule: old 3 new 0\n"
    )
    s = build_slices(log)
    assert 2 not in s.task_runs
    # but the zero-width visit still counts as a schedule-in
    assert s.schedule_ins[2] == [20]
    assert sum(s.net_times().values()) == 50


def test_old_task_mismatch_strict_raises():
    log = parse_trace(
        "<0000h 00m 00s 000 000> Task schedule: old 0 new 1\n"
        "<0000h 00m 00s 000 020> Task schedule: old 5 new 2\n"
    )
    with pytest.raises(ConsistencyError) as exc:
        build_slices(log)
    assert exc.value.violation.kind == ViolationKind.OLD_TASK_MISMATCH
    assert exc.value.violation.at == 20


def test_old_task_mismatch_lenient_resyncs():
    log = parse_trace(
        "<0000h 00m 00s 000 000> Task schedule: old 0 new 1\n"
        "<0000h 00m 00s 000 020> Task schedule: old 5 new 2\n"
        "<0000h 00m 00s 000 050> Task schedule: old 2 new 0\n"
    )
    s = build_slices(log, strict=False)
    assert [v.kind for v in s.diagnostics] == [ViolationKind.OLD_TASK_MISMATCH]
    # charge up to the bad switch stays with the task we believed was running
    assert s.net_times() == {Entity.task(1): 20, Entity.task(2): 30}


def test_irq_end_without_begin_lenient_drops_event():
    log = parse_trace(
        "<0000h 00m 00s 000 000> Task schedule: old 0 new 1\n"
        "<0000h 00m 00s 000 020> IRQ end: 9\n"
        "<0000h 00m 00s 000 040> Task schedule: old 1 new 0\n"
    )
    with pytest.raises(ConsistencyError):
        build_slices(log)
    s = build_slices(log, strict=False)
    assert [v.kind for v in s.diagnostics] == [ViolationKind.IRQ_END_WITHOUT_BEGIN]
    assert s.net_times() == {Entity.task(1): 40}


def test_irq_end_id_mismatch_lenient_keeps_stack():
    log = parse_trace(
        "<0000h 00m 00s 000 000> Task schedule: old 0 new 1\n"
        "<0000h 00m 00s 000 010> IRQ begin: 7\n"
        "<0000h 00m 00s 000 020> IRQ end: 8\n"
        "<0000h 00m 00s 000 030> IRQ end: 7\n"
        "<0000h 00m 00s 000 040> Task schedule: old 1 new 0\n"
    )
    with pytest.raises(ConsistencyError):
        build_slices(log)
    s = build_slices(log, strict=False)
    assert [v.kind for v in s.diagnostics] == [ViolationKind.IRQ_END_ID_MISMATCH]
    assert s.net_times() == {Entity.task(1): 20, Entity.irq(7): 20}


def test_irq_open_at_trace_end_lenient_closes_it():
    log = parse_trace(
        "<0000h 00m 00s 000 000> Task schedule: old 0 new 1\n"
        "<0000h 00m 00s 000 030> IRQ begin: 7\n"
        "<0000h 00m 00s 000 050> Task schedule: old 1 new 0\n"
    )
    with pytest.raises(ConsistencyError):
        build_slices(log)
    s = build_slices(log, strict=False)
    assert [v.kind for v in s.diagnostics] == [ViolationKind.IRQ_OPEN_AT_TRACE_END]
    assert s.net_times() == {Entity.task(1): 30, Entity.irq(7): 20}
    assert s.irq_runs[7] == [Run(30, 50, 20)]


def test_validate_consistency_clean_trace(short_log):
    assert validate_consistency(short_log) == []


def test_validate_consistency_collects_all_violations():
    log = parse_trace(
        "<0000h 00m 00s 000 000> Task schedule: old 0 new 1\n"
        "<0000h 00m 00s 000 010> IRQ end: 9\n"
        "<0000h 00m 00s 000 020> Task schedule: old 5 new 2\n"
        "<0000h 00m 00s 000 030> IRQ begin: 7\n"
    )
    kinds = [v.kind for v in validate_consistency(log)]
    assert kinds == [
        ViolationKind.IRQ_END_WITHOUT_BEGIN,
        ViolationKind.OLD_TASK_MISMATCH,
        ViolationKind.IRQ_OPEN_AT_TRACE_END,
    ]


def test_validate_agrees_with_strict_build():
    # empty violation list if and only if the strict build goes through
    for seed in range(40):
        text, _ = generate_trace(random_scenario(seed))
        log = parse_trace(text)
        assert validate_consistency(log) == []
        build_slices(log)  # must not raise


def test_matches_per_microsecond_oracle_on_short_trace(short_log, short_slices):
    assert short_slices.net_times() == charge_by_microsecond(short_log.events)


def test_matches_per_microsecond_oracle_on_random_scenarios():
    for seed in range(25):
        text, _ = generate_trace(random_scenario(seed, n_runs=12, max_gross_us=200))
        log = parse_trace(text)
        assert build_slices(log).net_times() == charge_by_microsecond(log.events)


@settings(max_examples=200, deadline=None)
@given(damaged_traces())
def test_the_code_pass_finds_what_the_lenient_replay_finds(text):
    log = parse_trace(text)
    assert validate_consistency(log) == build_slices(log, strict=False).diagnostics
    # the same violations and the same entities open after every event
    task, start = _first_task(log), log.at[0]
    for k in range(len(log.at) + 1):
        head = EventLog(*(column[:k] for column in (log.at, log.kind, log.a, log.b)))
        codes = [task]
        violations = _check(head, codes)
        part = _replay(head, False, [(task, start, 0)], start, False)
        assert violations == part.violations
        assert codes == [code for code, _, _ in part.stack]


def _outcome(load, *args):
    """(parse diagnostics, SliceSet or violations), or the error's type and text."""
    try:
        return load(*args)
    except (ParseError, EmptyTraceError, ConsistencyError) as exc:
        return type(exc), str(exc)


def _one_process(text, strict, slices):
    log = parse_trace(text, strict)
    return log.diagnostics, build_slices(log, strict) if slices else validate_consistency(log)


@settings(max_examples=150, deadline=None)
@given(damaged_traces(junk=True))
def test_two_halves_cut_at_any_line_find_what_one_process_finds(text):
    cuts = [0, *(i + 1 for i, c in enumerate(text) if c == "\n")]
    for strict in (True, False):
        for slices in (True, False):
            whole = _outcome(_one_process, text, strict, slices)
            for cut in cuts:
                halves = _outcome(replay_halves, lambda: text, strict, slices, in_process, cut)
                assert halves == whole
                if isinstance(whole[1], SliceSet):  # field by field, the order of the maps too
                    assert list(halves[1].runs) == list(whole[1].runs)
                    assert list(halves[1].schedule_ins) == list(whole[1].schedule_ins)


@settings(max_examples=150, deadline=None)
@given(damaged_traces())
def test_lenient_replay_matches_the_microsecond_oracle_on_damaged_traces(text):
    log = parse_trace(text)
    s = build_slices(log, strict=False)
    # an entity that ran only beneath nested handlers nets 0 us: the oracle never sees it
    assert {e: net for e, net in s.net_times().items() if net} == charge_by_microsecond(log.events)
    if s.window.duration_us:
        tasks = {
            e.entity.id: [state for state, a, b in e.segments for _ in range(a, b)]
            for e in timeline(s).entities
            if e.entity.kind is EntityKind.TASK
        }
        assert tasks == task_states_by_microsecond(log.events)
