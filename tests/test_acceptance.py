"""End-to-end acceptance checks.

Each test prints one PASS line when its check holds; a failure surfaces as
an ordinary assertion.  The corpus fixtures are shared so the thousand
random scenarios are generated and analyzed once.
"""

import json
import random
import time
from collections import Counter

import pytest

from schedtrace import (
    Entity,
    IrqBegin,
    IrqEnd,
    Scenario,
    ScenarioRun,
    IrqSpec,
    TaskSchedule,
    Window,
    average_load,
    build_slices,
    fit_exponential,
    fit_uniform,
    generate_trace,
    parse_trace,
    random_scenario,
    render,
    render_event,
    task_statistics,
    utilization,
)
from schedtrace.cli import run
from tests.conftest import SHORT_TRACE
from tests.oracles import charge_by_microsecond, charge_slots_by_microsecond


def _ok(name: str) -> None:
    print(f"acceptance [{name}]: PASS")


@pytest.fixture(scope="module")
def corpus():
    """1000 seeded scenarios, generated and analyzed once, with timing."""
    items = []
    started = time.perf_counter()
    for seed in range(1000):
        scenario = random_scenario(seed)
        text, manifest = generate_trace(scenario)
        sliceset = build_slices(parse_trace(text))
        items.append((manifest, sliceset))
    elapsed = time.perf_counter() - started
    return items, elapsed


def test_fixture_trace_end_to_end():
    # ten-line sample: task 4 nets exactly 135 us, handlers 23 and 33 us
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        s = build_slices(parse_trace(SHORT_TRACE))
        report = task_statistics(s)
        best = min(best, time.perf_counter() - t0)
    nets = {r.entity: r.net_us for r in report.rows}
    assert nets[Entity.task(4)] == 135
    assert nets[Entity.irq(16)] == 23
    assert nets[Entity.irq(23)] == 33
    assert best < 0.010, f"end-to-end took {best * 1e3:.2f} ms"
    _ok("fixture trace end-to-end")


def test_conservation_over_random_corpus(corpus):
    items, elapsed = corpus
    for manifest, sliceset in items:
        assert sum(sliceset.net_times().values()) == sliceset.window.duration_us
        assert sliceset.window.duration_us == manifest.window_us
    assert elapsed < 10.0, f"corpus generation+analysis took {elapsed:.2f} s"
    _ok(f"conservation on 1000 scenarios in {elapsed:.2f} s")


def test_analyzer_matches_generator_manifest(corpus):
    items, _ = corpus
    for manifest, sliceset in items:
        assert sliceset.net_times() == manifest.net_us
        observed = {
            Entity.task(t): Counter(r.net_us for r in runs)
            for t, runs in sliceset.task_runs.items()
        }
        observed |= {
            Entity.irq(i): Counter(r.net_us for r in runs)
            for i, runs in sliceset.irq_runs.items()
        }
        assert observed == {e: Counter(v) for e, v in manifest.dispatch_samples.items()}
        periods = {
            t: Counter(b - a for a, b in zip(ins, ins[1:]))
            for t, ins in sliceset.schedule_ins.items()
            if len(ins) > 1
        }
        assert periods == {t: Counter(v) for t, v in manifest.period_samples.items()}
    _ok("generator manifest round trip on 1000 scenarios")


def test_brute_force_microsecond_equivalence():
    for seed in range(100):
        text, _ = generate_trace(random_scenario(seed))
        log = parse_trace(text)
        assert log.window.duration_us <= 10_000
        assert build_slices(log).net_times() == charge_by_microsecond(log.events)
    _ok("per-microsecond oracle equivalence on 100 scenarios")


def test_utilization_sanity(corpus):
    items, _ = corpus
    for i, (_, sliceset) in enumerate(items):
        duration = sliceset.window.duration_us
        # every fully covered slot sums to 1
        width = max(duration // 7, 1)
        rep = utilization(sliceset, slot_width_us=width)
        for slot in rep.slots:
            if not slot.partial:
                total = sum(f for _, f in slot.fractions)
                assert abs(total - 1.0) < 1e-9
        # a single slot spanning the window reproduces average load
        single = utilization(sliceset, slot_width_us=duration)
        load = average_load(sliceset)
        assert dict(single.slots[0].fractions) == {
            r.entity: r.utilization for r in load.rows
        }
        # a slot-aligned zoom is the restriction of the full computation
        if duration >= 3 * width and i % 10 == 0:
            full = utilization(sliceset, slot_width_us=width)
            start = sliceset.window.start
            view = Window(start + width, start + 3 * width)
            zoomed = utilization(sliceset, slot_width_us=width, view=view)
            assert [s.fractions for s in zoomed.slots] == [
                s.fractions for s in full.slots[1:3]
            ]
    _ok("utilization sanity across corpus")


def _scaled(scenario: Scenario, k: int) -> Scenario:
    """The scenario with every duration and offset multiplied by k."""
    return Scenario(
        scenario.start_us * k,
        tuple(
            ScenarioRun(
                r.task,
                r.gross_us * k,
                tuple(IrqSpec(q.irq, q.offset_us * k, q.length_us * k) for q in r.irqs),
            )
            for r in scenario.runs
        ),
    )


def _check_slots_against_oracle(log, sliceset, width, view=None):
    rep = utilization(sliceset, slot_width_us=width, view=view)
    start, end = rep.view
    expected = charge_slots_by_microsecond(log.events, start, end, width)
    assert [slot.start_us for slot in rep.slots] == [s for s, _ in expected]
    for slot, (_, charge) in zip(rep.slots, expected):
        span = slot.span_us
        assert span == min(width, end - slot.start_us)
        assert slot.partial == (span < width)
        assert [e for e, _ in slot.fractions] == sorted(charge)
        assert {e: round(f * span) for e, f in slot.fractions} == charge


def _views_inside_slices(slices):
    """Zoom views whose edges fall strictly inside slices: one spanning from
    the first slice to the last, one inside a single slice."""
    long = [(a, b) for _, a, b in slices if b - a >= 3]
    mid = long[len(long) // 2]
    return [Window(long[0][0] + 1, long[-1][1] - 1), Window(mid[0] + 1, mid[1] - 1)]


def test_utilization_slots_match_microsecond_oracle():
    for seed in range(20):
        # width 1: every microsecond is a slot of its own
        text, _ = generate_trace(random_scenario(seed, n_runs=8, max_gross_us=60))
        log = parse_trace(text)
        sliceset = build_slices(log)
        _check_slots_against_oracle(log, sliceset, 1)
        for view in _views_inside_slices(sliceset.slices):
            for width in (1, 7):
                _check_slots_against_oracle(log, sliceset, width, view)
        # durations scaled by 10 put every slice end on an edge of a 10 us
        # slot, and the slice ends picked below on the first slot's end
        text, _ = generate_trace(_scaled(random_scenario(seed, n_runs=6, max_gross_us=100), 10))
        log = parse_trace(text)
        sliceset = build_slices(log)
        origin = sliceset.window.start
        for width in (10, 30, *(b - origin for _, _, b in sliceset.slices[1::3])):
            _check_slots_against_oracle(log, sliceset, width)
        for view in _views_inside_slices(sliceset.slices):
            _check_slots_against_oracle(log, sliceset, 130, view)
    _ok("utilization slots match the per-microsecond oracle")


def test_fit_recovery():
    rng = random.Random(617)
    exp_draws = [rng.expovariate(0.01) for _ in range(10_000)]
    fit = fit_exponential(exp_draws)
    assert abs(fit.rate_per_us - 0.01) <= 0.01 * 0.05
    uni_draws = [rng.uniform(100, 500) for _ in range(10_000)]
    ufit = fit_uniform(uni_draws)
    assert ufit.lower == min(uni_draws)
    assert ufit.upper == max(uni_draws)
    assert 100 <= ufit.lower <= 110
    assert 490 <= ufit.upper <= 500
    _ok(f"fit recovery (rate {fit.rate_per_us:.5f}, bounds "
        f"[{ufit.lower:.1f}, {ufit.upper:.1f}])")


def test_parser_round_trip_random_events():
    rng = random.Random(4096)
    for _ in range(10_000):
        at = rng.randrange(0, 36_000_000_000_000)
        pick = rng.randrange(3)
        if pick == 0:
            ev = TaskSchedule(at, rng.randrange(10_000), rng.randrange(10_000))
        elif pick == 1:
            ev = IrqBegin(at, rng.randrange(10_000))
        else:
            ev = IrqEnd(at, rng.randrange(10_000))
        line = render_event(ev)
        assert render_event(parse_trace(line).events[0]) == line
    _ok("render/parse round trip on 10000 events")


def test_stats_report_exposes_summary_field_set(short_slices):
    # per entity: a utilization share, worst case, minimum, and average
    report = task_statistics(short_slices)
    for row in report.rows:
        assert isinstance(row.share, float)
        s = row.execution.summary
        assert s.maximum >= s.minimum
        assert s.minimum <= s.mean <= s.maximum
    text = render(report, "text")
    for row in report.rows:
        assert row.entity.label in text
    block_labels = ("utilization", "worst case", "minimum", "average")
    for label in block_labels:
        assert text.count(label) >= len(report.rows)
    _ok("stats report carries the per-entity summary field set")


def _million_event_scenario() -> Scenario:
    # 5 events per double-interrupt run, so 199_999 of them plus one
    # single-interrupt run and one bare run land on 1_000_000 exactly
    double = (IrqSpec(31, 1, 1), IrqSpec(32, 3, 1))
    runs = [
        ScenarioRun(1 + (i % 8), 5, double) for i in range(199_999)
    ]
    runs.append(ScenarioRun(1, 5, (IrqSpec(31, 1, 1),)))
    runs.append(ScenarioRun(2, 5))
    return Scenario(0, tuple(runs))


@pytest.mark.slow
def test_throughput_million_events(tmp_path):
    scenario = _million_event_scenario()
    text, _ = generate_trace(scenario)
    assert text.count("\n") == 1_000_000
    trace_path = tmp_path / "big.txt"
    trace_path.write_text(text)
    out_dir = tmp_path / "reports"
    t0 = time.perf_counter()
    code = run([
        "analyze", str(trace_path),
        "--report", "load", "--report", "utilization",
        "--report", "stats", "--report", "timeline",
        "-o", str(out_dir),
    ])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "load.txt", "stats.txt", "timeline.txt", "utilization.txt"
    ]
    assert elapsed < 10.0, f"analysis took {elapsed:.2f} s"
    _ok(f"1e6-event trace analyzed in {elapsed:.2f} s")
