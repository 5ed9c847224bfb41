"""Scenario scripts, trace generation, and the analytic manifest."""

import hashlib
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schedtrace import (
    Entity,
    IrqSpec,
    MAX_TIMESTAMP_US,
    Scenario,
    ScenarioRun,
    ScriptError,
    TimestampRangeError,
    build_slices,
    generate_trace,
    manifest_csv,
    parse_script,
    parse_trace,
    random_scenario,
)
from tests.conftest import script_run
from tests.oracles import canonical_text, parse_script_by_line

SCRIPT = """\
# two tasks, one handler nested in the second run
run 3 50
run 7 100
  irq 16 20 30
  irq 9 25 10
"""


def test_parse_script():
    sc = parse_script(SCRIPT)
    assert sc == Scenario(
        0,
        (
            ScenarioRun(3, 50),
            ScenarioRun(7, 100, (IrqSpec(16, 20, 30), IrqSpec(9, 25, 10))),
        ),
    )


@pytest.mark.parametrize(
    "script, fragment",
    [
        ("run 3 0\n", "advance"),
        ("irq 1 0 5\n", "before any run"),
        ("run 3 10\n  irq 1 5 0\n", "length"),
        ("run 3 10\n  irq 1 8 5\n", "outside"),
        ("run 3 10\n  irq 1 0 5\n  irq 2 3 5\n", "overlap"),
        ("walk 3 10\n", "unknown directive"),
        ("", "no runs"),
        ("# only a comment\n", "no runs"),
        ("run 3 ten\n", "integers"),
    ],
)
def test_parse_script_rejects(script, fragment):
    with pytest.raises(ScriptError) as exc:
        parse_script(script)
    assert fragment in str(exc.value)


def _outcome(parse, text):
    try:
        return parse(text)
    except ScriptError as exc:
        return exc.message, exc.line


_RUN_LINES = st.builds(
    script_run,
    st.sampled_from([1, 2, 10**18 - 1]),
    st.integers(1, 10),
    st.lists(st.tuples(st.sampled_from([3, 4, 10**18 - 1]), st.integers(0, 9), st.integers(0, 9)), max_size=6),
)
_BAD_LINES = [
    "# a comment", "", "run 1", "run 1 0", "run -1 3", f"run {10**18} 3", "walk 1 2",
    "irq x 1 2", "irq 1 2", "irq -1 1 1", f"irq {10**18} 1 1", "irq 5 0 0", "irq 5 -1 2", "irq 5 2 99",
]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_RUN_LINES, max_size=4),
    st.lists(st.tuples(st.integers(0, 30), st.sampled_from(_BAD_LINES)), max_size=2),
)
def test_parse_script_gives_the_per_line_checks_outcome(runs, bad):
    lines = [line for run in runs for line in run]
    for at, line in bad:
        lines.insert(at, line)
    text = "\n".join(lines)
    assert _outcome(parse_script, text) == _outcome(parse_script_by_line, text)


@pytest.mark.parametrize("nested", [False, True], ids=["disjoint", "nested"])
def test_parse_script_checks_a_long_run_once(nested):
    n = 20_000
    irqs = [f"irq {i % 7} {i} {2 * (n - i)}" if nested else f"irq 1 {2 * i} 1" for i in range(n)]
    text = f"run 1 {2 * n}\n" + "\n".join(irqs) + "\n"
    t0 = time.perf_counter()
    scenario = parse_script(text)
    elapsed = time.perf_counter() - t0
    assert len(scenario.runs[0].irqs) == n
    assert elapsed < 1.0, f"{n} interrupts parsed in {elapsed:.2f} s"
    # the first bad line is named however long the run
    with pytest.raises(ScriptError) as exc:
        parse_script(text + f"irq 5 {2 * n - 1} 2\nirq 1 0 0\n")
    assert exc.value.line == n + 2 and "irq 5 ends at offset" in exc.value.message


@pytest.mark.parametrize("char", ["\x0c", "\x1c", "\x85", "\u2028"])
def test_parse_script_ends_lines_only_at_lf(char):
    with pytest.raises(ScriptError) as exc:
        parse_script(f"run 3 10{char}\r\nrun 4 ten\n")
    assert exc.value.line == 2


def test_generate_trace_boundary_events():
    text, _ = generate_trace(
        Scenario(100, (ScenarioRun(3, 40), ScenarioRun(4, 60))),
        prior_task=9,
        final_task=2,
    )
    lines = text.splitlines()
    assert lines[0].endswith("> Task schedule: old 9 new 3")
    assert lines[1].endswith("> Task schedule: old 3 new 4")
    assert lines[-1].endswith("> Task schedule: old 4 new 2")
    assert "<0000h 00m 00s 000 100>" in lines[0]
    assert "<0000h 00m 00s 000 200>" in lines[-1]


def test_generate_trace_takes_ids_in_the_trace_format_range_only():
    top = 10**18 - 1
    text, manifest = generate_trace(
        Scenario(0, (ScenarioRun(top, 5, (IrqSpec(top, 1, 2),)),)), prior_task=top, final_task=top
    )
    assert [l.split("> ")[1] for l in text.splitlines()] == [
        f"Task schedule: old {top} new {top}",
        f"IRQ begin: {top}",
        f"IRQ end: {top}",
        f"Task schedule: old {top} new {top}",
    ]
    assert build_slices(parse_trace(text)).net_times() == manifest.net_us
    for bad in (-1, 10**18):
        for scenario, name in (
            (Scenario(0, (ScenarioRun(bad, 5),)), "task"),
            (Scenario(0, (ScenarioRun(1, 5, (IrqSpec(bad, 1, 2),)),)), "irq"),
        ):
            with pytest.raises(ScriptError) as exc:
                generate_trace(scenario)
            assert str(exc.value) == f"{name} id must lie in [0, 10**18)" and exc.value.line is None
        for name in ("prior_task", "final_task"):
            with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 10\*\*18\)$"):
                generate_trace(Scenario(0, (ScenarioRun(1, 5),)), **{name: bad})


def test_generate_trace_nested_irq_events_and_nets():
    sc = parse_script(SCRIPT)
    text, manifest = generate_trace(sc)
    # irq 9 sits inside irq 16, so begin/end pairs nest
    assert [l.split("> ")[1] for l in text.splitlines()] == [
        "Task schedule: old 0 new 3",
        "Task schedule: old 3 new 7",
        "IRQ begin: 16",
        "IRQ begin: 9",
        "IRQ end: 9",
        "IRQ end: 16",
        "Task schedule: old 7 new 0",
    ]
    assert manifest.window_us == 150
    assert manifest.net_us == {
        Entity.task(3): 50,
        Entity.task(7): 70,  # 100 gross minus the 30 us handler window
        Entity.irq(16): 20,  # 30 minus the nested 10
        Entity.irq(9): 10,
    }


def test_identical_irq_spans_nest_in_listing_order():
    sc = parse_script("run 1 10\n  irq 5 2 4\n  irq 6 2 4\n")
    text, manifest = generate_trace(sc)
    payloads = [l.split("> ")[1] for l in text.splitlines()]
    assert payloads[1:5] == ["IRQ begin: 5", "IRQ begin: 6", "IRQ end: 6", "IRQ end: 5"]
    assert manifest.net_us[Entity.irq(5)] == 0
    assert manifest.net_us[Entity.irq(6)] == 4
    assert manifest.net_us[Entity.task(1)] == 6


def test_irqs_sharing_a_start_nest_the_longest_outermost():
    sc = parse_script("run 1 10\n  irq 5 2 2\n  irq 6 2 6\n")
    text, manifest = generate_trace(sc)
    payloads = [l.split("> ")[1] for l in text.splitlines()]
    assert payloads[1:5] == ["IRQ begin: 6", "IRQ begin: 5", "IRQ end: 5", "IRQ end: 6"]
    assert manifest.dispatch_samples == {Entity.irq(5): [2], Entity.irq(6): [4], Entity.task(1): [4]}


def test_manifest_counts_dispatches_and_periods():
    sc = parse_script("run 2 10\nrun 3 20\nrun 2 30\n")
    text, manifest = generate_trace(sc)
    assert manifest.dispatch_samples[Entity.task(2)] == [10, 30]
    assert manifest.dispatch_samples[Entity.task(3)] == [20]
    # task 2 scheduled in at 0 and 30; the final switch back to task 0
    # does not give task 2 a third sample
    assert manifest.period_samples == {2: [30]}
    # and the analyzer reads the same trace the same way
    s = build_slices(parse_trace(text))
    assert s.schedule_ins[2] == [0, 30]


def test_manifest_matches_analyzer_exactly():
    for seed in range(60):
        scenario = random_scenario(seed)
        text, manifest = generate_trace(scenario, prior_task=5, final_task=1)
        s = build_slices(parse_trace(text))
        assert s.net_times() == manifest.net_us
        assert manifest.window_us == s.window.duration_us
        observed = {
            Entity.task(t): Counter(r.net_us for r in v) for t, v in s.task_runs.items()
        }
        observed |= {
            Entity.irq(i): Counter(r.net_us for r in v) for i, v in s.irq_runs.items()
        }
        assert observed == {e: Counter(v) for e, v in manifest.dispatch_samples.items()}
        periods = {
            t: Counter(b - a for a, b in zip(ins, ins[1:]))
            for t, ins in s.schedule_ins.items()
            if len(ins) > 1
        }
        assert periods == {t: Counter(v) for t, v in manifest.period_samples.items()}


def test_random_scenario_is_seed_deterministic():
    assert random_scenario(42) == random_scenario(42)
    assert random_scenario(42) != random_scenario(43)
    text_a, _ = generate_trace(random_scenario(42))
    text_b, _ = generate_trace(random_scenario(42))
    assert text_a == text_b


def test_generate_trace_writes_the_pinned_bytes_of_a_thousand_scenarios():
    digest = hashlib.sha256()
    for seed in range(1000):
        text, manifest = generate_trace(random_scenario(seed))
        digest.update(text.encode())
        digest.update(manifest_csv(manifest).encode())
        if seed < 100:
            assert canonical_text(parse_trace(text).events) == text
    assert digest.hexdigest() == "7092f44f560280045020e48cb074d1d6a70e6360169aafc45705fc3d01114fe8"


def test_generate_trace_checks_each_run_before_writing_its_switch():
    late = MAX_TIMESTAMP_US - 4  # the first run ends past the format's last timestamp
    with pytest.raises(ScriptError):
        generate_trace(Scenario(MAX_TIMESTAMP_US + 1, (ScenarioRun(1, 0),)))
    with pytest.raises(TimestampRangeError):
        generate_trace(Scenario(late, (ScenarioRun(1, 10), ScenarioRun(2, 10), ScenarioRun(3, 0))))


def test_random_scenario_respects_knobs():
    sc = random_scenario(7, n_tasks=3, n_runs=10, max_gross_us=50)
    assert len(sc.runs) == 10
    assert all(0 <= r.task <= 3 for r in sc.runs)
    assert all(1 <= r.gross_us <= 50 for r in sc.runs)


def test_random_scenario_never_emits_tied_timestamps():
    for seed in range(50):
        text, _ = generate_trace(random_scenario(seed))
        events = parse_trace(text).events
        assert all(a.at < b.at for a, b in zip(events, events[1:]))


def test_generated_traces_parse_clean_and_conserve():
    for seed in range(50):
        text, manifest = generate_trace(random_scenario(seed))
        s = build_slices(parse_trace(text))
        assert sum(s.net_times().values()) == manifest.window_us


def test_manifest_csv_layout():
    _, manifest = generate_trace(parse_script("run 2 10\nrun 3 20\n"))
    assert manifest_csv(manifest) == (
        "entity,kind,net_us\n"
        "2,task,10\n"
        "3,task,20\n"
        "window_us,,30\n"
    )


def test_scenario_start_offset_shifts_all_timestamps():
    base, _ = generate_trace(parse_script("run 2 10\n"))
    shifted, _ = generate_trace(Scenario(1_000_000, (ScenarioRun(2, 10),)))
    base_ats = [e.at for e in parse_trace(base).events]
    shifted_ats = [e.at for e in parse_trace(shifted).events]
    assert shifted_ats == [at + 1_000_000 for at in base_ats]
