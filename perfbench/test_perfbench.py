"""Cross-checks of the benchmark's generator, oracle and report checks.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py

The generator and oracle are compared with `schedtrace.synthgen` manifests
and with the brute-force `tests.oracles.charge_by_microsecond`, on small
seeded scenarios with and without injected faults and zoom views.  The
checks are run on the program's real output, and on copies of it with one
value changed, which they must reject.
"""

import random

import pytest

import checks
import workloads
from scenario import (
    IRQ,
    TASK,
    Oracle,
    events,
    inject_faults,
    random_scenario,
    render_lines,
)
from schedtrace import Entity, TaskSchedule, build_slices, parse_trace
from schedtrace.cli import run
from schedtrace.replay import validate_consistency
from schedtrace.synthgen import IrqSpec, Scenario, ScenarioRun, generate_trace
from tests.oracles import charge_by_microsecond

SEEDS = range(12)


def _small(seed, probe=(90, (20, 27, 34), 7)):
    return random_scenario(
        seed,
        start_us=random.Random(seed).randrange(0, 3_600_000_000),
        n_runs=40,
        tasks=range(5),
        irq_ids=range(4),
        gross=lambda r: 20 + int(r.expovariate(1 / 300)),
        irq_counts=(0, 1, 2, 3),
        nest_p=0.5,
        depth=3,
        probe=probe,
    )


def _entity(key):
    return Entity.task(key[1]) if key[0] == TASK else Entity.irq(key[1])


def _synthgen(sc):
    def specs(irqs, base):
        for irq in irqs:
            yield IrqSpec(irq.irq, irq.begin - base, irq.end - irq.begin)
            yield from specs(irq.children, base)

    runs = tuple(
        ScenarioRun(r.task, r.end - r.start, tuple(specs(r.irqs, r.start))) for r in sc.runs
    )
    return generate_trace(
        Scenario(sc.runs[0].start, runs), prior_task=sc.prior_task, final_task=sc.final_task
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_trace_and_oracle_match_synthgen(seed):
    sc = _small(seed)
    text, manifest = _synthgen(sc)
    assert "\n".join(render_lines(events(sc))) + "\n" == text
    o = Oracle(sc)
    assert o.duration == manifest.window_us
    assert {_entity(k): v for k, v in o.net.items()} == manifest.net_us
    for key, samples in o.samples.items():
        assert sorted(samples) == sorted(manifest.dispatch_samples[_entity(key)])
    periods = {task: o.periods(task) for task in o.schedule_ins}
    assert {t: p for t, p in periods.items() if p} == manifest.period_samples


def _charge_before(evs, t):
    """Brute-force charge of [window start, t)."""
    kept = [ev for ev in evs if ev.at < t]
    return charge_by_microsecond(kept + [TaskSchedule(t, 0, 0)])


@pytest.mark.parametrize("seed", SEEDS)
def test_oracle_matches_brute_force_in_zoom_views(seed):
    sc = _small(seed)
    o = Oracle(sc)
    evs = parse_trace("\n".join(render_lines(events(sc)))).events
    start, end = o.window
    assert {_entity(k): v for k, v in o.charge_in(start, end).items()} == {
        k: v for k, v in charge_by_microsecond(evs).items() if v
    }
    rng = random.Random(seed)
    for _ in range(5):
        lo, hi = sorted(rng.sample(range(start, end + 1), 2))
        before, upto = _charge_before(evs, lo), _charge_before(evs, hi)
        want = {e: upto[e] - before.get(e, 0) for e in upto if upto[e] > before.get(e, 0)}
        assert {_entity(k): v for k, v in o.charge_in(lo, hi).items()} == want
        states = o.states_in(lo, hi, o.charge_in(lo, hi))
        for key, spent in states.items():
            assert sum(spent.values()) == hi - lo
            if key[0] == TASK:
                assert spent["running"] == want.get(_entity(key), 0)


@pytest.mark.parametrize("seed", SEEDS)
def test_injected_faults_leave_the_accounting_unchanged(seed):
    sc = _small(seed)
    evs = events(sc)
    dirty = inject_faults(evs, seed=seed, rate=0.3, crlf_share=0.3)
    assert sum(dirty.fault_counts[k] for k in ("orphan_irq_end", "wrong_old_task")) > 0
    log = parse_trace("".join(dirty.lines).encode(), strict=False)
    assert [(d.line, d.kind.value) for d in log.diagnostics] == dirty.parse_faults
    assert [(v.at, v.kind.value) for v in validate_consistency(log)] == dirty.violations
    clean = build_slices(parse_trace("\n".join(render_lines(evs))))
    repaired = build_slices(log, strict=False)
    assert repaired.slices == clean.slices
    assert repaired.task_runs == clean.task_runs
    assert repaired.irq_runs == clean.irq_runs
    assert {_entity(k): v for k, v in Oracle(sc).net.items()} == repaired.net_times()


def test_histogram_rule_and_the_float_binning_fault():
    exp = checks.expected_series(list(range(1, 20)), 14)
    # sample 10 lies on edge 9.0 above the minimum: bin 7 by the rule
    assert exp["counts"][7] == 2 and exp["float_counts"][7] == 1
    assert sum(exp["counts"]) == sum(exp["float_counts"]) == 19


def test_ks_per_sample_agrees_with_the_tests_reference():
    from tests.oracles import ks_statistic_per_sample

    xs = [random.Random(3).randint(1, 40) for _ in range(200)]
    cdf = lambda x: 1 - 2.0 ** (-x / 10)  # noqa: E731
    assert checks.ks_per_sample(xs, cdf) == ks_statistic_per_sample(xs, cdf)


def _small_workload(name, seed, work):
    return workloads.WORKLOADS[name](seed, work, n_runs=400)


def _run_ops(wl, capsys):
    """Problems per operation of one repetition, run in this process."""
    out = {}
    for name, args, expected in wl.commands():
        capsys.readouterr()
        code = run(args)
        captured = capsys.readouterr()
        if name == "validate":
            assert code == expected
            found = checks.read_validate_output(captured.out.encode(), captured.err.encode())
            out["validate"] = wl.check_validate(*found)
        else:
            assert code == expected, captured.err
    for name in wl.report_files():
        out[name] = wl.check_report(name, wl.out / name)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_checks_pass_on_program_output(name, seed, tmp_path, capsys):
    wl = _small_workload(name, seed, tmp_path)
    results = _run_ops(wl, capsys)
    for op, problems in results.items():
        tags = {tag for tag, _ in problems}
        assert tags <= {checks.HISTOGRAM_EDGE}, (op, problems)


@pytest.mark.parametrize("name, probe", [("sparse-json", 90), ("dirty-zoom-csv", 91)])
def test_probe_irq_puts_a_sample_on_a_bin_edge(name, probe, tmp_path):
    # whatever the seed, float binning and the integer rule part on the probe
    for seed in (1, 2):
        wl = _small_workload(name, seed, tmp_path / str(seed))
        exp = wl.expected.series[((IRQ, probe), "exec")]
        assert exp["counts"] != exp["float_counts"]


def _mutate(path, old, new):
    data = path.read_text()
    assert old in data
    path.write_text(data.replace(old, new, 1))


@pytest.mark.parametrize(
    "name, report, old, new",
    [
        ("dirty-zoom-csv", "load.csv", ",task,", ",irq,"),
        ("dirty-zoom-csv", "utilization.csv", ",task,", ",irq,"),
        ("dirty-zoom-csv", "timeline.csv", ",running,", ",inactive,"),
        ("dirty-zoom-csv", "stats.csv", ",task,", ",irq,"),
        ("sparse-json", "stats.json", '"count": ', '"count": 1'),
        ("sparse-json", "timeline.json", '"end_us": ', '"end_us": 1'),
        ("sparse-json", "load.json", '"net_us": ', '"net_us": 1'),
        ("gate-1m-text", "load.txt", "task 1 ", "task 9 "),
        ("gate-1m-text", "timeline.txt", "running ", "inactive"),
        ("gate-1m-text", "stats.txt", "samples        ", "samples        1"),
        ("gate-1m-text", "utilization.txt", "0.", "1."),
    ],
)
def test_checks_reject_a_changed_report(name, report, old, new, tmp_path, capsys):
    wl = _small_workload(name, 1, tmp_path)
    _run_ops(wl, capsys)
    _mutate(wl.out / report, old, new)
    try:
        problems = wl.check_report(report, wl.out / report)
    except (ValueError, KeyError, IndexError):
        return  # unreadable counts as failed too
    assert checks.WRONG in {tag for tag, _ in problems}


def test_validate_check_rejects_a_missing_violation(tmp_path, capsys):
    wl = _small_workload("dirty-zoom-csv", 3, tmp_path)
    assert wl.faults.violations
    assert wl.check_validate(wl.faults.parse_faults, wl.faults.violations[1:])


def test_inputs_repeat_for_a_seed(tmp_path):
    a = _small_workload("dirty-zoom-csv", 5, tmp_path / "a")
    b = _small_workload("dirty-zoom-csv", 5, tmp_path / "b")
    c = _small_workload("dirty-zoom-csv", 6, tmp_path / "c")
    assert a.trace.read_bytes() == b.trace.read_bytes() != c.trace.read_bytes()
    assert (IRQ, 91) in a.oracle.samples
