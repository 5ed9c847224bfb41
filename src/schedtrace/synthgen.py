"""Synthetic scenario scripts, trace generation, and ground-truth manifests.

A scenario is an ordered list of task runs, each a gross duration with
optional interrupts placed inside it.  Generating a trace from a scenario
also computes the expected accounting analytically, which gives tests an
oracle that never went through the replay code.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .errors import ScriptError
from .model import Entity, format_timestamp


class IrqSpec(NamedTuple):
    irq: int
    offset_us: int
    length_us: int

    @property
    def end_us(self) -> int:
        return self.offset_us + self.length_us


class ScenarioRun(NamedTuple):
    task: int
    gross_us: int
    irqs: tuple[IrqSpec, ...] = ()


class Scenario(NamedTuple):
    start_us: int
    runs: tuple[ScenarioRun, ...]


class Manifest(NamedTuple):
    """Analytically computed ground truth for a generated trace."""

    window_us: int
    net_us: dict[Entity, int]
    dispatch_samples: dict[Entity, list[int]]
    period_samples: dict[int, list[int]]


ID_LIMIT = 10**18  # task and IRQ ids in the trace format have at most 18 digits


def _nest(run: ScenarioRun, line: int | None = None) -> tuple[list[tuple], int]:
    """Check a run and lay its interrupts out in trace order.

    The task id lies in [0, 10**18) and the run takes time.  Any two
    interrupts must be disjoint or nested (LIFO order); interrupts must fit
    inside the run, and their ids lie in [0, 10**18).  Specs with identical
    spans nest in listing order; ScriptError at `line` otherwise.  Returns
    the (offset_us, irq, net_us) of each begin and end in the order the
    trace holds them, net_us None at a begin and at an end the handler's
    length minus its direct children's, and the time of the run's top-level
    interrupts.
    """
    if not 0 <= run.task < ID_LIMIT:
        raise ScriptError("task id must lie in [0, 10**18)", line)
    if run.gross_us < 1:
        raise ScriptError("a run must advance time", line)
    for spec in run.irqs:
        if not 0 <= spec.irq < ID_LIMIT:
            raise ScriptError("irq id must lie in [0, 10**18)", line)
        if spec.length_us < 1:
            raise ScriptError(
                f"irq {spec.irq} has zero length; interrupts must take time", line
            )
        if spec.offset_us < 0:
            raise ScriptError(f"irq {spec.irq} has a negative offset", line)
        if spec.end_us > run.gross_us:
            raise ScriptError(
                f"irq {spec.irq} ends at offset {spec.end_us} us, outside its"
                f" {run.gross_us} us run",
                line,
            )
    walk: list[tuple] = []
    stack: list[list] = [[None, 0]]  # [spec, its direct children's time]: the run, then each open one
    for spec in sorted(run.irqs, key=lambda s: (s.offset_us, -s.length_us)) + [None]:
        # an open handler ends before the next interrupt that starts at or after
        # its end; the None after the last interrupt ends them all
        while len(stack) > 1 and (spec is None or spec.offset_us >= stack[-1][0].end_us):
            done, inner = stack.pop()
            walk.append((done.end_us, done.irq, done.length_us - inner))
            stack[-1][1] += done.length_us
        if spec is None:
            return walk, stack[0][1]
        parent = stack[-1][0]
        if parent is not None and spec.end_us > parent.end_us:
            raise ScriptError(
                f"irq {spec.irq} overlaps irq {parent.irq} without nesting inside it",
                line,
            )
        walk.append((spec.offset_us, spec.irq, None))
        stack.append([spec, 0])


def _check_run(task: int, gross: int, specs: list[IrqSpec], lines: list[int]) -> ScenarioRun:
    """The run, once it passes _nest; else the ScriptError of the first of
    `lines`, the run's line and then each irq line, at which it fails."""

    def fails(k: int) -> bool:  # whether the run with its first k interrupts fails
        try:
            _nest(ScenarioRun(task, gross, tuple(specs[:k])))
        except ScriptError:
            return True
        return False

    if fails(len(specs)):
        from bisect import bisect_left  # here, so that only a failing script loads it

        k = bisect_left(range(len(lines)), True, key=fails)  # a failing prefix fails when extended
        _nest(ScenarioRun(task, gross, tuple(specs[:k])), lines[k])
    return ScenarioRun(task, gross, tuple(specs))


def parse_script(text: str) -> Scenario:
    """Parse a scenario script.

    One `run <task> <gross_us>` line per task run, each optionally followed
    by `irq <id> <offset_us> <length_us>` lines for interrupts inside that
    run.  `#` starts a comment; blank lines are ignored.  Ids lie in
    [0, 10**18).
    """
    runs: list[tuple] = []  # task, gross, specs, and the lines of the run and of its specs
    for lineno, raw in enumerate(text.split("\n"), 1):  # only LF ends a line, as in traces
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "run":
                if len(parts) != 3:
                    raise ScriptError("expected: run <task> <gross_us>", lineno)
                try:
                    task, gross = int(parts[1]), int(parts[2])
                except ValueError:
                    raise ScriptError("run fields must be integers", lineno) from None
                runs.append((task, gross, [], [lineno]))
            elif parts[0] == "irq":
                if not runs:
                    raise ScriptError("irq line before any run", lineno)
                if len(parts) != 4:
                    raise ScriptError("expected: irq <id> <offset_us> <length_us>", lineno)
                try:
                    irq, offset, length = (int(p) for p in parts[1:])
                except ValueError:
                    raise ScriptError("irq fields must be integers", lineno) from None
                specs, lines = runs[-1][2:]
                specs.append(IrqSpec(irq, offset, length))
                lines.append(lineno)
            else:
                raise ScriptError(f"unknown directive {parts[0]!r}", lineno)
        except ScriptError:
            for run in runs:  # the error of an earlier run or irq line comes first
                _check_run(*run)
            raise
    if not runs:
        raise ScriptError("script defines no runs")
    return Scenario(0, tuple(_check_run(*run) for run in runs))


def generate_trace(
    scenario: Scenario, prior_task: int = 0, final_task: int = 0
) -> tuple[str, Manifest]:
    """Write a scenario's trace in canonical form, plus its expected accounting.

    The first event switches from `prior_task` to the first run's task; a
    terminal switch to `final_task` closes the last run.  Expected net times
    come straight from the scenario arithmetic: a run's net is its gross
    minus its top-level interrupt lengths, and a handler's net is its length
    minus its direct children's lengths.  Ids lie in [0, 10**18): ScriptError
    for a scenario's, ValueError for `prior_task` and `final_task`.
    """
    for name, task in (("prior_task", prior_task), ("final_task", final_task)):
        if not 0 <= task < ID_LIMIT:
            raise ValueError(f"{name} must lie in [0, 10**18)")
    lines: list[str] = []
    dispatch: dict[Entity, list[int]] = {}
    schedule_ins: dict[int, list[int]] = {}

    def switch(new: int):  # from prev to new at t
        lines.append(f"<{format_timestamp(t)}> Task schedule: old {prev} new {new}")
        schedule_ins.setdefault(new, []).append(t)

    t = scenario.start_us
    prev = prior_task
    for run in scenario.runs:
        walk, interrupted = _nest(run)
        switch(run.task)
        for offset, irq, net in walk:
            if net is None:
                lines.append(f"<{format_timestamp(t + offset)}> IRQ begin: {irq}")
            else:
                lines.append(f"<{format_timestamp(t + offset)}> IRQ end: {irq}")
                dispatch.setdefault(Entity.irq(irq), []).append(net)
        dispatch.setdefault(Entity.task(run.task), []).append(run.gross_us - interrupted)
        t += run.gross_us
        prev = run.task
    switch(final_task)

    periods = {
        task: [b - a for a, b in zip(ins, ins[1:])]
        for task, ins in schedule_ins.items()
        if len(ins) >= 2
    }
    net_us = {entity: sum(nets) for entity, nets in dispatch.items()}
    lines.append("")  # so the text ends with an LF
    return "\n".join(lines), Manifest(t - scenario.start_us, net_us, dispatch, periods)


def manifest_csv(manifest: Manifest) -> str:
    """Manifest as csv: entity,kind,net_us rows plus a window_us footer row."""
    lines = ["entity,kind,net_us"]
    for entity in sorted(manifest.net_us):
        lines.append(f"{entity.id},{entity.kind_name},{manifest.net_us[entity]}")
    lines.append(f"window_us,,{manifest.window_us}")
    lines.append("")
    return "\n".join(lines)


def _random_irqs(rng: random.Random, gross: int) -> list[IrqSpec]:
    # Keep every interrupt strictly inside the run and leave one-microsecond
    # gaps everywhere so generated traces never carry tied timestamps.
    top_level = 2 if gross >= 10 and rng.random() < 0.4 else 1
    points = sorted(rng.sample(range(1, gross), 2 * top_level))
    specs: list[IrqSpec] = []
    for i in range(top_level):
        begin, end = points[2 * i], points[2 * i + 1]
        specs.append(IrqSpec(rng.randint(0, 30), begin, end - begin))
        while end - begin >= 3 and rng.random() < 0.4:
            begin, end = sorted(rng.sample(range(begin + 1, end), 2))
            specs.append(IrqSpec(rng.randint(0, 30), begin, end - begin))
    return specs


def random_scenario(
    seed: int,
    n_tasks: int = 4,
    n_runs: int = 25,
    max_gross_us: int = 400,
    irq_probability: float = 0.35,
) -> Scenario:
    """Seed-deterministic random scenario that always satisfies the invariants.

    Task ids are drawn from 0..n_tasks (0 is the idle account), run durations
    from 3..max_gross_us, and interrupts are placed strictly inside runs,
    disjoint or properly nested.
    """
    if n_tasks < 1 or n_runs < 1:
        raise ValueError("need at least one task and one run")
    rng = random.Random(seed)
    floor = 3
    runs = []
    for _ in range(n_runs):
        gross = rng.randint(floor, max(floor, max_gross_us))
        irqs: tuple[IrqSpec, ...] = ()
        if gross >= 5 and rng.random() < irq_probability:
            irqs = tuple(_random_irqs(rng, gross))
        runs.append(ScenarioRun(rng.randint(0, n_tasks), gross, irqs))
    return Scenario(0, tuple(runs))
