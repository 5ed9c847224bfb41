"""Synthetic scenario scripts, trace generation, and ground-truth manifests.

A scenario is an ordered list of task runs, each a gross duration with
optional interrupts placed inside it.  Generating a trace from a scenario
also computes the expected accounting analytically, which gives tests an
oracle that never went through the replay code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ScriptError
from .model import Entity, IrqBegin, IrqEnd, TaskSchedule, TraceEvent
from .tracefile import render_trace


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


@dataclass(frozen=True)
class Scenario:
    start_us: int
    runs: tuple[ScenarioRun, ...]


@dataclass(frozen=True)
class Manifest:
    """Analytically computed ground truth for a generated trace."""

    window_us: int
    net_us: dict[Entity, int]
    dispatch_samples: dict[Entity, list[int]]
    period_samples: dict[int, list[int]]


class _IrqNode:
    __slots__ = ("spec", "children")

    def __init__(self, spec: IrqSpec):
        self.spec = spec
        self.children: list[_IrqNode] = []


def _irq_forest(run: ScenarioRun, line: int | None = None) -> list[_IrqNode]:
    """Arrange a run's interrupts into a containment forest, validating them.

    Any two interrupts must be disjoint or nested (LIFO order); interrupts
    must fit inside the run.  Specs with identical spans nest in listing
    order.
    """
    for spec in run.irqs:
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
    ordered = sorted(run.irqs, key=lambda s: (s.offset_us, -s.length_us))
    roots: list[_IrqNode] = []
    stack: list[_IrqNode] = []
    for spec in ordered:
        node = _IrqNode(spec)
        while stack and spec.offset_us >= stack[-1].spec.end_us:
            stack.pop()
        if stack:
            parent = stack[-1].spec
            if spec.end_us > parent.end_us:
                raise ScriptError(
                    f"irq {spec.irq} overlaps irq {parent.irq} without nesting inside it",
                    line,
                )
            stack[-1].children.append(node)
        else:
            roots.append(node)
        stack.append(node)
    return roots


def parse_script(text: str) -> Scenario:
    """Parse a scenario script.

    One `run <task> <gross_us>` line per task run, each optionally followed
    by `irq <id> <offset_us> <length_us>` lines for interrupts inside that
    run.  `#` starts a comment; blank lines are ignored.
    """
    runs: list[ScenarioRun] = []
    cur: tuple[int, int, int] | None = None  # task, gross, line
    cur_irqs: list[IrqSpec] = []

    def flush():
        if cur is None:
            return
        run = ScenarioRun(cur[0], cur[1], tuple(cur_irqs))
        _irq_forest(run, line=cur[2])
        runs.append(run)

    for lineno, raw in enumerate(text.split("\n"), 1):  # only LF ends a line, as in traces
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "run":
            if len(parts) != 3:
                raise ScriptError("expected: run <task> <gross_us>", lineno)
            try:
                task, gross = int(parts[1]), int(parts[2])
            except ValueError:
                raise ScriptError("run fields must be integers", lineno) from None
            if task < 0:
                raise ScriptError("task id must be non-negative", lineno)
            if gross < 1:
                raise ScriptError("a run must advance time", lineno)
            flush()
            cur = (task, gross, lineno)
            cur_irqs = []
        elif parts[0] == "irq":
            if cur is None:
                raise ScriptError("irq line before any run", lineno)
            if len(parts) != 4:
                raise ScriptError("expected: irq <id> <offset_us> <length_us>", lineno)
            try:
                irq, offset, length = (int(p) for p in parts[1:])
            except ValueError:
                raise ScriptError("irq fields must be integers", lineno) from None
            if irq < 0:
                raise ScriptError("irq id must be non-negative", lineno)
            spec = IrqSpec(irq, offset, length)
            cur_irqs.append(spec)
            _irq_forest(ScenarioRun(cur[0], cur[1], tuple(cur_irqs)), line=lineno)
        else:
            raise ScriptError(f"unknown directive {parts[0]!r}", lineno)
    flush()
    if not runs:
        raise ScriptError("script defines no runs")
    return Scenario(0, tuple(runs))


def render_script(scenario: Scenario) -> str:
    """Serialize a scenario back to script form (start time is not scripted)."""
    lines = []
    for run in scenario.runs:
        lines.append(f"run {run.task} {run.gross_us}")
        for spec in run.irqs:
            lines.append(f"  irq {spec.irq} {spec.offset_us} {spec.length_us}")
    lines.append("")
    return "\n".join(lines)


def generate_trace(
    scenario: Scenario, prior_task: int = 0, final_task: int = 0
) -> tuple[str, Manifest]:
    """Emit canonical trace text for a scenario plus its expected accounting.

    The first event switches from `prior_task` to the first run's task; a
    terminal switch to `final_task` closes the last run.  Expected net times
    come straight from the scenario arithmetic: a run's net is its gross
    minus its top-level interrupt lengths, and a handler's net is its length
    minus its direct children's lengths.
    """
    events: list[TraceEvent] = []
    net_us: dict[Entity, int] = {}
    dispatch: dict[Entity, list[int]] = {}
    schedule_ins: dict[int, list[int]] = {}

    def emit_irq(node: _IrqNode, base: int):
        spec = node.spec
        events.append(IrqBegin(base + spec.offset_us, spec.irq))
        for child in node.children:
            emit_irq(child, base)
        events.append(IrqEnd(base + spec.end_us, spec.irq))
        entity = Entity.irq(spec.irq)
        net = spec.length_us - sum(c.spec.length_us for c in node.children)
        net_us[entity] = net_us.get(entity, 0) + net
        dispatch.setdefault(entity, []).append(net)

    t = scenario.start_us
    prev = prior_task
    for run in scenario.runs:
        if run.gross_us < 1:
            raise ScriptError("a run must advance time")
        roots = _irq_forest(run)
        events.append(TaskSchedule(t, prev, run.task))
        schedule_ins.setdefault(run.task, []).append(t)
        for root in roots:
            emit_irq(root, t)
        entity = Entity.task(run.task)
        net = run.gross_us - sum(r.spec.length_us for r in roots)
        net_us[entity] = net_us.get(entity, 0) + net
        dispatch.setdefault(entity, []).append(net)
        t += run.gross_us
        prev = run.task
    events.append(TaskSchedule(t, prev, final_task))
    schedule_ins.setdefault(final_task, []).append(t)

    periods = {
        task: [b - a for a, b in zip(ins, ins[1:])]
        for task, ins in schedule_ins.items()
        if len(ins) >= 2
    }
    manifest = Manifest(t - scenario.start_us, net_us, dispatch, periods)
    return render_trace(events), manifest


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
