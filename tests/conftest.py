"""Shared fixtures: a small hand-checked trace and its derived facts."""

from contextlib import contextmanager
from types import SimpleNamespace

import pytest
from hypothesis import strategies as st

from schedtrace import (
    Entity,
    EventLog,
    IrqSpec,
    Scenario,
    ScenarioRun,
    SliceSet,
    build_slices,
    format_timestamp,
    generate_trace,
    parse_trace,
)

# Ten events spanning 628 us, with one IRQ landing inside task 4 and one
# inside task 5.  All expected numbers below are worked out by hand from
# the timestamps: an IRQ window is charged to the handler, not to the
# task it interrupts, so task 4 nets 135 us out of a 158 us dispatch.
SHORT_TRACE = """\
<0000h 00m 01s 290 602> Task schedule: old 5 new 3
<0000h 00m 01s 290 678> Task schedule: old 3 new 1
<0000h 00m 01s 290 764> Task schedule: old 1 new 4
<0000h 00m 01s 290 838> IRQ begin: 16
<0000h 00m 01s 290 861> IRQ end: 16
<0000h 00m 01s 290 922> Task schedule: old 4 new 2
<0000h 00m 01s 291 015> Task schedule: old 2 new 5
<0000h 00m 01s 291 091> IRQ begin: 23
<0000h 00m 01s 291 124> IRQ end: 23
<0000h 00m 01s 291 230> Task schedule: old 5 new 3
"""

SHORT_START = 1_290_602
SHORT_END = 1_291_230
SHORT_SPAN = 628

SHORT_NETS = {
    Entity.task(1): 86,
    Entity.task(2): 93,
    Entity.task(3): 76,
    Entity.task(4): 135,
    Entity.task(5): 182,
    Entity.irq(16): 23,
    Entity.irq(23): 33,
}


@pytest.fixture(scope="session")
def short_log() -> EventLog:
    return parse_trace(SHORT_TRACE)


@pytest.fixture(scope="session")
def short_slices(short_log) -> SliceSet:
    return build_slices(short_log)


def gate_shaped_trace(n_runs: int) -> str:
    """5 * n_runs events in the shape of the 1e6-event gate trace: tasks 1 to
    8 in turn, each run holding invocations of IRQs 31 and 32; no two events
    share a timestamp, so a slice starts at each event."""
    double = (IrqSpec(31, 1, 1), IrqSpec(32, 3, 1))
    runs = tuple(ScenarioRun(1 + i % 8, 5, double) for i in range(n_runs))
    return generate_trace(Scenario(0, runs))[0]


def unique_id_trace(n: int) -> str:
    """n context switches, 7 us apart, whose task ids never repeat."""
    return "".join(
        f"<{format_timestamp(i * 7)}> Task schedule: old {i} new {i + 1}\n" for i in range(n)
    )


def script_run(task, gross, irqs) -> list[str]:
    """The script lines of a run and its (irq, offset, length) interrupts,
    each offset and length wrapped into the run: the interrupts fit inside
    it, though they may overlap."""
    lines = [f"run {task} {gross}"]
    for irq, offset, length in irqs:
        offset %= gross
        lines.append(f"  irq {irq} {offset} {1 + length % (gross - offset)}")
    return lines


@st.composite
def damaged_traces(draw, junk=False):
    """Trace text of up to 40 drawn events of tasks and IRQs 0 to 3.  A switch
    sometimes claims the wrong old task; an IRQ may begin inside itself; an
    end sometimes names no open handler, or one that is not innermost, and
    handlers may stay open at the end.  Timestamps often tie.  With `junk`,
    a line may be junk or go back in time."""
    at = draw(st.integers(0, 5_000))
    task, handlers, lines = draw(st.integers(0, 3)), [], []
    for _ in range(draw(st.integers(1, 40))):
        at += draw(st.sampled_from((0, 0, 1, 2, 7, 120)))
        kind = draw(st.sampled_from(("switch", "begin", "end", "end", "junk" if junk else "end")))
        if kind == "switch":
            old = task if draw(st.integers(0, 5)) else draw(st.integers(0, 3))
            task = draw(st.integers(0, 3))
            payload = f"Task schedule: old {old} new {task}"
        elif kind == "begin":
            handlers.append(draw(st.integers(0, 3)))
            payload = f"IRQ begin: {handlers[-1]}"
        elif kind == "end":
            irq = handlers[-1] if handlers and draw(st.integers(0, 5)) else draw(st.integers(0, 3))
            if handlers and handlers[-1] == irq:
                handlers.pop()
            payload = f"IRQ end: {irq}"
        else:
            back = f"<{format_timestamp(max(at - 3, 0))}> IRQ begin: 1\n"  # often behind the last event
            lines.append(draw(st.sampled_from(("junk\n", back))))
            continue
        lines.append(f"<{format_timestamp(at)}> {payload}\n")
    return "".join(lines)


@contextmanager
def in_process(prepare, finish):
    """A `spawn` for replay.replay_halves that runs both halves in this
    process: prepare at once, before the first half, as a forked child may;
    finish when the message is sent, its error raised by result()."""
    prepared = prepare()
    outcome = []

    def send(message):
        try:
            outcome.append((finish(prepared, message), None))
        except Exception as exc:
            outcome.append((None, exc))

    def result():
        value, error = outcome[0]
        if error is not None:
            raise error
        return value

    yield SimpleNamespace(send=send, result=result)
