"""Independent re-implementations used to cross-check the analyzer.

These deliberately take the dumbest correct approach -- walk every single
microsecond of the window and ask "who owns this one?", or evaluate the
model at every single sample -- so they share no code or structure with the
production arithmetic.  Only usable on small inputs.
"""

import re
from collections import Counter

from schedtrace import (
    EmptyTraceError,
    Entity,
    IrqBegin,
    IrqEnd,
    IrqSpec,
    ParseDiagnostic,
    ParseError,
    Scenario,
    ScenarioRun,
    ScriptError,
    TaskSchedule,
    TimestampRangeError,
    timestamp_from_fields,
)
from schedtrace.model import IDLE_TASK_ID
from schedtrace.tracefile import DiagnosticKind, _diagnose

_N = "([0-9]{1,18})"
_LINE_RE = re.compile(
    rf"<{_N}h[ \t]+{_N}m[ \t]+{_N}s[ \t]+{_N}[ \t]+{_N}>[ \t]+"
    rf"(?:Task[ \t]+schedule:[ \t]+old[ \t]+{_N}[ \t]+new[ \t]+{_N}"
    rf"|IRQ[ \t]+(?:begin:[ \t]+{_N}|end:[ \t]+{_N}))"
)


def parse_by_line(source, strict=True):
    """(events, diagnostics) of a trace read one line at a time.

    The reference for parse_trace: text is split at each LF, every line is
    stripped of spaces, tabs and CRs and matched on its own, and every
    timestamp goes through timestamp_from_fields.  An iterable gives one
    line per element.  Raises ParseError and EmptyTraceError as parse_trace
    does; bad lines are classified by the same _diagnose.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8-sig", "surrogateescape")
    lines = source.split("\n") if isinstance(source, str) else source
    events, diagnostics = [], []
    last_at = 0
    for lineno, raw in enumerate(lines, 1):
        text = raw.strip(" \t\r\n")
        if not text:
            continue
        m = _LINE_RE.fullmatch(text)
        at = -1
        if m is not None:
            fields = m.groups()
            try:
                at = timestamp_from_fields(*map(int, fields[:5]))
            except TimestampRangeError:
                pass
        if at >= last_at:
            last_at = at
            old, new, begin, end = fields[5:]
            if old is not None:
                events.append(TaskSchedule(at, int(old), int(new)))
            elif begin is not None:
                events.append(IrqBegin(at, int(begin)))
            else:
                events.append(IrqEnd(at, int(end)))
            continue
        if at < 0:
            kind, message = _diagnose(text)
        else:
            kind = DiagnosticKind.NON_MONOTONIC_TIMESTAMP
            message = f"timestamp goes backwards ({at} us after {last_at} us)"
        if strict:
            raise ParseError(kind, message, line=lineno)
        diagnostics.append(ParseDiagnostic(lineno, kind, message))
    if not events:
        raise EmptyTraceError("trace contains no events")
    return events, diagnostics


def owner_by_microsecond(events):
    """Yield (t, entity) for each microsecond t of [first, last).

    The innermost context at t owns it: events taking effect at time t own
    [t, t+1).  Assumes a consistent trace (balanced IRQ nesting, truthful
    old-task fields).
    """
    events = list(events)  # an EventLog's view would build a tuple per read
    if not events:
        return
    start = events[0].at
    end = events[-1].at
    current = events[0].old if isinstance(events[0], TaskSchedule) else IDLE_TASK_ID
    stack: list[int] = []
    i = 0
    for t in range(start, end):
        while i < len(events) and events[i].at == t:
            ev = events[i]
            if isinstance(ev, TaskSchedule):
                current = ev.new
            elif isinstance(ev, IrqBegin):
                stack.append(ev.irq)
            elif isinstance(ev, IrqEnd):
                stack.pop()
            i += 1
        if stack:
            yield t, Entity.irq(stack[-1])
        else:
            yield t, Entity.task(current)


def charge_by_microsecond(events) -> dict[Entity, int]:
    """Charge each microsecond of [first, last) to the innermost context."""
    return dict(Counter(entity for _, entity in owner_by_microsecond(events)))


def charge_slots_by_microsecond(events, view_start, view_end, width):
    """[(slot start, {entity: us})] for width-us slots from view_start.

    Each microsecond of [view_start, view_end) is charged to the slot it
    falls in; the last slot may be cut short by view_end.
    """
    slots = {start: Counter() for start in range(view_start, view_end, width)}
    for t, entity in owner_by_microsecond(events):
        if view_start <= t < view_end:
            slots[t - (t - view_start) % width][entity] += 1
    return [(start, dict(charge)) for start, charge in slots.items()]


def ks_statistic_per_sample(samples, cdf) -> float:
    """KS distance evaluating the model CDF at every sorted sample, ties too."""
    xs = sorted(samples)
    n = len(xs)
    worst = 0.0
    for i, x in enumerate(xs, 1):
        model = cdf(x)
        below = abs((i - 1) / n - model)
        above = abs(i / n - model)
        if below > worst:
            worst = below
        if above > worst:
            worst = above
    return worst


def _check_irqs(gross, specs, line):
    """Raise ScriptError at `line` unless the interrupts fit a run of
    `gross` us and any two are disjoint or nested."""
    for spec in specs:
        if spec.length_us < 1:
            raise ScriptError(f"irq {spec.irq} has zero length; interrupts must take time", line)
        if spec.offset_us < 0:
            raise ScriptError(f"irq {spec.irq} has a negative offset", line)
        if spec.end_us > gross:
            raise ScriptError(
                f"irq {spec.irq} ends at offset {spec.end_us} us, outside its {gross} us run", line
            )
    stack = []
    for spec in sorted(specs, key=lambda s: (s.offset_us, -s.length_us)):
        while stack and spec.offset_us >= stack[-1].end_us:
            stack.pop()
        if stack and spec.end_us > stack[-1].end_us:
            raise ScriptError(
                f"irq {spec.irq} overlaps irq {stack[-1].irq} without nesting inside it", line
            )
        stack.append(spec)


def parse_script_by_line(text):
    """The reference for parse_script: every irq line checks all of its
    run's interrupts so far, so the first line at which they stop being
    valid raises, before any later line is read."""
    runs, cur, specs = [], None, []
    for lineno, raw in enumerate(text.split("\n"), 1):
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
            if not 0 <= task < 10**18:
                raise ScriptError("task id must lie in [0, 10**18)", lineno)
            if gross < 1:
                raise ScriptError("a run must advance time", lineno)
            if cur is not None:
                runs.append(ScenarioRun(*cur, tuple(specs)))
            cur, specs = (task, gross), []
        elif parts[0] == "irq":
            if cur is None:
                raise ScriptError("irq line before any run", lineno)
            if len(parts) != 4:
                raise ScriptError("expected: irq <id> <offset_us> <length_us>", lineno)
            try:
                irq, offset, length = (int(p) for p in parts[1:])
            except ValueError:
                raise ScriptError("irq fields must be integers", lineno) from None
            if not 0 <= irq < 10**18:
                raise ScriptError("irq id must lie in [0, 10**18)", lineno)
            specs.append(IrqSpec(irq, offset, length))
            _check_irqs(cur[1], specs, lineno)
        else:
            raise ScriptError(f"unknown directive {parts[0]!r}", lineno)
    if cur is None:
        raise ScriptError("script defines no runs")
    runs.append(ScenarioRun(*cur, tuple(specs)))
    return Scenario(0, tuple(runs))
