"""Independent re-implementations used to cross-check the analyzer.

These deliberately take the dumbest correct approach -- walk every single
microsecond of the window and ask "who owns this one?", or evaluate the
model at every single sample -- so they share no code or structure with the
production arithmetic.  Only usable on small inputs.
"""

from collections import Counter

from schedtrace import Entity, IrqBegin, IrqEnd, TaskSchedule
from schedtrace.model import IDLE_TASK_ID


def owner_by_microsecond(events):
    """Yield (t, entity) for each microsecond t of [first, last).

    The innermost context at t owns it: events taking effect at time t own
    [t, t+1).  Assumes a consistent trace (balanced IRQ nesting, truthful
    old-task fields).
    """
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
