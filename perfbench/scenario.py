"""Scenario model, trace writer, fault injector and oracle of the benchmark.

Everything here is independent of the `schedtrace` package: the benchmark
builds its own inputs and works out the expected reports by interval
arithmetic over the scenario, so no change to the program (its generator or
its trace writer included) can move the inputs or the oracle.

A scenario is a list of back-to-back task runs.  Each run holds a forest of
interrupt invocations, strictly inside the run and strictly inside their
parent, with at least one microsecond between any two event times, so a
clean trace never has two events at the same microsecond.
"""

from __future__ import annotations

import bisect
import random
from typing import NamedTuple

SWITCH, BEGIN, END = 0, 1, 2
TASK, IRQ = "task", "irq"


class Irq(NamedTuple):
    irq: int
    begin: int
    end: int
    children: tuple  # of Irq, time ordered


class Run(NamedTuple):
    task: int
    start: int
    end: int
    irqs: tuple  # top-level Irq, time ordered


class Scenario(NamedTuple):
    prior_task: int
    final_task: int
    runs: list  # of Run, each starting where the previous one ends


# ---------------------------------------------------------------------------
# random scenarios


def random_irqs(rng, lo, hi, ids, count, nest_p, depth, grain):
    """`count` disjoint invocations strictly inside (lo, hi), maybe nested.

    Event times fall in distinct `grain`-µs cells that lie strictly inside
    the cells of lo and hi, so with a grain of 1000 no two events share
    their millisecond.
    """
    cells = range(lo // grain + 1, hi // grain)
    if count < 1 or len(cells) < 2 * count:
        return ()
    points = sorted(rng.sample(cells, 2 * count))
    if grain > 1:
        points = [p * grain + rng.randrange(grain) for p in points]
    out = []
    for i in range(0, 2 * count, 2):
        begin, end = points[i], points[i + 1]
        children = ()
        if depth > 1 and end - begin >= 3 and rng.random() < nest_p:
            children = random_irqs(
                rng, begin, end, ids, rng.randint(1, 2), nest_p, depth - 1, grain
            )
        out.append(Irq(rng.choice(ids), begin, end, children))
    return tuple(out)


def random_scenario(
    seed, start_us, n_runs, tasks, irq_ids, gross, irq_counts, nest_p, depth, probe, grain=1
):
    """Seeded random scenario.

    `gross(rng)` draws a run's length and `irq_counts` is the population its
    top-level interrupt count is drawn from; see random_irqs for `grain`.  `probe` is (irq id, lengths,
    every): every `every`-th run carries one leaf invocation of that id and
    of the next length in `lengths` instead of random interrupts, so the
    probe's samples are the same multiset whatever the seed.
    """
    rng = random.Random(seed)
    probe_id, probe_lengths, every = probe
    runs = []
    t = start_us
    for i in range(n_runs):
        g = gross(rng)
        task = rng.choice(tasks)
        if i % every == every // 2:
            length = probe_lengths[(i // every) % len(probe_lengths)]
            g = max(g, length + 4)
            begin = t + rng.randint(2, g - length - 2)
            irqs = (Irq(probe_id, begin, begin + length, ()),)
        else:
            irqs = random_irqs(
                rng, t, t + g, irq_ids, rng.choice(irq_counts), nest_p, depth, grain
            )
        runs.append(Run(task, t, t + g, irqs))
        t += g
    return Scenario(rng.choice(tasks), rng.choice(tasks), runs)


# ---------------------------------------------------------------------------
# events and trace text


def _emit(irq, out):
    out.append((irq.begin, BEGIN, irq.irq))
    for child in irq.children:
        _emit(child, out)
    out.append((irq.end, END, irq.irq))


def events(scenario):
    """Events in time order: (at, SWITCH, old, new) or (at, BEGIN|END, irq)."""
    out = []
    prev = scenario.prior_task
    for run in scenario.runs:
        out.append((run.start, SWITCH, prev, run.task))
        for irq in run.irqs:
            _emit(irq, out)
        prev = run.task
    out.append((scenario.runs[-1].end, SWITCH, prev, scenario.final_task))
    return out


def clock(at):
    """The trace format's timestamp text, '0000h 00m 01s 290 602'."""
    ms_total, us = divmod(at, 1000)
    return f"{_clock_head(ms_total)}{us:03d}"


def _clock_head(ms_total):
    hours, rem = divmod(ms_total, 3_600_000)
    minutes, rem = divmod(rem, 60_000)
    seconds, ms = divmod(rem, 1000)
    return f"{hours:04d}h {minutes:02d}m {seconds:02d}s {ms:03d} "


def render_lines(evs):
    """Canonical trace lines, without line ends."""
    lines = []
    append = lines.append
    key = None
    head = ""
    for ev in evs:
        ms_total, us = divmod(ev[0], 1000)
        if ms_total != key:
            key = ms_total
            head = "<" + _clock_head(ms_total)
        if ev[1] == SWITCH:
            append(f"{head}{us:03d}> Task schedule: old {ev[2]} new {ev[3]}")
        elif ev[1] == BEGIN:
            append(f"{head}{us:03d}> IRQ begin: {ev[2]}")
        else:
            append(f"{head}{us:03d}> IRQ end: {ev[2]}")
    return lines


def prefix_repeat_share(evs):
    """Share of events whose h/m/s/ms clock text equals the previous event's."""
    keys = [ev[0] // 1000 for ev in evs]
    same = sum(1 for a, b in zip(keys, keys[1:]) if a == b)
    return same / max(1, len(keys) - 1)


# ---------------------------------------------------------------------------
# fault injection

# Each injected fault is repaired by the lenient parser or the lenient replay
# without changing what any microsecond is charged to: bad lines are dropped,
# an out-of-order copy of an earlier event is dropped, an unmatched IRQ end
# is dropped, and a wrong `old` field is ignored by the replay, which keeps
# its own idea of the current task.
FAULT_KINDS = (
    "junk",
    "unknown_event",
    "bad_clock",
    "out_of_range",
    "bad_payload",
    "backwards_copy",
    "orphan_irq_end",
    "mismatched_irq_end",
    "wrong_old_task",
)

# what `validate` reports for each fault: a parse diagnostic kind, or a
# consistency violation kind
PARSE_KIND = {
    "junk": "unknown_event",
    "unknown_event": "unknown_event",
    "bad_clock": "malformed_timestamp",
    "out_of_range": "malformed_timestamp",
    "bad_payload": "malformed_payload",
    "backwards_copy": "non_monotonic_timestamp",
}
VIOLATION_KIND = {
    "orphan_irq_end": "irq_end_without_begin",
    "mismatched_irq_end": "irq_end_id_mismatch",
    "wrong_old_task": "old_task_mismatch",
}

_JUNK = ("tracer: buffer wrapped", "kernel: watchdog kick", "### marker ###")


class DirtyTrace(NamedTuple):
    lines: list  # trace lines, each with its own line end
    parse_faults: list  # (line number, diagnostic kind), in line order
    violations: list  # (at, violation kind), in trace order
    fault_counts: dict  # fault kind -> count


def inject_faults(evs, seed, rate, crlf_share):
    """Trace lines of `evs` with faults mixed in at about `rate` per event.

    An unmatched IRQ end goes between two consecutive events of the clean
    trace, at a time from the first one's to the second one's, so the window
    stays the clean one.  The first switch keeps its `old` field, which
    names the task that is current before the window opens.
    """
    rng = random.Random(seed)
    clean = render_lines(evs)
    lines = []
    parse_faults = []
    violations = []
    counts = dict.fromkeys(FAULT_KINDS, 0)
    stack = []  # open irq ids at the current position
    for i, ev in enumerate(evs):
        at = ev[0]
        text = clean[i]
        if i > 0 and rng.random() < rate:
            kind = rng.choice(FAULT_KINDS)
            prev_at = evs[i - 1][0]
            extra = None
            if kind == "junk":
                extra = rng.choice(_JUNK)
            elif kind == "unknown_event":
                extra = f"<{clock(at)}> Task migrate: cpu {rng.randint(0, 3)}"
            elif kind == "bad_clock":
                extra = f"<{clock(at)[:10]} xxs 000 000> IRQ begin: 3"
            elif kind == "out_of_range":
                field = rng.randrange(4)
                f = [at // 3_600_000_000, 0, 0, 0, 0]
                f[field + 1] = rng.randint(60, 99) if field < 2 else rng.randint(1000, 1999)
                extra = (
                    f"<{f[0]:04d}h {f[1]:02d}m {f[2]:02d}s {f[3]:03d} {f[4]:03d}>"
                    f" IRQ end: {rng.randint(0, 9)}"
                )
            elif kind == "bad_payload":
                extra = rng.choice(
                    (
                        f"<{clock(at)}> Task schedule: old {rng.randint(0, 9)} new",
                        f"<{clock(at)}> IRQ begin: x{rng.randint(0, 9)}",
                    )
                )
            elif kind == "backwards_copy" and i >= 2:
                extra = clean[rng.randrange(max(0, i - 50), i - 1)]
            elif kind == "orphan_irq_end" and not stack:
                when = rng.randint(prev_at, at)
                extra = f"<{clock(when)}> IRQ end: {rng.randint(0, 99)}"
                violations.append((when, VIOLATION_KIND[kind]))
            elif kind == "mismatched_irq_end" and stack:
                when = rng.randint(prev_at, at)
                wrong = stack[-1] + rng.randint(1, 50)
                extra = f"<{clock(when)}> IRQ end: {wrong}"
                violations.append((when, VIOLATION_KIND[kind]))
            elif kind == "wrong_old_task" and ev[1] == SWITCH:
                text = (
                    f"<{clock(at)}> Task schedule: old {ev[2] + rng.randint(1, 9)}"
                    f" new {ev[3]}"
                )
                violations.append((at, VIOLATION_KIND[kind]))
                counts[kind] += 1
            if extra is not None:
                lines.append(extra)
                counts[kind] += 1
                if kind in PARSE_KIND:
                    parse_faults.append((len(lines), PARSE_KIND[kind]))
        lines.append(text)
        if ev[1] == BEGIN:
            stack.append(ev[2])
        elif ev[1] == END:
            stack.pop()
    ends = ["\r\n" if rng.random() < crlf_share else "\n" for _ in lines]
    counts["crlf_line"] = ends.count("\r\n")
    return DirtyTrace(
        [line + end for line, end in zip(lines, ends)], parse_faults, violations, counts
    )


# ---------------------------------------------------------------------------
# oracle


def _overlap(a, b, lo, hi):
    return max(0, min(b, hi) - max(a, lo))


def _walk(irqs, depth=1):
    """(invocation, nesting depth) of every invocation in a forest."""
    for irq in irqs:
        yield irq, depth
        yield from _walk(irq.children, depth + 1)


class Oracle:
    """Expected accounting of a scenario, worked out from its intervals.

    Entities are (kind, id) pairs with kind "task" or "irq".  A task run's
    net time is its length minus its top-level interrupts; an invocation's
    net time is its length minus its direct children.
    """

    def __init__(self, scenario):
        runs = scenario.runs
        self.runs = runs
        self.window = (runs[0].start, runs[-1].end)
        self.samples = {}  # entity -> net µs per dispatch / invocation
        self.schedule_ins = {}  # task id -> switch-in times
        self.spans = {}  # entity -> [(start, end)] of runs / invocations
        self.max_depth = 0
        for run in runs:
            key = (TASK, run.task)
            net = run.end - run.start - sum(i.end - i.begin for i in run.irqs)
            self.samples.setdefault(key, []).append(net)
            self.spans.setdefault(key, []).append((run.start, run.end))
            self.schedule_ins.setdefault(run.task, []).append(run.start)
            for irq, depth in _walk(run.irqs):
                key = (IRQ, irq.irq)
                net = irq.end - irq.begin - sum(c.end - c.begin for c in irq.children)
                self.samples.setdefault(key, []).append(net)
                self.spans.setdefault(key, []).append((irq.begin, irq.end))
                if depth > self.max_depth:
                    self.max_depth = depth
        self.schedule_ins.setdefault(scenario.final_task, []).append(runs[-1].end)
        self.net = {key: sum(xs) for key, xs in self.samples.items()}
        self.run_starts = [run.start for run in runs]

    @property
    def duration(self):
        return self.window[1] - self.window[0]

    def entities(self):
        """Every entity that ran, tasks first, ids ascending."""
        return sorted(self.samples, key=lambda e: (e[0] != TASK, e[1]))

    def periods(self, task):
        ins = self.schedule_ins.get(task, [])
        return [b - a for a, b in zip(ins, ins[1:])]

    def series(self):
        """(entity, series name, samples) for every sample series of the stats."""
        out = []
        for entity in self.entities():
            out.append((entity, "exec", self.samples[entity]))
            if entity[0] == TASK and len(self.schedule_ins.get(entity[1], ())) >= 2:
                out.append((entity, "period", self.periods(entity[1])))
        return out

    def charge_in(self, lo, hi):
        """Net µs of each entity inside [lo, hi); entities with none left out."""
        if lo <= self.window[0] and hi >= self.window[1]:
            return {k: v for k, v in self.net.items() if v > 0}
        first = max(0, bisect.bisect_right(self.run_starts, lo) - 1)
        last = bisect.bisect_left(self.run_starts, hi)
        charge = {}
        for run in self.runs[first:last]:
            key = (TASK, run.task)
            c = _overlap(run.start, run.end, lo, hi) - sum(
                _overlap(i.begin, i.end, lo, hi) for i in run.irqs
            )
            charge[key] = charge.get(key, 0) + c
            for irq, _ in _walk(run.irqs):
                key = (IRQ, irq.irq)
                c = _overlap(irq.begin, irq.end, lo, hi) - sum(
                    _overlap(k.begin, k.end, lo, hi) for k in irq.children
                )
                charge[key] = charge.get(key, 0) + c
        return {k: v for k, v in charge.items() if v > 0}

    def states_in(self, lo, hi, charge):
        """µs per timeline state of each entity inside [lo, hi).

        `charge` is charge_in(lo, hi).  A task is running for its net time,
        preempted_by_irq for the rest of its scheduled time, and inactive
        otherwise; an IRQ is active while any invocation of its id is open
        (a union, since one id can nest inside itself) and inactive
        otherwise.
        """
        view = hi - lo
        out = {}
        for entity, spans in self.spans.items():
            if entity[0] == TASK:
                gross = sum(min(b, hi) - max(a, lo) for a, b in spans if a < hi and b > lo)
                running = charge.get(entity, 0)
                out[entity] = {
                    "running": running,
                    "preempted_by_irq": gross - running,
                    "inactive": view - gross,
                }
            else:
                active = 0
                covered = lo
                for a, b in sorted(spans):
                    a = max(a, covered)
                    b = min(b, hi)
                    if b > a:
                        active += b - a
                        covered = b
                out[entity] = {"active": active, "inactive": view - active}
        return out
