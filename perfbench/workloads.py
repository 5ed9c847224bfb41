"""The benchmark's three workloads: inputs, commands and output checks.

Each workload writes its trace from a seed, knows the `schedtrace` command
lines that analyze it, and checks every file those commands write.  One
report file, or the verdict of `validate`, is one operation.
"""

from __future__ import annotations

import random

import checks
from scenario import (
    IRQ,
    Irq,
    Oracle,
    Run,
    Scenario,
    events,
    inject_faults,
    prefix_repeat_share,
    random_scenario,
    render_lines,
)

REPORTS = ("load", "utilization", "stats", "timeline")
EXTENSIONS = {"text": "txt", "csv": "csv", "json": "json"}


class Workload:
    """One workload's input, commands and expected reports.

    `fmt`, `bins`, `slot_width_us` and `view` are the analyze options;
    `slot_width_us` None and `bins` None leave the program's defaults
    (100000 and 20) in place.
    """

    def __init__(self, work, scenario, fmt, bins, slot_width_us, view, dirty):
        self.work = work
        self.trace = work / "trace.txt"
        self.out = work / "reports"
        self.fmt = fmt
        self.bins = bins
        self.slot_width_us = slot_width_us
        self.view = view
        evs = events(scenario)
        if dirty is None:
            lines = render_lines(evs)
            text = "\n".join(lines) + "\n"
            self.faults = None
        else:
            self.faults = inject_faults(evs, **dirty)
            lines = self.faults.lines
            text = "".join(lines)
        work.mkdir(parents=True, exist_ok=True)
        self.trace.write_bytes(text.encode())
        self.oracle = Oracle(scenario)
        self.expected = checks.Expected(self.oracle, view, bins or 20)
        runs = scenario.runs
        self.makeup = {
            "events": len(evs),
            "lines": len(lines),
            "trace_mb": round(len(text) / 2**20, 1),
            "tasks": len({r.task for r in runs}),
            "irq_ids": len({e[1] for e in self.oracle.samples if e[0] == IRQ}),
            "max_irq_depth": self.oracle.max_depth,
            "prefix_repeat_share": round(prefix_repeat_share(evs), 4),
            "window_us": self.oracle.duration,
        }
        if self.faults is not None:
            self.makeup["faults"] = self.faults.fault_counts

    @property
    def lenient(self):
        return self.faults is not None

    def analyze_args(self):
        args = ["analyze", str(self.trace)]
        for name in REPORTS:
            args += ["--report", name]
        if self.fmt != "text":
            args += ["--format", self.fmt]
        if self.bins is not None:
            args += ["--bins", str(self.bins)]
        if self.slot_width_us is not None:
            args += ["--slot-width-us", str(self.slot_width_us)]
        if self.view is not None:
            args += ["--from-us", str(self.view[0]), "--to-us", str(self.view[1])]
        if self.lenient:
            args.append("--lenient")
        return args + ["-o", str(self.out)]

    def commands(self):
        """(name, schedtrace arguments, expected exit code) of one repetition."""
        cmds = []
        if self.lenient:
            # validate reports the injected violations, so it exits 2
            cmds.append(("validate", ["validate", str(self.trace), "--lenient"], 2))
        cmds.append(("analyze", self.analyze_args(), 0))
        return cmds

    def report_files(self):
        ext = EXTENSIONS[self.fmt]
        files = [f"{name}.{ext}" for name in REPORTS]
        if self.fmt == "csv":
            files.insert(3, "stats_histograms.csv")
        return files

    def traced_spec(self):
        return {
            "trace": str(self.trace),
            "out": str(self.out),
            "validate": self.lenient,
            "strict": not self.lenient,
            "reports": list(REPORTS),
            "fmt": self.fmt,
            "ext": EXTENSIONS[self.fmt],
            "bins": self.bins or 20,
            "slot_width_us": self.slot_width_us or 100_000,
            "view": self.view,
        }

    def check_report(self, filename, path):
        """Problems of one report file; see checks.py."""
        exp = self.expected
        name = filename.split(".")[0]
        if name == "timeline":
            return checks.check_timeline(checks.read_timeline(self.fmt, path), exp)
        data = path.read_bytes()
        if name == "load":
            return checks.check_load(checks.read_load(self.fmt, data), exp)
        if name == "utilization":
            width = self.slot_width_us or 100_000
            return checks.check_utilization(
                checks.read_utilization(self.fmt, data), exp, width
            )
        if name == "stats_histograms":
            return checks.check_stats(checks.read_stats("csv", data, True), exp)
        return checks.check_stats(checks.read_stats(self.fmt, data), exp)

    def check_validate(self, diagnostics, violations):
        return checks.check_validate(
            diagnostics, violations, self.faults.parse_faults, self.faults.violations
        )


def _gate(seed, work, n_runs=199_999):
    """The acceptance test's 1,000,000-event shape, 5 µs runs of 8 tasks."""
    rng = random.Random(seed)
    tasks = list(range(1, 9))
    rng.shuffle(tasks)
    # the view end keeps the acceptance test's seven digits
    t = rng.randrange(0, 8_000_000)
    runs = []
    for i in range(n_runs):
        runs.append(
            Run(tasks[i % 8], t, t + 5, (Irq(31, t + 1, t + 2, ()), Irq(32, t + 3, t + 4, ())))
        )
        t += 5
    runs.append(Run(tasks[0], t, t + 5, (Irq(31, t + 1, t + 2, ()),)))
    runs.append(Run(tasks[1], t + 5, t + 10, ()))
    return Workload(work, Scenario(0, 0, runs), "text", None, None, None, None)


def _sparse(seed, work, n_runs=45_000):
    """Runs of tens of ms, 40 tasks, 24 nesting IRQ ids, all reports as json.

    Inside a run no two events share a millisecond, so the parser's cache of
    the h/m/s/ms clock text misses on almost every line.
    """
    rng = random.Random(seed)
    scenario = random_scenario(
        seed,
        start_us=rng.randrange(0, 10 * 3_600_000_000),
        n_runs=n_runs,
        tasks=range(40),
        irq_ids=range(24),
        gross=lambda r: 5_000 + int(r.expovariate(1 / 30_000)),
        irq_counts=(0, 1, 1, 2, 2, 3),
        nest_p=0.35,
        depth=3,
        # lengths 20, 27, 34 at 50 bins: 27 lies on an edge
        probe=(90, (20, 27, 34), 40),
        grain=1000,
    )
    return Workload(work, scenario, "json", 50, 500_000, None, None)


def _dirty(seed, work, n_runs=80_000):
    """Sub-millisecond runs with injected faults, validated, then zoomed as csv."""
    rng = random.Random(seed)
    scenario = random_scenario(
        seed,
        start_us=rng.randrange(0, 10 * 3_600_000_000),
        n_runs=n_runs,
        tasks=range(12),
        irq_ids=range(8),
        gross=lambda r: 40 + int(r.expovariate(1 / 700)),
        irq_counts=(0, 0, 1, 1, 2),
        nest_p=0.3,
        depth=3,
        # lengths 10, 43, 54 at 20 bins: 43 lies on an edge
        probe=(91, (10, 43, 54), 40),
    )
    start, end = scenario.runs[0].start, scenario.runs[-1].end
    view = (start + (end - start) * 45 // 100, start + (end - start) * 55 // 100)
    dirty = {"seed": seed, "rate": 0.05, "crlf_share": 0.3}
    return Workload(work, scenario, "csv", 20, 5_000, view, dirty)


WORKLOADS = {"gate-1m-text": _gate, "sparse-json": _sparse, "dirty-zoom-csv": _dirty}


def build(name, seed, work):
    return WORKLOADS[name](seed, work)
