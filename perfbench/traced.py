"""One traced repetition: the analyze pipeline, one public call at a time.

Run by run.py in a fresh interpreter per repetition:

    PYTHONPATH=src python3 perfbench/traced.py SPEC.json RESULT.json

It makes the calls that `schedtrace analyze` (and, for a lenient workload,
`schedtrace validate`) make, in their order and with the cyclic GC off as
`cli.run` turns it off, and times each call as one span.  Counts are taken
at the same boundaries, and `*.peak_rss_mb` is the process's high-water RSS
when the layer's last span ends.  It writes the report files as the CLI
would, so the benchmark checks them with the same checks.

Three calls are made only for their per-layer figures and are left out of
`traced.total_s`, which sums the spans the CLI path makes: validate_consistency
on a workload that does not run `validate`, render_stats_histograms_csv when
the format is not csv, and `stats.fits_s`, which calls summarize, histogram
and the two fits directly on every sample series after the reports.
"""

import gc
import json
import os
import resource
import sys
import time

from schedtrace import Window, build_slices, parse_trace_file
from schedtrace.replay import validate_consistency
from schedtrace.reports import (
    average_load,
    render,
    render_stats_histograms_csv,
    task_statistics,
    timeline,
    utilization,
)
from schedtrace.stats import fit_exponential, fit_uniform, histogram, summarize


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self):
        self.spans = []  # (name, seconds, on the CLI path)
        self.metrics = {}

    def call(self, name, on_cli_path, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        self.spans.append((name, time.perf_counter() - t0, on_cli_path))
        return result

    def add(self, name, value):
        self.metrics[name] = self.metrics.get(name, 0) + value

    def peak(self, name):
        self.metrics[name] = _rss_mb()

    def result(self):
        out = dict(self.metrics)
        for name, seconds, _ in self.spans:
            out[name] = out.get(name, 0.0) + seconds
        out["traced.total_s"] = sum(s for _, s, on_path in self.spans if on_path)
        return out


def _count_lines(path):
    with open(path, "rb") as handle:
        return handle.read().count(b"\n")


def _write(directory, name, content):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, name), "wb") as handle:
        handle.write(content.encode("utf-8"))
    return os.path.getsize(os.path.join(directory, name))


def _series(sliceset):
    for task_id, runs in sliceset.task_runs.items():
        yield [r.net_us for r in runs]
        ins = sliceset.schedule_ins.get(task_id, ())
        if len(ins) >= 2:
            yield [b - a for a, b in zip(ins, ins[1:])]
    for runs in sliceset.irq_runs.values():
        yield [r.net_us for r in runs]


def _fits(series, bins):
    for xs in series:
        summarize(xs)
        histogram(xs, bins)
        positives = [x for x in xs if x > 0]
        if positives:
            fit_exponential(positives)
        fit_uniform(xs)


def run(spec):
    tr = Tracer()
    path = spec["trace"]
    found = {}
    if spec["validate"]:
        log = tr.call("tracefile.parse_s", True, parse_trace_file, path, False)
        tr.add("tracefile.lines", _count_lines(path))
        tr.add("tracefile.events", len(log.events))
        tr.add("tracefile.diagnostics", len(log.diagnostics))
        violations = tr.call("replay.validate_s", True, validate_consistency, log)
        found["diagnostics"] = [(d.line, d.kind.value) for d in log.diagnostics]
        found["violations"] = [(v.at, v.kind.value) for v in violations]
        del log, violations

    log = tr.call("tracefile.parse_s", True, parse_trace_file, path, spec["strict"])
    tr.peak("tracefile.peak_rss_mb")
    tr.add("tracefile.lines", _count_lines(path))
    tr.add("tracefile.events", len(log.events))
    tr.add("tracefile.diagnostics", len(log.diagnostics))
    if not spec["validate"]:
        tr.call("replay.validate_s", False, validate_consistency, log)
    sliceset = tr.call("replay.build_slices_s", True, build_slices, log, spec["strict"])
    del log
    tr.peak("replay.peak_rss_mb")
    tr.add("replay.slices", len(sliceset.slices))
    tr.add("replay.runs", sum(map(len, sliceset.task_runs.values())))
    tr.add("replay.runs", sum(map(len, sliceset.irq_runs.values())))
    tr.add("replay.violations", len(sliceset.diagnostics))

    view = None if spec["view"] is None else Window(*spec["view"])
    fmt = spec["fmt"]
    compute_peak = render_peak = 0.0
    for name in spec["reports"]:
        if name == "load":
            report = tr.call("reports.load_s", True, average_load, sliceset)
        elif name == "utilization":
            report = tr.call(
                "reports.utilization_s", True, utilization, sliceset, spec["slot_width_us"], view
            )
            tr.add("reports.utilization_slots", len(report.slots))
        elif name == "stats":
            report = tr.call("reports.stats_s", True, task_statistics, sliceset, spec["bins"])
        else:
            report = tr.call("reports.timeline_s", True, timeline, sliceset, view)
            tr.add("reports.timeline_segments", sum(len(e.segments) for e in report.entities))
        compute_peak = max(compute_peak, _rss_mb())
        rendered = tr.call(f"reports.render_{name}_s", True, render, report, fmt)
        render_peak = max(render_peak, _rss_mb())
        tr.add("reports.render_bytes", _write(spec["out"], f"{name}.{spec['ext']}", rendered))
        if name == "stats":
            table = tr.call(
                "reports.render_histograms_s", fmt == "csv", render_stats_histograms_csv, report
            )
            if fmt == "csv":
                tr.add("reports.render_bytes", _write(spec["out"], "stats_histograms.csv", table))
    tr.metrics["reports.peak_rss_mb"] = compute_peak
    tr.metrics["reports.render_peak_rss_mb"] = render_peak

    series = list(_series(sliceset))
    tr.add("stats.samples", sum(map(len, series)))
    tr.add("stats.distinct_samples", sum(len(set(xs)) for xs in series))
    tr.call("stats.fits_s", False, _fits, series, spec["bins"])
    return {"metrics": tr.result(), "validate": found}


def main():
    with open(sys.argv[1]) as handle:
        spec = json.load(handle)
    gc.disable()
    result = run(spec)
    with open(sys.argv[2], "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
