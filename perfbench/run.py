"""Benchmark of `schedtrace analyze`, end to end and per layer.

Run from the root of the repository:

    python3 perfbench/run.py --workload gate-1m-text --seed 1 --seconds 25 --trace 0

It writes the workload's trace from the seed, then repeats the workload's
`schedtrace` command lines, each in a fresh process, until the measured
time reaches --seconds.  Every report file (and the verdict of `validate`)
of every repetition is one operation, checked against the benchmark's own
oracle.  With --trace 1 each repetition is followed by a fresh run of
traced.py, which makes the same public calls one span at a time.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`, the median over the repetitions of
each end-to-end metric (--trace 0) or per-layer metric (--trace 1).  Inputs
and outputs go under perfbench/work/, which each run empties first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_STARTS = 15


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _spawn(argv, env, stdout, stderr):
    """Run one child to its exit: (wall s, cpu s, peak RSS MB, exit code)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=stdout, stderr=stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode


def measure_setup(work, env):
    """Median time for a fresh interpreter to import schedtrace and reach its read.

    The command analyzes an empty trace, so the process ends (exit 1, empty
    trace) right where it has read the trace; the first starts warm the
    bytecode cache and are not counted.
    """
    empty = work / "empty.txt"
    empty.write_bytes(b"")
    argv = [sys.executable, "-m", "schedtrace.cli", "analyze", str(empty), "--report", "load"]
    times = []
    for i in range(SETUP_STARTS + 2):
        wall, _, _, code = _spawn(argv, env, subprocess.DEVNULL, subprocess.DEVNULL)
        if code != 1:
            raise RuntimeError(f"set-up probe exited {code}, expected 1 (empty trace)")
        if i >= 2:
            times.append(wall)
    return statistics.median(times)


class Verdicts:
    """Check results per operation, kept by a hash of what was checked.

    The program is deterministic, so a repetition whose output bytes equal
    an earlier one's has the same verdict; only new bytes are checked again.
    """

    def __init__(self):
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.problems = {}  # tag -> first messages

    def record(self, op, key, check):
        self.attempted += 1
        if (op, key) not in self.seen:
            try:
                problems = check()
            except (ValueError, KeyError, IndexError, TypeError, StopIteration, OSError) as exc:
                problems = [(checks.WRONG, f"{op}: unreadable: {exc!r}")]
            self.seen[(op, key)] = problems
        problems = self.seen[(op, key)]
        if problems:
            self.failed += 1
            for tag, message in problems:
                kept = self.problems.setdefault(tag, [])
                if len(kept) < 5 and message not in kept:
                    kept.append(message)

    @property
    def correct(self):
        return set(self.problems) <= {checks.HISTOGRAM_EDGE}


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
        h.update(b"\0")
    return h.hexdigest()


def _file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 22):
            h.update(chunk)
    return h.hexdigest()


def _check_reports(wl, verdicts, analyze_ok):
    for name in wl.report_files():
        path = wl.out / name
        if not analyze_ok or not path.is_file():
            verdicts.record(name, "missing", lambda: [(checks.WRONG, f"{name} not written")])
            continue
        verdicts.record(name, _file_digest(path), lambda: wl.check_report(name, path))


def _repetition(wl, env, verdicts):
    """Run the workload's commands once and check what they wrote.

    Returns (wall s, cpu s, peak RSS MB) summed, summed and maxed over the
    commands.
    """
    shutil.rmtree(wl.out, ignore_errors=True)
    wall = cpu = rss = 0.0
    ok = True
    for name, args, expected in wl.commands():
        out, err = wl.work / f"{name}.stdout", wl.work / f"{name}.stderr"
        with open(out, "wb") as o, open(err, "wb") as e:
            w, c, r, code = _spawn([sys.executable, "-m", "schedtrace.cli", *args], env, o, e)
        wall, cpu, rss = wall + w, cpu + c, max(rss, r)
        if name == "validate":
            stdout, stderr = out.read_bytes(), err.read_bytes()
            verdicts.record(
                "validate",
                _digest(stdout, stderr, str(code).encode()),
                lambda: _validate_problems(wl, code, expected, stdout, stderr),
            )
        elif code != expected:
            ok = False
            sys.stderr.write(err.read_text()[-2000:])
    _check_reports(wl, verdicts, ok)
    return wall, cpu, rss


def run_plain(wl, seconds, env):
    setup = measure_setup(wl.work, env)
    verdicts = Verdicts()
    walls, cpus, rsss = [], [], []
    while not walls or sum(walls) < seconds:
        wall, cpu, rss = _repetition(wl, env, verdicts)
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
    print("wall_s per repetition: " + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(rsss), "MB"),
        "setup_s": (setup, "s"),
    }
    return verdicts, metrics, len(walls)


def _validate_problems(wl, code, expected, stdout, stderr):
    if code != expected:
        return [(checks.WRONG, f"validate exited {code}, expected {expected}")]
    return wl.check_validate(*checks.read_validate_output(stdout, stderr))


PER_LAYER_UNITS = {
    "tracefile.parse_s": "s",
    "tracefile.lines": "count",
    "tracefile.events": "count",
    "tracefile.diagnostics": "count",
    "tracefile.peak_rss_mb": "MB",
    "replay.build_slices_s": "s",
    "replay.validate_s": "s",
    "replay.slices": "count",
    "replay.runs": "count",
    "replay.violations": "count",
    "replay.peak_rss_mb": "MB",
    "reports.load_s": "s",
    "reports.utilization_s": "s",
    "reports.utilization_slots": "count",
    "reports.stats_s": "s",
    "reports.timeline_s": "s",
    "reports.timeline_segments": "count",
    "reports.peak_rss_mb": "MB",
    "reports.render_load_s": "s",
    "reports.render_utilization_s": "s",
    "reports.render_stats_s": "s",
    "reports.render_histograms_s": "s",
    "reports.render_timeline_s": "s",
    "reports.render_bytes": "bytes",
    "reports.render_peak_rss_mb": "MB",
    "stats.fits_s": "s",
    "stats.samples": "count",
    "stats.distinct_samples": "count",
    "traced.total_s": "s",
}


def run_traced(wl, seconds, env):
    """Per-layer metrics from traced.py, each run paired with an untraced one.

    The untraced repetition runs just before each traced one, so the gap
    between `traced.total_s` and `wall_s - setup_s`, printed on standard
    error, compares runs made at the same time on a host whose speed
    drifts.  Its outputs are checked like the traced run's.
    """
    setup = measure_setup(wl.work, env)
    verdicts = Verdicts()
    spec_path, result_path = wl.work / "traced-spec.json", wl.work / "traced-result.json"
    spec_path.write_text(json.dumps(wl.traced_spec()))
    samples = {name: [] for name in PER_LAYER_UNITS}
    untraced = []
    measured = 0.0
    while not untraced or measured < seconds:
        wall = _repetition(wl, env, verdicts)[0]
        untraced.append(wall)
        measured += wall
        shutil.rmtree(wl.out, ignore_errors=True)
        result_path.unlink(missing_ok=True)
        err = wl.work / "traced.stderr"
        with open(err, "wb") as e:
            argv = [sys.executable, str(HERE / "traced.py"), str(spec_path), str(result_path)]
            wall, _, _, code = _spawn(argv, env, subprocess.DEVNULL, e)
        measured += wall
        if code != 0:
            sys.stderr.write(err.read_text()[-2000:])
            if wl.lenient:
                verdicts.record("validate", "crashed", lambda: [(checks.WRONG, "traced run failed")])
            _check_reports(wl, verdicts, False)
            continue
        result = json.loads(result_path.read_text())
        if wl.lenient:
            found = result["validate"]
            diagnostics = [tuple(d) for d in found["diagnostics"]]
            violations = [tuple(v) for v in found["violations"]]
            verdicts.record(
                "validate",
                _digest(json.dumps(found).encode()),
                lambda: wl.check_validate(diagnostics, violations),
            )
        _check_reports(wl, verdicts, True)
        for name, value in result["metrics"].items():
            samples[name].append(value)
    missing = [name for name, values in samples.items() if not values]
    if missing:
        raise RuntimeError(f"traced run gave no value for {missing}")
    metrics = {}
    for name, values in samples.items():
        unit = PER_LAYER_UNITS[name]
        # counts repeat exactly; median_low keeps them whole numbers
        median = statistics.median_low if unit in ("count", "bytes") else statistics.median
        metrics[name] = (median(values), unit)
    wall = statistics.median(untraced)
    total = metrics["traced.total_s"][0]
    print(
        f"untraced wall_s {wall:.3f} - setup_s {setup:.3f} = {wall - setup:.3f} s,"
        f" traced.total_s {total:.3f} s, gap {wall - setup - total:+.3f} s"
        f" (medians of {len(untraced)} paired repetitions)",
        file=sys.stderr,
    )
    return verdicts, metrics, len(untraced)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if not (ROOT / "src" / "schedtrace" / "cli.py").is_file():
        print(f"error: no schedtrace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = HERE / "work" / ns.workload
    shutil.rmtree(work, ignore_errors=True)
    t0 = time.perf_counter()
    wl = workloads.build(ns.workload, ns.seed, work)
    print(f"inputs: {json.dumps(wl.makeup)} in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    env = _env()
    runner = run_traced if ns.trace else run_plain
    verdicts, metrics, reps = runner(wl, ns.seconds, env)
    for tag, messages in verdicts.problems.items():
        for message in messages:
            print(f"failed ({tag}): {message}", file=sys.stderr)
    print(f"{reps} repetitions, {verdicts.attempted} operations", file=sys.stderr)
    result = {
        "correct": verdicts.correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
