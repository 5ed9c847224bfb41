"""Command line interface: analyze traces, generate scenarios, validate logs.

Exit codes: 0 success, 1 parse or trace error, 2 consistency violation in
strict mode, 3 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from types import SimpleNamespace

from .errors import ConsistencyError, TraceError
from .model import EntityKind, Window
from .replay import build_slices, replay_halves, validate_consistency
from .reports import (
    CSV,
    FORMATS,
    MAX_SLOTS,
    REPORT_TYPES,
    TEXT,
    average_load,
    clip_view,
    task_statistics,
    timeline,
    utilization,
    write_report,
    write_stats_histograms_csv,
    write_timeline_part,
)
from .stats import MAX_BINS
from .synthgen import ID_LIMIT, Scenario, generate_trace, manifest_csv, parse_script
from .tracefile import parse_trace, read_text

EXIT_OK = 0
EXIT_TRACE_ERROR = 1
EXIT_CONSISTENCY = 2
EXIT_USAGE = 3

_EXTENSIONS = {"text": "txt", "csv": "csv", "json": "json"}
# A trace of this many characters or more is parsed and replayed in two
# halves at once where two processes may run (see _may_fork): about 26,000
# gate-shaped lines.
_SPLIT_CHARS = 1 << 20
# What the forked child of a split analyze writes: stats and the timeline's
# task part.  The parent writes the rest, load, utilization and the
# timeline's IRQ part; on the gate trace the two shares take about 0.8 and
# 0.7 s.
_CHILD_JOBS = (("stats", None), ("timeline", EntityKind.TASK))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map usage errors to 3
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="schedtrace", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="compute reports from trace files")
    analyze.add_argument("traces", nargs="+", metavar="TRACE", help="trace path or '-'")
    analyze.add_argument(
        "--report",
        action="append",
        dest="reports",
        choices=tuple(REPORT_TYPES),
        help="report to emit; repeatable",
    )
    analyze.add_argument(
        "--slot-width-us",
        type=int,
        default=100_000,
        help=f"utilization slot width in microseconds (default 100000), at most {MAX_SLOTS} slots",
    )
    analyze.add_argument(
        "--from-us", type=int, dest="from_us", help="zoom start, absolute trace us"
    )
    analyze.add_argument(
        "--to-us", type=int, dest="to_us", help="zoom end, absolute trace us"
    )
    analyze.add_argument(
        "--bins", type=int, default=20, help=f"histogram bin count, 1 to {MAX_BINS} (default 20)"
    )
    analyze.add_argument(
        "--lenient",
        action="store_true",
        help="skip bad lines and repair inconsistent events instead of failing",
    )
    analyze.add_argument("--format", choices=FORMATS, default=TEXT)
    analyze.add_argument("-o", "--output-dir", help="write one file per report here")

    generate = sub.add_parser("generate", help="emit a trace from a scenario script")
    generate.add_argument("script", metavar="SCRIPT", help="scenario script or '-'")
    generate.add_argument(
        "--start-us", type=int, default=0, help="timestamp of the first event"
    )
    generate.add_argument(
        "--prior-task", type=int, default=0, help="old task of the first switch"
    )
    generate.add_argument(
        "--final-task", type=int, default=0, help="new task of the terminal switch"
    )
    generate.add_argument(
        "-o", "--output-dir", help="write trace.txt and manifest.csv here"
    )

    validate = sub.add_parser("validate", help="check a trace for consistency")
    validate.add_argument("trace", metavar="TRACE", help="trace path or '-'")
    validate.add_argument(
        "--lenient", action="store_true", help="tolerate unparseable lines"
    )
    return parser


def _stem(path: str) -> str:
    if path == "-":
        return "stdin"
    base = os.path.basename(path)
    dot = base.rfind(".")
    return base[:dot] if dot > 0 else base


@contextmanager
def _open(directory: str, name: str):
    """A text file to write, removed again if the writing fails."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    handle = open(path, "w", encoding="utf-8", newline="")
    try:
        with handle:
            yield handle
    except BaseException:
        os.remove(path)
        raise


def _write(directory: str, name: str, content: str):
    with _open(directory, name) as handle:
        handle.write(content)


def _zoom(names, sliceset, ns):
    """The --from-us/--to-us view or None; first raises what computing `names` would."""
    window, lo, hi = sliceset.window, ns.from_us, ns.to_us
    zoom = None
    if lo is not None or hi is not None:
        zoom = Window(window.start if lo is None else lo, window.end if hi is None else hi)
    for name in names:
        clipped = clip_view(zoom if name in ("utilization", "timeline") else None, window)
        slots = -(-clipped.duration_us // ns.slot_width_us)
        if name == "utilization" and slots > MAX_SLOTS:
            raise _UsageError(
                f"--slot-width-us {ns.slot_width_us} makes {slots} slots; at most {MAX_SLOTS} fit"
            )
    return zoom


def _compute(name: str, sliceset, ns, zoom):
    if name == "load":
        return average_load(sliceset)
    if name == "utilization":
        return utilization(sliceset, ns.slot_width_us, zoom)
    if name == "stats":
        return task_statistics(sliceset, ns.bins)
    return timeline(sliceset, zoom)


def _warn(diagnostics, violations=(), trace=None):
    """Warn on stderr of each dropped line and each repaired event of `trace`."""
    head = "warning: " if trace is None else f"warning: {trace}: "
    lines = [f"{head}line {d.line}: {d.kind.value}: {d.message}\n" for d in diagnostics]
    lines += [f"{head}at {v.at} us: {v.kind.value}: {v.detail}\n" for v in violations]
    sys.stderr.write("".join(lines))


def _may_fork() -> bool:
    """Whether a second process may share the work: fork exists, it is safe and it pays."""
    if not hasattr(os, "fork"):
        return False
    import threading  # here, so that only a run that may fork names it

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return threading.active_count() == 1 and cpus > 1


@contextmanager
def _fork(prepare, finish):
    """A forked child that calls finish(prepare(), message) on the one
    message the parent sends; the value is the parent's end of it.

    The parent calls send(message) once, then result(), which returns what
    finish returned or raises what the child raised; a child that cannot
    send its outcome exits 1.  The child ends with os._exit, so it never
    returns into the caller.  The parent reaps it on every path, closing the
    pipes first, so a child still waiting for the message or writing its
    outcome ends.
    """
    import pickle

    for stream in filter(None, (sys.stdout, sys.stderr)):  # None if started closed
        stream.flush()  # or the child would hold a copy of what they buffer
    down_read, down_write = os.pipe()
    up_read, up_write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(down_write)
        os.close(up_read)
        status = 1
        try:
            try:
                prepared = prepare()
                with open(down_read, "rb") as pipe:
                    message = pickle.loads(pipe.read())  # bytes written by the parent below
                outcome = (finish(prepared, message), None)
            except BaseException as exc:  # handed to the parent, which raises it
                outcome = (None, exc)
            message = pickle.dumps(outcome)
            with open(up_write, "wb") as pipe:
                pipe.write(message)
            status = 0
        finally:
            os._exit(status)
    os.close(down_read)
    os.close(up_write)
    down, up = open(down_write, "wb"), open(up_read, "rb")
    reaped = []

    def send(message):
        try:
            with down:
                down.write(pickle.dumps(message))
        except BrokenPipeError:  # the child has exited: result() says how
            pass

    def result():
        down.close()  # a child still waiting for a message reads EOFError
        with up:  # read as it is unpickled, so the parent never holds the whole message
            try:
                outcome = pickle.load(up)  # bytes the child wrote whole, or not at all
            except EOFError:
                outcome = None
        reaped.append(os.waitpid(pid, 0)[1])
        if outcome is None:
            code = os.waitstatus_to_exitcode(reaped[0])
            raise ChildProcessError(f"the second process exited with {code} and sent nothing")
        value, error = outcome
        if error is not None:
            raise error
        return value

    try:
        yield SimpleNamespace(send=send, result=result)
    finally:
        down.close()
        up.close()
        if not reaped:
            os.waitpid(pid, 0)


def _load(path: str, strict: bool, slices: bool):
    """The parse diagnostics of the trace at `path`, and its SliceSet if
    `slices`, else its consistency violations.  A long trace is parsed and
    replayed in two halves by two processes where _may_fork allows."""
    text = [read_text(path)]  # the one reference, which the parse takes
    if len(text[0]) >= _SPLIT_CHARS and _may_fork():
        return replay_halves(text.pop, strict, slices, _fork)
    log = parse_trace(text.pop(), strict)
    return log.diagnostics, build_slices(log, strict) if slices else validate_consistency(log)


def _emit_split(jobs, emit, timeline_path) -> None:
    """Call `emit` on each job, those of _CHILD_JOBS in a forked child meanwhile.

    `jobs` are (report, timeline part) pairs in report order.  Each process
    stops at its first failing job; the error raised is the one of the
    earliest job that failed, which one process would have hit first.  The
    parent's timeline part, written to `timeline_path` + ".part", is
    appended to the child's `timeline_path` once the child has exited, and
    removed; if a job failed, a timeline the child wrote is removed too.
    """

    def run_jobs(mine):  # the position and error of the first job that fails, or None
        for position, job in mine:
            try:
                emit(*job)
            except Exception as exc:
                return position, exc
        return None

    child = [(i, job) for i, job in enumerate(jobs) if job in _CHILD_JOBS]
    parent = [(i, job) for i, job in enumerate(jobs) if job not in _CHILD_JOBS]
    child_failure, complete = None, False
    try:
        # the child runs its jobs before it reads the message, which is None
        with _fork(lambda: run_jobs(child), lambda failure, _: failure) as worker:
            worker.send(None)
            failures = run_jobs(parent), worker.result()
        child_failure = failures[1]
        failure = min(filter(None, failures), default=None, key=lambda f: f[0])
        if failure is not None:
            raise failure[1]
        if timeline_path:
            with open(timeline_path + ".part", "rb") as part, open(timeline_path, "ab") as whole:
                while chunk := part.read(1 << 20):
                    whole.write(chunk)
        complete = True
    finally:
        if timeline_path:
            _remove(timeline_path + ".part")
            if not complete and child_failure is None:  # a child that failed removed its own
                _remove(timeline_path)


def _remove(path: str) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def _cmd_analyze(ns) -> int:
    reports = [name for name in REPORT_TYPES if name in (ns.reports or ())]
    if not reports:
        raise _UsageError("select at least one --report")
    if ns.slot_width_us < 1:
        raise _UsageError("--slot-width-us must be at least 1")
    if not 1 <= ns.bins <= MAX_BINS:
        raise _UsageError(f"--bins must be from 1 to {MAX_BINS}")
    if ns.from_us is not None and ns.to_us is not None and ns.from_us >= ns.to_us:
        raise _UsageError("--from-us must be smaller than --to-us")
    if len(ns.traces) > 1 and not ns.output_dir:
        raise _UsageError("multiple traces need an output directory (-o)")
    multi = len(ns.traces) > 1
    stems: dict[str, str] = {}  # the trace that writes each subdirectory of -o
    for path in ns.traces:
        stem = _stem(path)
        if stem in stems:
            directory = os.path.join(ns.output_dir, stem)
            raise _UsageError(f"traces {stems[stem]} and {path} would both write {directory}")
        stems[stem] = path
    for path in ns.traces:
        diagnostics, sliceset = _load(path, not ns.lenient, slices=True)
        _warn(diagnostics, sliceset.diagnostics, path if multi else None)
        zoom = _zoom(reports, sliceset, ns)
        directory = os.path.join(ns.output_dir, _stem(path)) if multi else ns.output_dir
        timeline_name = f"timeline.{_EXTENSIONS[ns.format]}"

        def emit(name, part=None):  # one report or timeline part, released when written
            if part is not None:  # the IRQ part goes to a file of its own
                filename = timeline_name if part is EntityKind.TASK else timeline_name + ".part"
                with _open(directory, filename) as handle:
                    write_timeline_part(sliceset, zoom, part, ns.format, handle)
                return
            report = _compute(name, sliceset, ns, zoom)
            if directory:
                with _open(directory, f"{name}.{_EXTENSIONS[ns.format]}") as handle:
                    write_report(report, ns.format, handle)
                if name == "stats" and ns.format == CSV:
                    with _open(directory, "stats_histograms.csv") as handle:
                        write_stats_histograms_csv(report, handle)
            else:  # stdout takes one trace only
                sys.stdout.write("" if name == reports[0] else "\n")  # a blank line parts documents
                write_report(report, ns.format, sys.stdout)

        # reports to files may be written by two processes at once, each
        # taking about half of the work of a full run
        child_work = "stats" in reports or "timeline" in reports
        if directory and len(reports) > 1 and child_work and _may_fork():
            jobs = [(name, None) for name in reports if name != "timeline"]
            timeline_path = None
            if "timeline" in reports:
                jobs += [("timeline", EntityKind.TASK), ("timeline", EntityKind.IRQ)]
                timeline_path = os.path.join(directory, timeline_name)
            _emit_split(jobs, emit, timeline_path)
        else:
            for name in reports:
                emit(name)
    return EXIT_OK


def _cmd_generate(ns) -> int:
    if ns.start_us < 0:
        raise _UsageError("--start-us must not be negative")
    for option, task in (("--prior-task", ns.prior_task), ("--final-task", ns.final_task)):
        if not 0 <= task < ID_LIMIT:
            raise _UsageError(f"{option} must lie in [0, 10**18)")
    scenario = Scenario(ns.start_us, parse_script(read_text(ns.script)).runs)
    trace_text, manifest = generate_trace(
        scenario, prior_task=ns.prior_task, final_task=ns.final_task
    )
    if ns.output_dir:
        _write(ns.output_dir, "trace.txt", trace_text)
        _write(ns.output_dir, "manifest.csv", manifest_csv(manifest))
    else:
        sys.stdout.write(trace_text)
    return EXIT_OK


def _cmd_validate(ns) -> int:
    diagnostics, violations = _load(ns.trace, not ns.lenient, slices=False)
    _warn(diagnostics)
    for violation in violations:
        print(f"at {violation.at} us: {violation.kind.value}: {violation.detail}")
    if violations:
        return EXIT_CONSISTENCY
    print("no consistency violations")
    return EXIT_OK


def run(argv=None) -> int:
    """Entry point returning an exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        if ns.command == "analyze":
            return _cmd_analyze(ns)
        if ns.command == "generate":
            return _cmd_generate(ns)
        return _cmd_validate(ns)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except (TraceError, OSError) as exc:  # script errors are trace errors too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRACE_ERROR


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
