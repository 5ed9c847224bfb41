"""Command line interface: analyze traces, generate scenarios, validate logs.

Exit codes: 0 success, 1 parse or trace error, 2 consistency violation in
strict mode, 3 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

from .errors import ConsistencyError, TraceError
from .model import Window
from .replay import build_slices, validate_consistency
from .reports import (
    CSV,
    FORMATS,
    MAX_SLOTS,
    REPORT_TYPES,
    TEXT,
    average_load,
    clip_view,
    render_stats_histograms_csv,
    task_statistics,
    timeline,
    utilization,
    write_report,
)
from .stats import MAX_BINS
from .synthgen import Scenario, generate_trace, manifest_csv, parse_script
from .tracefile import parse_trace_file, read_text

EXIT_OK = 0
EXIT_TRACE_ERROR = 1
EXIT_CONSISTENCY = 2
EXIT_USAGE = 3

_EXTENSIONS = {"text": "txt", "csv": "csv", "json": "json"}


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
    """Whether a second process may write a report: fork exists, it is safe and it pays."""
    if not hasattr(os, "fork"):
        return False
    import threading  # here, so that only a run that may fork names it

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return threading.active_count() == 1 and cpus > 1


def _fork_last(names: list[str], emit) -> None:
    """Call `emit` on each name, on the last one in a forked child meanwhile.

    The child sends what it raised through a pipe and ends with os._exit, so it
    never returns into the caller; one that cannot send its error exits 1.  The
    parent emits the others, raises its own error first, then the child's, and
    reaps the child on every path.
    """
    import pickle

    for stream in filter(None, (sys.stdout, sys.stderr)):  # None if started closed
        stream.flush()  # or the child would hold a copy of what they buffer
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        status = 0
        try:
            emit(names[-1])
        except BaseException as exc:  # handed to the parent, which raises it
            status = 1
            message = pickle.dumps(exc)
            with open(write_end, "wb") as pipe:
                pipe.write(message)
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            for name in names[:-1]:
                emit(name)
            message = pipe.read()
    finally:  # the pipe is closed first, so a child still writing to it ends
        _, status = os.waitpid(pid, 0)
    if message:
        raise pickle.loads(message)  # bytes written by the child above
    if status:
        code = os.waitstatus_to_exitcode(status)
        raise ChildProcessError(f"the process writing the {names[-1]} report exited with {code}")


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
        log = parse_trace_file(path, strict=not ns.lenient)
        sliceset = build_slices(log, strict=not ns.lenient)
        _warn(log.diagnostics, sliceset.diagnostics, path if multi else None)
        del log  # the reports can reuse the event log's memory
        zoom = _zoom(reports, sliceset, ns)
        directory = os.path.join(ns.output_dir, _stem(path)) if multi else ns.output_dir

        def emit(name):  # one report, released when written
            report = _compute(name, sliceset, ns, zoom)
            if directory:
                with _open(directory, f"{name}.{_EXTENSIONS[ns.format]}") as handle:
                    write_report(report, ns.format, handle)
                if name == "stats" and ns.format == CSV:
                    _write(directory, "stats_histograms.csv", render_stats_histograms_csv(report))
            else:  # stdout takes one trace only
                sys.stdout.write("" if name == reports[0] else "\n")  # a blank line parts documents
                write_report(report, ns.format, sys.stdout)

        # reports to files may be written two at a time: the last, which is
        # the largest in a full run, by a forked child
        if directory and len(reports) > 1 and _may_fork():
            _fork_last(reports, emit)
        else:
            for name in reports:
                emit(name)
    return EXIT_OK


def _cmd_generate(ns) -> int:
    scenario = parse_script(read_text(ns.script))
    if ns.start_us:
        scenario = Scenario(ns.start_us, scenario.runs)
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
    log = parse_trace_file(ns.trace, strict=not ns.lenient)
    _warn(log.diagnostics)
    violations = validate_consistency(log)
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
