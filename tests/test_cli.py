"""Command line behavior: exit codes, file outputs, stdout contracts."""

import io
import os
import shutil
import subprocess
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from schedtrace import (
    ExecutionSlice,
    IrqBegin,
    IrqEnd,
    Run,
    SliceSet,
    TaskSchedule,
    TimelineSegment,
    average_load,
    build_slices,
    parse_trace,
    render,
    render_stats_histograms_csv,
    task_statistics,
    timeline,
    utilization,
    validate_consistency,
)
from schedtrace import cli
from schedtrace.cli import run
from schedtrace.model import MAX_TIMESTAMP_US, EntityKind
from schedtrace.stats import MAX_BINS
from tests.conftest import SHORT_TRACE, gate_shaped_trace, orphan_end_lines, script_run, unique_id_trace


@pytest.fixture()
def trace_file(tmp_path):
    p = tmp_path / "trace.txt"
    p.write_text(SHORT_TRACE)
    return str(p)


def _slices():
    return build_slices(parse_trace(SHORT_TRACE))


def test_analyze_stdout_matches_library_render(trace_file, capsys):
    assert run(["analyze", trace_file, "--report", "load"]) == 0
    out = capsys.readouterr().out
    assert out == render(average_load(_slices()), "text")


def test_analyze_multiple_reports_canonical_order_and_dedupe(trace_file, capsys):
    code = run(
        ["analyze", trace_file, "--report", "stats", "--report", "load", "--report", "stats"]
    )
    assert code == 0
    out = capsys.readouterr().out
    load_text = render(average_load(_slices()), "text")
    stats_text = render(task_statistics(_slices()), "text")
    # load always renders before stats, once each, separated by a blank line
    assert out == load_text + "\n" + stats_text


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("csv", "csv"), ("json", "json")])
def test_analyze_writes_every_report_as_render_returns_it(trace_file, tmp_path, capsys, fmt, ext):
    s = _slices()
    expected = {
        name: render(maker(s), fmt)
        for name, maker in [("load", average_load), ("utilization", utilization),
                            ("stats", task_statistics), ("timeline", timeline)]
    }
    reports = [arg for name in expected for arg in ("--report", name)]
    assert run(["analyze", trace_file, *reports, "--format", fmt]) == 0
    # on stdout a blank line parts the documents
    assert capsys.readouterr().out == "\n".join(expected.values())
    out_dir = tmp_path / "out"
    assert run(["analyze", trace_file, *reports, "--format", fmt, "-o", str(out_dir)]) == 0
    for name, text in expected.items():
        assert (out_dir / f"{name}.{ext}").read_bytes() == text.encode()


def test_analyze_writes_files(trace_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = run(
        ["analyze", trace_file, "--report", "load", "--report", "timeline",
         "-o", str(out_dir)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in out_dir.iterdir()) == ["load.txt", "timeline.txt"]
    assert (out_dir / "load.txt").read_text() == render(average_load(_slices()), "text")


def test_analyze_csv_stats_adds_histogram_file(trace_file, tmp_path):
    out_dir = tmp_path / "out"
    run(["analyze", trace_file, "--report", "stats", "--format", "csv", "-o", str(out_dir)])
    assert sorted(p.name for p in out_dir.iterdir()) == ["stats.csv", "stats_histograms.csv"]


def test_analyze_writes_the_histogram_file_in_pieces(tmp_path, monkeypatch):
    trace = tmp_path / "unique.txt"
    trace.write_text(unique_id_trace(6_000))  # one histogram row per task
    writes = []  # the length of each write to stats_histograms.csv
    real_open = open

    class Recording:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.handle.close()

        def write(self, text):
            writes.append(len(text))
            return self.handle.write(text)

        def writelines(self, pieces):
            for piece in pieces:
                self.write(piece)

    def recording_open(path, *args, **kwargs):
        handle = real_open(path, *args, **kwargs)
        return Recording(handle) if path.endswith("stats_histograms.csv") else handle

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    out = tmp_path / "out"
    assert run(["analyze", str(trace), "--report", "stats", "--format", "csv", "-o", str(out)]) == 0
    text = (out / "stats_histograms.csv").read_text()
    assert text == render_stats_histograms_csv(task_statistics(build_slices(parse_trace(trace.read_text()))))
    assert sum(writes) == len(text) and max(writes) < len(text) / 2


def test_analyze_json_extension(trace_file, tmp_path):
    out_dir = tmp_path / "out"
    run(["analyze", trace_file, "--report", "utilization", "--format", "json", "-o", str(out_dir)])
    assert [p.name for p in out_dir.iterdir()] == ["utilization.json"]


def test_analyze_multiple_traces_use_stem_subdirs(trace_file, tmp_path):
    other = tmp_path / "second.txt"
    other.write_text(SHORT_TRACE)
    out_dir = tmp_path / "out"
    code = run(["analyze", trace_file, str(other), "--report", "load", "-o", str(out_dir)])
    assert code == 0
    assert (out_dir / "trace" / "load.txt").exists()
    assert (out_dir / "second" / "load.txt").exists()


def _refuse_to_read(monkeypatch):
    def refuse(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr("schedtrace.cli.read_text", refuse)


def test_analyze_refuses_two_traces_of_one_name(tmp_path, monkeypatch, capsys):
    paths = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "x.txt").write_text(SHORT_TRACE)
        paths.append(str(tmp_path / sub / "x.txt"))
    out_dir = tmp_path / "out"
    _refuse_to_read(monkeypatch)
    assert run(["analyze", *paths, "--report", "load", "-o", str(out_dir)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: traces ") and paths[0] in err and paths[1] in err
    assert not out_dir.exists()


def test_analyze_refuses_stdin_twice(tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "out"
    _refuse_to_read(monkeypatch)
    assert run(["analyze", "-", "-", "--report", "load", "-o", str(out_dir)]) == 3
    assert capsys.readouterr().err.startswith("error: traces - and - would both write ")
    assert not out_dir.exists()


def test_analyze_multiple_traces_without_output_dir_is_usage_error(trace_file, capsys):
    assert run(["analyze", trace_file, trace_file, "--report", "load"]) == 3
    assert "output directory" in capsys.readouterr().err


def test_analyze_requires_a_report(trace_file, capsys):
    assert run(["analyze", trace_file]) == 3
    assert "--report" in capsys.readouterr().err


def test_analyze_zoom_flags_restrict_view(trace_file, capsys):
    code = run(
        ["analyze", trace_file, "--report", "timeline",
         "--from-us", "1290800", "--to-us", "1290900"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "1290800" in out.replace(",", "") or "1290800" in out
    assert "preempted_by_irq" in out


def test_analyze_zoom_outside_window_fails(trace_file, capsys):
    # the zoom flags apply to the view-aware reports
    assert run(["analyze", trace_file, "--report", "timeline", "--from-us", "0",
                "--to-us", "5"]) == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_backwards_zoom_is_usage_error(trace_file):
    assert run(["analyze", trace_file, "--report", "load",
                "--from-us", "10", "--to-us", "5"]) == 3


def test_analyze_bad_slot_width_is_usage_error(trace_file):
    assert run(["analyze", trace_file, "--report", "utilization",
                "--slot-width-us", "0"]) == 3


def test_analyze_bins_out_of_bounds_is_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "never-read.txt")  # rejected before the trace is read
    for bins in ("0", "10001"):
        assert run(["analyze", missing, "--report", "stats", "--bins", bins]) == 3
        assert capsys.readouterr().err == "error: --bins must be from 1 to 10000\n"


def test_analyze_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("garbage\n")
    assert run(["analyze", str(p), "--report", "load"]) == 1
    assert "line 1" in capsys.readouterr().err


def test_analyze_missing_file_exit_code(tmp_path, capsys):
    assert run(["analyze", str(tmp_path / "nope.txt"), "--report", "load"]) == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_lenient_recovers_from_dirty_lines(tmp_path, capsys):
    p = tmp_path / "dirty.txt"
    p.write_text(SHORT_TRACE + "junk\n")
    assert run(["analyze", str(p), "--report", "load"]) == 1
    capsys.readouterr()
    assert run(["analyze", str(p), "--report", "load", "--lenient"]) == 0
    captured = capsys.readouterr()
    assert "warning: line 11: unknown_event: " in captured.err
    assert captured.out == render(average_load(_slices()), "text")


def test_analyze_non_utf8_byte_is_a_bad_line_not_a_traceback(tmp_path, capsys):
    p = tmp_path / "bytes.txt"
    p.write_bytes(
        b"<0000h 00m 00s 005 000> Task schedule: old 0 new 2\n"
        b"\xff\n"
        b"<0000h 00m 00s 005 400> Task schedule: old 2 new 0\n"
    )
    assert run(["analyze", str(p), "--report", "load"]) == 1
    assert capsys.readouterr().err.startswith("error: line 2: ")
    assert run(["analyze", str(p), "--report", "load", "--lenient"]) == 0
    captured = capsys.readouterr()
    assert "task 2" in captured.out
    assert captured.err.startswith("warning: line 2: unknown_event: ")
    assert "Traceback" not in captured.err


def test_analyze_lenient_warnings_name_their_trace(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text(SHORT_TRACE + "junk\n")
    b = tmp_path / "b.txt"
    b.write_text(
        "<0000h 00m 00s 000 000> Task schedule: old 0 new 1\n"
        "bad\n"
        "<0000h 00m 00s 000 020> Task schedule: old 5 new 0\n"
    )
    out_dir = tmp_path / "out"
    args = ["analyze", str(a), str(b), "--report", "load", "--lenient", "-o", str(out_dir)]
    assert run(args) == 0
    assert capsys.readouterr().err == (
        f"warning: {a}: line 11: unknown_event: unrecognized line: 'junk'\n"
        f"warning: {b}: line 2: unknown_event: unrecognized line: 'bad'\n"
        f"warning: {b}: at 20 us: old_task_mismatch:"
        " switch claims old task 5 but task 1 is current\n"
    )


# Longer digit runs than int() takes on Python 3.11 (4300), in the three
# kinds of number field: an IRQ id, the microseconds and the hours.
LONG_DIGIT_LINES = {
    "id": ("<0000h 00m 00s 000 100> IRQ begin: " + "1" * 5000, "malformed_payload"),
    "us": ("<0000h 00m 00s 000 " + "1" * 5000 + "> IRQ begin: 3", "malformed_timestamp"),
    "hours": ("<" + "1" * 5000 + "h 00m 00s 000 100> IRQ begin: 3", "malformed_timestamp"),
}


@pytest.mark.parametrize("field", LONG_DIGIT_LINES)
def test_long_digit_run_is_a_diagnosed_line(field, tmp_path, capsys):
    line, kind = LONG_DIGIT_LINES[field]
    p = tmp_path / "long.txt"
    p.write_text(
        "<0000h 00m 00s 000 000> Task schedule: old 0 new 1\n"
        f"{line}\n"
        "<0000h 00m 00s 000 200> Task schedule: old 1 new 0\n"
    )
    for command in (["analyze", str(p), "--report", "load"], ["validate", str(p)]):
        assert run(command) == 1
        assert capsys.readouterr().err.startswith("error: line 2: ")
        assert run([*command, "--lenient"]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith(f"warning: line 2: {kind}: ")
        assert len(captured.err) < 200  # the message quotes a bounded excerpt
        assert "task 1" in captured.out or captured.out == "no consistency violations\n"


# Lines whose numbers the trace format cannot hold: hours past its 4 digits,
# and digits that are not ASCII (Arabic-Indic zero and three).
UNREADABLE_NUMBER_LINES = {
    "hours": (
        "<10000h 00m 00s 000 000> Task schedule: old 0 new 1",
        "malformed_timestamp: timestamp field out of range",
    ),
    "script-timestamp": (
        "<٠٠٠٠h 00m 00s 000 000> Task schedule: old 0 new 3",
        "malformed_timestamp: malformed timestamp",
    ),
    "script-id": (
        "<0000h 00m 00s 000 000> Task schedule: old 0 new ٣",
        "malformed_payload: malformed event payload",
    ),
}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("case", UNREADABLE_NUMBER_LINES)
def test_unreadable_number_is_a_diagnosed_line_in_every_format(case, fmt, tmp_path, capsys):
    line, warning = UNREADABLE_NUMBER_LINES[case]
    message = warning.split(": ", 1)[1]
    good = (
        "<0000h 00m 00s 000 000> Task schedule: old 0 new 1\n"
        "<0000h 00m 00s 000 200> Task schedule: old 1 new 0\n"
    )
    clean = tmp_path / "clean.txt"
    clean.write_text(good, encoding="utf-8")
    p = tmp_path / "bad.txt"
    p.write_text(f"{line}\n{good}", encoding="utf-8")
    args = ["--report", "load", "--report", "timeline", "--format", fmt]
    assert run(["analyze", str(p), *args]) == 1
    assert capsys.readouterr().err.startswith(f"error: line 1: {message}: ")
    assert run(["analyze", str(clean), *args]) == 0
    expected = capsys.readouterr().out
    assert run(["analyze", str(p), *args, "--lenient"]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith(f"warning: line 1: {warning}: ")
    assert captured.out == expected  # the line is dropped, not read as another number


def _span_trace(tmp_path, span_us):
    p = tmp_path / "span.txt"
    p.write_text(
        "<0000h 00m 00s 000 000> Task schedule: old 0 new 1\n"
        f"<0000h 00m 00s {span_us // 1000:03d} {span_us % 1000:03d}> Task schedule: old 1 new 0\n"
    )
    return str(p)


def test_analyze_slot_count_is_capped(tmp_path, capsys):
    args = ["--report", "utilization", "--slot-width-us", "1", "-o", str(tmp_path / "out")]
    assert run(["analyze", _span_trace(tmp_path, 100_001), *args]) == 3
    assert capsys.readouterr().err == (
        "error: --slot-width-us 1 makes 100001 slots; at most 100000 fit\n"
    )
    assert not (tmp_path / "out" / "utilization.txt").exists()
    # the cap applies to the zoomed view cut to the window
    zoom = ["--from-us", "1", "--to-us", "500000"]
    assert run(["analyze", _span_trace(tmp_path, 100_001), *args, *zoom]) == 0
    assert run(["analyze", _span_trace(tmp_path, 100_000), *args]) == 0
    lines = (tmp_path / "out" / "utilization.txt").read_text().splitlines()
    assert lines[-1].split()[:2] == ["99999", "1"]


@pytest.mark.parametrize(
    "args, code, message",
    [
        (
            ["--report", "load", "--report", "utilization", "--slot-width-us", "1"],
            3,
            "error: --slot-width-us 1 makes 100001 slots; at most 100000 fit\n",
        ),
        (
            ["--report", "load", "--report", "timeline", "--from-us", "200000"],
            1,
            "error: no time to analyze in [200000, 100001] us\n",
        ),
    ],
    ids=["slot-cap", "empty-zoom"],
)
def test_analyze_checks_the_trace_before_writing_any_report(tmp_path, capsys, args, code, message):
    trace = _span_trace(tmp_path, 100_001)
    out = tmp_path / "out"
    assert run(["analyze", trace, *args, "-o", str(out)]) == code
    assert capsys.readouterr() == ("", message)
    assert not out.exists()
    assert run(["analyze", trace, *args]) == code
    assert capsys.readouterr() == ("", message)


def test_analyze_and_validate_build_no_event_tuples(trace_file, monkeypatch, capsys):
    def refuse(cls, *fields):
        raise AssertionError(f"built a {cls.__name__}")

    for cls in (TaskSchedule, IrqBegin, IrqEnd):
        monkeypatch.setattr(cls, "__new__", refuse)
    reports = ["--report", "load", "--report", "utilization", "--report", "stats", "--report", "timeline"]
    assert run(["analyze", trace_file, *reports]) == 0
    assert run(["validate", trace_file]) == 0
    assert len(parse_trace(SHORT_TRACE).events) == 10
    with pytest.raises(AssertionError):
        parse_trace(SHORT_TRACE).events[0]


@pytest.mark.parametrize(
    "zoom", [[], ["--from-us", "1290700", "--to-us", "1291100"]], ids=["whole", "zoom"]
)
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_analyze_builds_no_slice_or_segment_tuples(trace_file, monkeypatch, capsys, fmt, zoom):
    def refuse(cls, *fields):
        raise AssertionError(f"built a {cls.__name__}")

    def refuse_views(self):
        raise AssertionError("built the run views")

    for cls in (ExecutionSlice, TimelineSegment, Run):
        monkeypatch.setattr(cls, "__new__", refuse)
    for name in ("task_runs", "irq_runs"):
        monkeypatch.setattr(SliceSet, name, property(refuse_views))
    reports = ["--report", "load", "--report", "utilization", "--report", "stats", "--report", "timeline"]
    assert run(["analyze", trace_file, *reports, "--format", fmt, *zoom]) == 0
    assert "preempted_by_irq" in capsys.readouterr().out
    s = build_slices(parse_trace(SHORT_TRACE))
    assert len(s.slices) == 9 and list(map(len, s.runs.values())) == [3] * 7
    assert [len(e.segments) for e in timeline(s).entities] == [3, 3, 2, 5, 4, 3, 3]


def test_analyze_removes_a_report_file_whose_writing_fails(trace_file, tmp_path, monkeypatch, capsys):
    def write_then_fail(report, fmt, stream):
        stream.write("entity,kind")
        raise OSError("disk full")

    monkeypatch.setattr("schedtrace.cli.write_report", write_then_fail)
    out = tmp_path / "out"
    assert run(["analyze", trace_file, "--report", "load", "-o", str(out)]) == 1
    assert capsys.readouterr().err == "error: disk full\n"
    assert list(out.iterdir()) == []


_ALL_REPORTS = [arg for name in ("load", "utilization", "stats", "timeline") for arg in ("--report", name)]


@pytest.fixture()
def forks(monkeypatch):
    """The pids analyze forks, on a host of any CPU count; no child may outlive the test."""
    pids = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    yield pids
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_fork_passes_one_message_each_way_and_reaps_a_child_that_sends_nothing(forks):
    with cli._fork(lambda: 2, lambda prepared, message: prepared * message) as child:
        child.send(21)
        assert child.result() == 42
    with cli._fork(lambda: None, lambda prepared, message: lambda: message) as child:
        child.send(1)
        with pytest.raises(ChildProcessError, match="exited with 1 and sent nothing"):
            child.result()  # a lambda does not pickle, so the child sends nothing
    with cli._fork(lambda: None, lambda prepared, message: message) as child:
        with pytest.raises(EOFError):
            child.result()  # no message was sent
    with cli._fork(lambda: os._exit(3), lambda prepared, message: message) as child:
        os.waitid(os.P_PID, forks[-1], os.WEXITED | os.WNOWAIT)  # exited, not yet reaped
        child.send(1)
        with pytest.raises(ChildProcessError, match="exited with 3 and sent nothing"):
            child.result()
    assert len(forks) == 4


def _files(directory):
    return {p.relative_to(directory): p.read_bytes() for p in directory.rglob("*") if p.is_file()}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_analyze_forked_writes_what_one_process_writes(trace_file, tmp_path, monkeypatch, forks, fmt):
    other = tmp_path / "second.txt"
    other.write_text(SHORT_TRACE)
    for traces in ([trace_file], [trace_file, str(other)]):
        args = ["analyze", *traces, *_ALL_REPORTS, "--format", fmt, "-o"]
        forked, serial = tmp_path / f"forked{len(traces)}", tmp_path / f"serial{len(traces)}"
        assert run([*args, str(forked)]) == 0
        with monkeypatch.context() as one_process:
            one_process.delattr(os, "fork")
            assert run([*args, str(serial)]) == 0
        written = _files(serial)
        assert _files(forked) == written
        assert len(written) == (4 + (fmt == "csv")) * len(traces)
    assert len(forks) == 3  # one per trace


def test_analyze_forked_child_error_is_the_error_of_one_process(trace_file, tmp_path, monkeypatch, capsys, forks):
    out = tmp_path / "out"
    (out / "timeline.txt").mkdir(parents=True)
    assert run(["analyze", trace_file, *_ALL_REPORTS, "-o", str(out)]) == 1
    forked = capsys.readouterr()
    assert len(forks) == 1
    assert forked.out == "" and forked.err.startswith("error: ")
    assert forked.err.endswith(f"{out / 'timeline.txt'}'\n")
    # the parent's reports are complete; the child's file was never opened
    assert sorted(p.name for p in out.iterdir() if p.is_file()) == ["load.txt", "stats.txt", "utilization.txt"]
    monkeypatch.delattr(os, "fork")
    assert run(["analyze", trace_file, *_ALL_REPORTS, "-o", str(out)]) == 1
    assert capsys.readouterr() == forked


def test_analyze_forked_child_removes_its_partial_file(trace_file, tmp_path, monkeypatch, capsys, forks):
    def write_report(report, fmt, stream):
        stream.write("partial and done")

    def write_timeline_part(s, view, kind, fmt, stream):
        stream.write("partial")
        if kind is EntityKind.TASK:  # the child's part
            raise OSError("disk full")

    monkeypatch.setattr("schedtrace.cli.write_report", write_report)
    monkeypatch.setattr("schedtrace.cli.write_timeline_part", write_timeline_part)
    out = tmp_path / "out"
    assert run(["analyze", trace_file, *_ALL_REPORTS, "-o", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: disk full\n")
    assert len(forks) == 1
    # neither the child's timeline nor the parent's IRQ part remains
    assert {p.name: p.read_text() for p in out.iterdir()} == {
        name: "partial and done" for name in ("load.txt", "utilization.txt", "stats.txt")
    }


def _fail_at(monkeypatch, errors):
    """Make each job of `errors`, a report or ("timeline", part), raise its
    error: a report before it opens its file, a part once it wrote some."""
    compute, write_part = cli._compute, cli.write_timeline_part

    def failing_compute(name, *args):
        if name in errors:
            raise errors[name]
        return compute(name, *args)

    def failing_part(s, view, kind, fmt, stream):
        if ("timeline", kind) in errors:
            stream.write("partial")
            raise errors["timeline", kind]
        write_part(s, view, kind, fmt, stream)

    monkeypatch.setattr(cli, "_compute", failing_compute)
    monkeypatch.setattr(cli, "write_timeline_part", failing_part)


@pytest.mark.parametrize("error, code", [(OSError("disk full"), 1), (ValueError("bug"), None)])
def test_analyze_failing_parent_still_reaps_the_child(trace_file, tmp_path, monkeypatch, capsys, forks, error, code):
    _fail_at(monkeypatch, {"utilization": error})
    out = tmp_path / "out"
    args = ["analyze", trace_file, *_ALL_REPORTS, "-o", str(out)]
    if code is None:  # not an error of the trace or the files: it propagates
        with pytest.raises(ValueError, match="bug"):
            run(args)
    else:
        assert run(args) == code
        assert capsys.readouterr().err == "error: disk full\n"
    assert len(forks) == 1
    # the child wrote stats whole before the parent reaped it; its timeline,
    # which lacks the parent's IRQ part, is removed
    assert sorted(p.name for p in out.iterdir()) == ["load.txt", "stats.txt"]
    assert (out / "stats.txt").read_text() == render(task_statistics(_slices()), "text")


def test_analyze_interrupted_parent_still_reaps_the_child(trace_file, tmp_path, monkeypatch, forks):
    _fail_at(monkeypatch, {"utilization": KeyboardInterrupt()})  # not an error: it ends the run
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        run(["analyze", trace_file, *_ALL_REPORTS, "-o", str(out)])
    assert len(forks) == 1
    assert sorted(p.name for p in out.iterdir()) == ["load.txt", "stats.txt"]


_TASKS, _IRQS = ("timeline", EntityKind.TASK), ("timeline", EntityKind.IRQ)


# Jobs that fail, on either side of the split, earliest first in report
# order: the error is the first one's, which one process would hit first
@pytest.mark.parametrize(
    "jobs",
    [("load", "stats"), ("utilization", _TASKS), ("stats", _IRQS), (_TASKS, _IRQS), (_IRQS,), ("stats",)],
    ids=["load-stats", "utilization-tasks", "stats-irqs", "tasks-irqs", "irqs", "stats"],
)
def test_analyze_split_raises_the_error_one_process_hits_first(trace_file, tmp_path, monkeypatch, capsys, forks, jobs):
    out, serial = tmp_path / "out", tmp_path / "serial"
    with monkeypatch.context() as failing:
        _fail_at(failing, {job: OSError(f"cannot write {job}") for job in jobs})
        assert run(["analyze", trace_file, *_ALL_REPORTS, "-o", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: cannot write {jobs[0]}\n")
    assert len(forks) == 1
    with monkeypatch.context() as one_process:
        one_process.delattr(os, "fork")
        assert run(["analyze", trace_file, *_ALL_REPORTS, "-o", str(serial)]) == 0
    # no part file and no timeline remain, and each report that does is whole
    written = _files(out)
    assert {p.name for p in written} <= {"load.txt", "utilization.txt", "stats.txt"}
    assert written == {p: data for p, data in _files(serial).items() if p in written}


def test_analyze_forks_only_for_reports_to_files_in_one_thread_on_two_cpus(
    trace_file, tmp_path, monkeypatch, capsys, forks
):
    assert run(["analyze", trace_file, *_ALL_REPORTS]) == 0  # to stdout
    assert run(["analyze", trace_file, "--report", "timeline", "-o", str(tmp_path / "one")]) == 0
    # neither stats nor the timeline: no work for a second process
    assert run(["analyze", trace_file, "--report", "load", "--report", "utilization", "-o", str(tmp_path / "lu")]) == 0
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        assert run(["analyze", trace_file, *_ALL_REPORTS, "-o", str(tmp_path / "threaded")]) == 0
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    with monkeypatch.context() as one_cpu:
        one_cpu.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        one_cpu.setattr(os, "cpu_count", lambda: 1)
        assert run(["analyze", trace_file, *_ALL_REPORTS, "-o", str(tmp_path / "one-cpu")]) == 0
    assert forks == []
    assert run(["analyze", trace_file, *_ALL_REPORTS, "-o", str(tmp_path / "forked")]) == 0
    assert len(forks) == 1


@pytest.fixture()
def split(monkeypatch, forks):
    """The forked pids, with every trace parsed in two halves by two processes."""
    monkeypatch.setattr(cli, "_SPLIT_CHARS", 1)
    return forks


def _halves(first: str, second: str) -> str:
    """first + second, the last line of `first` padded with spaces so that
    the parse cuts the text right after it."""
    body, end = (first[:-2], "\r\n") if first.endswith("\r\n") else (first[:-1], "\n")
    text = body + " " * (len(first) + len(second)) + end + second
    assert text.find("\n", len(text) // 2) + 1 == len(text) - len(second)
    return text


def _line(us, payload="Task schedule: old 0 new 0"):
    return f"<0000h 00m 00s {us // 1000:03d} {us % 1000:03d}> {payload}\n"


def _outcome(args, capsys, out):
    """Exit code, stdout, stderr and every file written of one run; `out` emptied first."""
    shutil.rmtree(out, ignore_errors=True)
    code = run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, _files(out) if out.exists() else {}


def _split_commands(path, out, fmt="text"):
    analyze = ["analyze", path, *_ALL_REPORTS, "--format", fmt, "-o", str(out)]
    validate = ["validate", path]
    return [analyze, [*analyze, "--lenient"], validate, [*validate, "--lenient"]]


def _same_outcome_as_one_process(args, capsys, monkeypatch, out, forks, stdin=None, parse_forks=True):
    """Run `args` with and without fork; assert the same outcome, and, if
    `parse_forks`, that the run with fork forked."""
    outcomes = []
    for fork in (True, False):
        with monkeypatch.context() as m:
            if stdin is not None:
                m.setattr(sys, "stdin", type("Stdin", (), {"buffer": io.BytesIO(stdin)}))
            if not fork:
                m.delattr(os, "fork")
            forked = len(forks)
            outcomes.append(_outcome(args, capsys, out))
            assert (len(forks) > forked) == fork or not parse_forks
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


_SPLIT_CASES = {
    # the first line after the cut goes back behind the last one before it
    "backwards-after-cut": (
        _line(100, "Task schedule: old 0 new 1") + _line(200, "IRQ begin: 3"),
        _line(150, "Task schedule: old 1 new 2") + _line(300, "IRQ end: 3"),
    ),
    "bad-line-each-half": (_line(100) + "junk\n" + _line(200), _line(300) + "more junk\n" + _line(400)),
    "first-half-no-events": ("\n \t\n", _line(100) + _line(200)),
    "first-half-only-junk": ("junk\n\n", _line(100) + _line(200)),
    "crlf-at-cut": (_line(100) + _line(200)[:-1] + "\r\n", _line(300)[:-1] + "\r\n" + _line(400)),
    "no-final-lf": (_line(100) + _line(200), _line(300) + _line(400)[:-1]),
    # the first event after the cut ties the last before it, and goes on
    # from the wrong task: a consistency violation, not a parse error
    "tie-at-cut": (_line(100) + _line(200), _line(200, "Task schedule: old 1 new 0") + _line(400)),
    "irq-open-at-cut": (
        _line(100, "Task schedule: old 0 new 1") + _line(200, "IRQ begin: 3"),
        _line(300, "IRQ end: 3") + _line(400, "Task schedule: old 1 new 0"),
    ),
    "irq-nested-in-itself-at-cut": (
        _line(100, "Task schedule: old 0 new 1") + _line(200, "IRQ begin: 3") + _line(250, "IRQ begin: 3"),
        _line(300, "IRQ end: 3") + _line(350, "IRQ end: 3") + _line(400, "Task schedule: old 1 new 0"),
    ),
    # the end of IRQ 4 is dropped, so IRQ 3 stays open across the cut
    "mismatched-end-before-cut": (
        _line(100, "Task schedule: old 0 new 1") + _line(200, "IRQ begin: 3") + _line(250, "IRQ end: 4"),
        _line(300, "IRQ end: 3") + _line(400, "Task schedule: old 1 new 0"),
    ),
    # the first switch, after the cut, names the task that ran from the start
    "first-half-no-switch": (
        _line(100, "IRQ begin: 3") + _line(150, "IRQ end: 3") + _line(200, "IRQ begin: 4"),
        _line(250, "IRQ end: 4") + _line(300, "Task schedule: old 5 new 1") + _line(400, "Task schedule: old 1 new 5"),
    ),
    # a parse error anywhere comes before the first consistency error
    "wrong-old-then-junk": (
        _line(100, "Task schedule: old 0 new 1") + _line(200, "Task schedule: old 7 new 2"),
        "junk\n" + _line(300, "Task schedule: old 2 new 0"),
    ),
    "orphan-end-after-cut": (
        _line(100, "Task schedule: old 0 new 1") + _line(200, "Task schedule: old 1 new 1"),
        _line(300, "IRQ end: 9") + _line(400, "Task schedule: old 1 new 0"),
    ),
}


@pytest.mark.parametrize("case", _SPLIT_CASES, ids=list(_SPLIT_CASES))
def test_split_parse_gives_the_one_process_outcome(case, tmp_path, monkeypatch, capsys, split):
    path = tmp_path / "trace.txt"
    path.write_bytes(_halves(*_SPLIT_CASES[case]).encode())
    out = tmp_path / "out"
    codes = [
        _same_outcome_as_one_process(args, capsys, monkeypatch, out, split)[0]
        for args in _split_commands(str(path), out)
    ]
    assert codes == {
        "backwards-after-cut": [1, 0, 1, 0],
        "bad-line-each-half": [1, 0, 1, 0],
        "first-half-no-events": [0, 0, 0, 0],
        "first-half-only-junk": [1, 0, 1, 0],
        "crlf-at-cut": [0, 0, 0, 0],
        "no-final-lf": [0, 0, 0, 0],
        "tie-at-cut": [2, 0, 2, 2],
        "irq-open-at-cut": [0, 0, 0, 0],
        "irq-nested-in-itself-at-cut": [0, 0, 0, 0],
        "mismatched-end-before-cut": [2, 0, 2, 2],
        "first-half-no-switch": [0, 0, 0, 0],
        "wrong-old-then-junk": [1, 0, 1, 2],
        "orphan-end-after-cut": [2, 0, 2, 2],
    }[case]


def test_split_parse_numbers_lines_and_keeps_the_first_error(tmp_path, monkeypatch, capsys, split):
    path = tmp_path / "trace.txt"
    path.write_bytes(_halves(*_SPLIT_CASES["bad-line-each-half"]).encode())
    out = tmp_path / "out"
    strict, lenient, _, _ = _split_commands(str(path), out)
    assert _same_outcome_as_one_process(strict, capsys, monkeypatch, out, split)[2] == (
        "error: line 2: unrecognized line: 'junk'\n"
    )
    warnings = _same_outcome_as_one_process(lenient, capsys, monkeypatch, out, split)[2]
    assert warnings == (
        "warning: line 2: unknown_event: unrecognized line: 'junk'\n"
        "warning: line 5: unknown_event: unrecognized line: 'more junk'\n"
    )


def test_split_parse_of_stdin(tmp_path, monkeypatch, capsys, split):
    data = _halves(*_SPLIT_CASES["backwards-after-cut"]).encode()
    out = tmp_path / "out"
    for args in _split_commands("-", out, "json"):
        _same_outcome_as_one_process(args, capsys, monkeypatch, out, split, stdin=data)


def test_split_parse_stays_in_one_process_below_the_size_or_without_a_second_cpu(
    trace_file, tmp_path, monkeypatch, capsys, forks
):
    assert run(["validate", trace_file]) == 0  # shorter than _SPLIT_CHARS
    monkeypatch.setattr(cli, "_SPLIT_CHARS", 1)
    with monkeypatch.context() as one_cpu:
        one_cpu.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        one_cpu.setattr(os, "cpu_count", lambda: 1)
        assert run(["validate", trace_file]) == 0
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        assert run(["validate", trace_file]) == 0
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    assert forks == []
    assert run(["validate", trace_file]) == 0
    assert len(forks) == 1
    capsys.readouterr()


def _edited(data: bytes, edits) -> bytes:
    for at, insert, drop in edits:
        at %= len(data) + 1
        data = data[:at] + insert + data[at + drop:]
    return data


_VALID = gate_shaped_trace(6).encode()  # 30 events, tasks 1 to 6 and IRQs 31 and 32
_INSERTS = [b"", b"\n", b"\r", b" ", b"\xff", b"9", b"<", b"IRQ end: 9\n"]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    # (where, bytes inserted there, bytes dropped after them)
    edits=st.lists(
        st.tuples(st.integers(0, len(_VALID)), st.sampled_from(_INSERTS), st.integers(0, 3)),
        min_size=1,
        max_size=6,
    ),
    fmt=st.sampled_from(["text", "csv", "json"]),
)
def test_split_cli_gives_the_one_process_outcome_under_byte_edits(tmp_path, monkeypatch, capsys, split, edits, fmt):
    path = tmp_path / "trace.txt"
    path.write_bytes(_edited(_VALID, edits))
    out = tmp_path / "out"
    for args in _split_commands(str(path), out, fmt):
        code, _, err, _ = _same_outcome_as_one_process(args, capsys, monkeypatch, out, split)
        assert code in (0, 1, 2, 3) and "Traceback" not in err


_VALID_LINES = _VALID.splitlines(True)
_TRACE_BYTES = st.one_of(
    st.binary(max_size=400),
    st.lists(
        st.tuples(st.integers(0, len(_VALID)), st.binary(max_size=8), st.integers(0, 3)), max_size=4
    ).map(lambda edits: _edited(_VALID, edits)),
    # some lines of the valid trace, in order or not, among junk and blank ones
    st.lists(st.sampled_from(_VALID_LINES), max_size=30).map(sorted).map(b"".join),
    st.lists(st.sampled_from([*_VALID_LINES, b"junk\n", b"\xff\n", b"\r\n"]), max_size=30).map(b"".join),
)
_SCRIPT_BYTES = st.one_of(
    st.binary(max_size=200),
    st.tuples(
        st.lists(
            st.builds(
                script_run,
                st.sampled_from([0, 1, 2, 10**18 - 1]),
                st.integers(1, 40),
                st.lists(st.tuples(st.integers(0, 3), st.integers(0, 39), st.integers(0, 39)), max_size=3),
            ),
            min_size=1,
            max_size=4,
        ).map(lambda blocks: "\n".join(line for block in blocks for line in block).encode()),
        st.lists(st.tuples(st.integers(0, 10**4), st.binary(max_size=4), st.integers(0, 2)), max_size=2),
    ).map(lambda drawn: _edited(*drawn)),
)
_US = st.sampled_from([None, None, None, -5, 0, 7, 25, 60, 10**12])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    source=st.tuples(st.just("trace"), _TRACE_BYTES) | st.tuples(st.just("script"), _SCRIPT_BYTES),
    reports=st.lists(st.sampled_from(["load", "utilization", "stats", "timeline", None]), min_size=1, max_size=4),
    from_us=_US,
    to_us=_US,
    slot_width_us=st.sampled_from([None, None, 1, 3, 10, 100_000, 10**12, 0]),
    bins=st.sampled_from([None, None, 1, 2, 7, 20, 60, 0, MAX_BINS + 1]),
    to_files=st.booleans(),
)
def test_cli_on_any_input_exits_cleanly_and_splits_as_one_process(
    tmp_path, monkeypatch, capsys, split, source, reports, from_us, to_us, slot_width_us, bins, to_files
):
    # any trace bytes, or the trace that generate makes of any script bytes,
    # through every command and format, with drawn options
    kind, data = source
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    if kind == "script":
        generated = tmp_path / "generated"
        code, _, err, _ = _outcome(["generate", str(path), "-o", str(generated)], capsys, generated)
        assert code in (0, 1) and "Traceback" not in err
        if code:
            return
        path = generated / "trace.txt"
    options = [arg for name in filter(None, reports) for arg in ("--report", name)]
    for flag, value in (("--from-us", from_us), ("--to-us", to_us), ("--slot-width-us", slot_width_us), ("--bins", bins)):
        options += [] if value is None else [flag, str(value)]
    out = tmp_path / "out"
    commands = [["validate", str(path)], ["validate", str(path), "--lenient"]]
    for fmt in ("text", "csv", "json"):
        analyze = ["analyze", str(path), *options, "--format", fmt, *(["-o", str(out)] if to_files else [])]
        commands += [analyze, [*analyze, "--lenient"]]
    for args in commands:
        code, _, err, _ = _same_outcome_as_one_process(args, capsys, monkeypatch, out, split, parse_forks=False)
        assert code in (0, 1, 2, 3) and "Traceback" not in err


def test_analyze_inconsistent_trace_exit_codes(tmp_path, capsys):
    p = tmp_path / "incons.txt"
    p.write_text(
        "<0000h 00m 00s 000 000> Task schedule: old 0 new 1\n"
        "<0000h 00m 00s 000 020> Task schedule: old 5 new 0\n"
    )
    assert run(["analyze", str(p), "--report", "load"]) == 2
    capsys.readouterr()
    assert run(["analyze", str(p), "--report", "load", "--lenient"]) == 0
    assert capsys.readouterr().err == (
        "warning: at 20 us: old_task_mismatch:"
        " switch claims old task 5 but task 1 is current\n"
    )


def test_analyze_reads_stdin(monkeypatch, capsys):
    class _Stdin:
        buffer = io.BytesIO(SHORT_TRACE.encode())

    monkeypatch.setattr(sys, "stdin", _Stdin)
    assert run(["analyze", "-", "--report", "load"]) == 0
    assert "task 4" in capsys.readouterr().out


def test_generate_writes_trace_to_stdout(tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text("run 1 10\nrun 2 20\n")
    assert run(["generate", str(script)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "<0000h 00m 00s 000 000> Task schedule: old 0 new 1"
    assert len(out.splitlines()) == 3


def test_generate_output_dir_gets_trace_and_manifest(tmp_path):
    script = tmp_path / "s.txt"
    script.write_text("run 1 10\n")
    out_dir = tmp_path / "gen"
    assert run(["generate", str(script), "-o", str(out_dir)]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.csv", "trace.txt"]
    assert (out_dir / "manifest.csv").read_text().startswith("entity,kind,net_us\n")


def test_generate_start_and_boundary_task_flags(tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text("run 1 10\n")
    assert run(["generate", str(script), "--start-us", "1000",
                "--prior-task", "7", "--final-task", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "<0000h 00m 00s 001 000> Task schedule: old 7 new 1"
    assert lines[-1] == "<0000h 00m 00s 001 010> Task schedule: old 1 new 8"


def test_generate_reads_stdin_script(monkeypatch, capsys):
    class _Stdin:
        buffer = io.BytesIO(b"run 4 25\n")

    monkeypatch.setattr(sys, "stdin", _Stdin)
    assert run(["generate", "-"]) == 0
    assert "old 0 new 4" in capsys.readouterr().out


def test_generate_bad_script_exit_code(tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text("run 1 0\n")
    assert run(["generate", str(script)]) == 1
    assert "advance" in capsys.readouterr().err


def test_generate_non_utf8_script_names_the_line(tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_bytes(b"run 1 10\n\xff\n")
    assert run(["generate", str(script)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: unknown directive")
    assert "Traceback" not in err


def test_generate_ids_span_the_18_digits_a_trace_holds(tmp_path, capsys):
    top = 10**18 - 1
    script = tmp_path / "s.txt"
    script.write_text(f"run {top} 10\n  irq {top} 2 3\n")
    out = tmp_path / "gen"
    options = ["--prior-task", str(top), "--final-task", str(top)]
    assert run(["generate", str(script), "-o", str(out), *options]) == 0
    assert run(["validate", str(out / "trace.txt")]) == 0
    assert capsys.readouterr().out == "no consistency violations\n"
    for line in (f"run {top + 1} 10\n", "run -1 10\n", f"run 1 10\n  irq {top + 1} 2 3\n", "run 1 10\n  irq -1 2 3\n"):
        script.write_text(line)
        assert run(["generate", str(script)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line.count(chr(10))}: ") and "id must lie in [0, 10**18)" in err
    script.write_text("run 1 10\n")
    for option, value in [("--prior-task", top + 1), ("--prior-task", -1), ("--final-task", top + 1),
                          ("--final-task", -3), ("--start-us", -5)]:
        assert run(["generate", str(script), option, str(value)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {option} must")


def test_generate_nests_interrupts_without_a_depth_limit(tmp_path, capsys):
    depth = 5_000
    irqs = "".join(f"  irq {i % 5} {i} {2 * (depth - i) + 1}\n" for i in range(depth))
    script = tmp_path / "s.txt"
    script.write_text(f"run 1 {2 * depth + 1}\n{irqs}")
    out = tmp_path / "gen"
    assert run(["generate", str(script), "-o", str(out)]) == 0
    assert run(["validate", str(out / "trace.txt")]) == 0
    assert capsys.readouterr().out == "no consistency violations\n"


def _nested_run(depth: int) -> list[str]:
    return [f"run 1 {2 * depth + 1}"] + [f"  irq {i % 3} {i} {2 * (depth - i) + 1}" for i in range(depth)]


_IDS = [*range(10), 10**18 - 1]
_SCRIPT_BLOCK = st.one_of(
    st.builds(
        script_run,
        st.sampled_from(_IDS),
        st.integers(1, 40),
        st.lists(st.tuples(st.sampled_from(_IDS), st.integers(0, 39), st.integers(0, 39)), max_size=3),
    ),
    st.integers(0, 1_500).map(_nested_run),
)
_BAD_LINES = [
    "# comment", "", "run 1 x", "irq 2", "wait 3", "run 2 0", "irq 1 -1 2", "irq 1 0 0",
    "run -1 5", f"run {10**18} 5", "irq -1 0 1", f"irq {10**18} 0 1",
]
_OPTION_ID = st.sampled_from([*_IDS, -1, 10**18])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    blocks=st.lists(_SCRIPT_BLOCK, min_size=1, max_size=5),
    bad=st.one_of(st.none(), st.tuples(st.integers(0, 30), st.sampled_from(_BAD_LINES))),
    start=st.sampled_from([0, 1, 999_999, 1_000_000, 123_456_789, -1, MAX_TIMESTAMP_US - 20]),
    prior=_OPTION_ID,
    final=_OPTION_ID,
)
def test_generate_on_drawn_scripts_exits_cleanly(tmp_path, capsys, blocks, bad, start, prior, final):
    lines = [line for block in blocks for line in block]
    if bad is not None:
        lines.insert(bad[0], bad[1])
    script = tmp_path / "s.txt"
    script.write_text("\n".join(lines))
    out = tmp_path / "gen"
    shutil.rmtree(out, ignore_errors=True)
    options = ["--start-us", str(start), "--prior-task", str(prior), "--final-task", str(final)]
    code = run(["generate", str(script), "-o", str(out), *options])
    assert code in (0, 1, 3) and "Traceback" not in capsys.readouterr().err
    if code != 0:
        return
    trace = out / "trace.txt"
    assert run(["validate", str(trace)]) == 0
    assert capsys.readouterr().out == "no consistency violations\n"
    rows = [row.split(",") for row in (out / "manifest.csv").read_text().splitlines()[1:-1]]
    nets = build_slices(parse_trace(trace.read_text())).net_times()
    assert {(int(i), kind): int(net) for i, kind, net in rows} == {
        (entity.id, entity.kind_name): net for entity, net in nets.items()
    }


def test_validate_clean_trace(trace_file, capsys):
    assert run(["validate", trace_file]) == 0
    assert capsys.readouterr().out == "no consistency violations\n"


def test_validate_lists_violations(tmp_path, capsys):
    p = tmp_path / "v.txt"
    p.write_text(
        "<0000h 00m 00s 000 000> Task schedule: old 0 new 1\n"
        "<0000h 00m 00s 000 020> IRQ end: 9\n"
        "<0000h 00m 00s 000 030> Task schedule: old 1 new 0\n"
    )
    assert run(["validate", str(p)]) == 2
    out = capsys.readouterr().out
    assert "at 20 us: irq_end_without_begin" in out


def test_validate_writes_its_violations_a_few_thousand_lines_at_a_time(tmp_path, monkeypatch):
    text = "".join(orphan_end_lines(10_000))  # 5,000 ends with no handler open, below _SPLIT_CHARS
    path = tmp_path / "orphans.txt"
    path.write_text(text)
    violations = validate_consistency(parse_trace(text))
    assert len(violations) == 5_000

    class Counted(io.StringIO):
        writes = 0

        def write(self, s):
            self.writes += 1
            return super().write(s)

    stdout = Counted()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run(["validate", str(path)]) == 2
    assert stdout.getvalue() == "".join(f"at {v.at} us: {v.kind.value}: {v.detail}\n" for v in violations)
    assert stdout.writes == -(-5_000 // 2_048)


def test_validate_lenient_reports_parse_warnings(tmp_path, capsys):
    p = tmp_path / "w.txt"
    p.write_text(SHORT_TRACE + "junk\n")
    assert run(["validate", str(p), "--lenient"]) == 0
    captured = capsys.readouterr()
    assert "warning: line 11" in captured.err
    assert captured.out == "no consistency violations\n"


def test_validate_lenient_counts_lines_only_at_lf(tmp_path, capsys):
    p = tmp_path / "ff.txt"
    p.write_bytes(
        b"<0000h 00m 00s 005 000> Task schedule: old 0 new 2\x0cjunk\n"
        b"<0000h 00m 00s 005 400> Task schedule: old 2 new 0\n"
        b"bad\n"
    )
    assert run(["validate", str(p), "--lenient"]) == 0
    warned = [line.split(": ")[1] for line in capsys.readouterr().err.splitlines()]
    assert warned == ["line 1", "line 3"]


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 3
    assert capsys.readouterr().err != ""


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "analyze" in capsys.readouterr().out


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every run of the tool pays for its imports, and dataclasses brings
    # inspect, ast, dis and tokenize with it
    code = "import sys, schedtrace.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": "src"}
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"
