"""README.md, executed: every fenced block is run, or listed with the reason it cannot be.

Blocks are named by their first line.  The trace-format block is the demo
trace that the command-line and Library examples read as `demo.trace`.
"""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from schedtrace import cli, report_from_json

README = Path(__file__).resolve().parents[1] / "README.md"
_FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)

DEMO = "<0000h 00m 00s 005 000> Task schedule: old 0 new 2"
LOAD = "$ schedtrace analyze demo.trace --report load"
TIMELINE = "  entity  state             start_us  end_us  duration"
SCRIPT = "run 2 120"
LIBRARY = "from schedtrace import parse_trace_file, build_slices"
WRITE_REPORT = "from schedtrace import timeline, write_report"
SYNOPSES = {
    "schedtrace analyze TRACE [TRACE ...] [--report {load,utilization,stats,timeline}]": "analyze",
    "schedtrace generate SCRIPT [--start-us N] [--prior-task N] [--final-task N] [-o DIR]": "generate",
    "schedtrace validate TRACE [--lenient]": "validate",
}
NOT_RUN = {
    "pip install -e . --no-build-isolation": "installs the package; the tests import it from the source tree",
    "pip install pytest hypothesis": "installs the test tools and runs the whole suite, this test included",
    "python -m pytest            # full suite, including throughput checks":
        "runs the whole suite, this test included",
}


def _blocks() -> dict[str, str]:
    blocks = {}
    for m in _FENCE.finditer(README.read_text(encoding="utf-8")):
        first = m.group(2).split("\n", 1)[0]
        assert first not in blocks, f"two README blocks start with {first!r}"
        blocks[first] = m.group(2)
    return blocks


@pytest.fixture
def demo(tmp_path, monkeypatch):
    """A directory holding demo.trace, made the working directory."""
    (tmp_path / "demo.trace").write_text(_blocks()[DEMO], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _schedtrace(command: str, capsys) -> str:
    argv = shlex.split(command)
    assert argv[0] == "schedtrace"
    assert cli.run(argv[1:]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


def test_every_block_is_run_or_listed():
    run = {DEMO, LOAD, TIMELINE, SCRIPT, LIBRARY, WRITE_REPORT, *SYNOPSES}
    assert set(_blocks()) == run | set(NOT_RUN)


def test_load_example_is_the_output_of_its_command(demo, capsys):
    command, expected = _blocks()[LOAD].split("\n", 1)
    assert _schedtrace(command.removeprefix("$ "), capsys) == expected


def test_timeline_excerpt_is_in_the_timeline_report(demo, capsys):
    out = _schedtrace("schedtrace analyze demo.trace --report timeline", capsys)
    assert _blocks()[TIMELINE] in out


def test_script_example_generates_the_demo_trace(demo, capsys):
    (demo / "demo.script").write_text(_blocks()[SCRIPT], encoding="utf-8")
    assert _schedtrace("schedtrace generate demo.script --start-us 5000", capsys) == _blocks()[DEMO]
    assert _schedtrace("schedtrace validate demo.trace", capsys) == "no consistency violations\n"


def test_library_blocks_run_on_the_demo_trace(demo, capsys):
    namespace: dict = {}
    exec(_blocks()[LIBRARY], namespace)
    assert namespace["worst"] == {"task 1": 65, "task 2": 200, "irq 5": 15}
    exec(_blocks()[WRITE_REPORT], namespace)
    report = report_from_json((demo / "timeline.json").read_text(encoding="utf-8"))
    assert report == namespace["timeline"](namespace["slices"])
    # the rows of the load example above
    assert capsys.readouterr().out == "task 1 65 0.1625\ntask 2 320 0.8\nirq 5 15 0.0375\n"


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli._build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("synopsis", SYNOPSES)
def test_synopsis_names_every_option_of_its_command(synopsis):
    text = _blocks()[synopsis]
    parser = _subparsers()[SYNOPSES[synopsis]]
    named = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", text))
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if action.option_strings:
            assert named & set(action.option_strings), action.option_strings
            named -= set(action.option_strings)
            if action.choices:
                assert "{" + ",".join(action.choices) + "}" in text
        else:
            assert action.metavar in text
    assert not named, f"options the command does not take: {named}"


def test_exit_code_table_is_the_cli_constants():
    section = README.read_text(encoding="utf-8").split("### Exit codes", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| (\d+) +\| ([^|]*?) *\|$", section, re.M))
    meanings = {
        cli.EXIT_OK: "success",
        cli.EXIT_TRACE_ERROR: "trace problem",
        cli.EXIT_CONSISTENCY: "consistency violations",
        cli.EXIT_USAGE: "usage error",
    }
    assert sorted(map(int, rows)) == sorted(meanings)
    for code, meaning in meanings.items():
        assert rows[str(code)].startswith(meaning)
