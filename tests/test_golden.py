"""Golden corpus: the report bytes, exit codes and diagnostics of a fixed set
of runs, pinned by sha256.

Refactors of the parser, the replay or the renderers must reproduce every
hash unchanged.  The corpus covers every text, csv and json report (plus the
csv histogram sidecar) of twenty seeded random scenarios, over the whole
window and a zoomed view, at two slot widths; and lenient and strict runs of
dirty traces carrying junk lines, out-of-range and backwards timestamps, CRLF
line ends, orphan and mismatched IRQ ends, self-switches and tied
timestamps.  Only the kind and position of each diagnostic is pinned, not
its wording.

A deliberate change of output is recorded anew with

    PYTHONPATH=src python -m tests.test_golden

which rewrites tests/golden_sha256.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from schedtrace import (
    Scenario,
    build_slices,
    format_timestamp,
    generate_trace,
    parse_trace,
    random_scenario,
    validate_consistency,
)
from schedtrace.cli import run

GOLDEN = Path(__file__).with_name("golden_sha256.json")
FORMATS = ("text", "csv", "json")
REPORTS = ["--report", "load", "--report", "utilization", "--report", "stats",
           "--report", "timeline"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(args) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(args)
    return code, out.getvalue(), err.getvalue()


def _reports(trace: Path, out: Path, fmt: str, extra: list[str]) -> bytes:
    """Exit code and every file one analyze run writes, as one byte string."""
    code, _, _ = _cli(["analyze", str(trace), *REPORTS, "--format", fmt,
                       "-o", str(out), *extra])
    parts = [f"exit {code}\n".encode()]
    for path in sorted(out.iterdir()):
        parts.append(f"== {path.name}\n".encode() + path.read_bytes())
        path.unlink()
    return b"".join(parts)


def _clean_trace(seed: int) -> str:
    # vary the scale so the h/m/s/ms fields, the slot counts and the
    # histogram shapes differ between seeds
    max_gross = (400, 5_000, 200_000, 3_000_000)[seed % 4]
    sc = random_scenario(seed, n_tasks=2 + seed % 5, n_runs=30 + 4 * seed,
                         max_gross_us=max_gross)
    start = seed * 987_654_321 % 7_200_000_000
    text, _ = generate_trace(Scenario(start, sc.runs), prior_task=seed % 3)
    return text


def _views(text: str) -> list[tuple[str, list[str]]]:
    events = parse_trace(text).events
    start, end = events[0].at, events[-1].at
    span = end - start
    wide, narrow = max(1, span // 9), span // 64 + 1
    zoom = ["--from-us", str(start + span // 5), "--to-us", str(start + span * 3 // 4)]
    return [
        (f"slot{wide}", ["--slot-width-us", str(wide), "--bins", "7"]),
        (f"slot{narrow}", ["--slot-width-us", str(narrow)]),
        (f"slot{wide}-zoom", ["--slot-width-us", str(wide), "--bins", "13", *zoom]),
        (f"slot{narrow}-zoom", ["--slot-width-us", str(narrow), *zoom]),
    ]


def _fields(at: int) -> tuple[int, int, int, int, int]:
    h, m, s, ms, us = (int(f[:-1] if f[-1].isalpha() else f)
                       for f in format_timestamp(at).split())
    return h, m, s, ms, us


def _fault(rng: random.Random, events, i: int, replay_only: bool) -> list[str]:
    """Lines to insert after event i: one injected fault."""
    ev = events[i]
    ts = format_timestamp(ev.at)
    current = next((e.new for e in reversed(events[: i + 1]) if hasattr(e, "new")), 0)
    replay_faults = ["orphan_end", "wrong_old", "self_switch", "tied_irq"]
    parse_faults = ["junk", "unknown", "malformed_ts", "out_of_range", "payload",
                    "backwards", "spacing"]
    kind = rng.choice(replay_faults if replay_only else replay_faults + parse_faults)
    if kind == "orphan_end":  # orphan, or mismatched when a handler is open
        return [f"<{ts}> IRQ end: {rng.randint(60, 64)}"]
    if kind == "wrong_old":
        return [f"<{ts}> Task schedule: old {current + 7} new {current}"]
    if kind == "self_switch":
        return [f"<{ts}> Task schedule: old {current} new {current}"]
    if kind == "tied_irq":
        return [f"<{ts}> IRQ begin: 70", f"<{ts}> IRQ end: 70"]
    if kind == "junk":
        return [rng.choice(["garbage", "<<>>", "  \t", "Task schedule: old 1 new 2"])]
    if kind == "unknown":
        return [f"<{ts}> Task yield: {rng.randint(0, 9)}"]
    if kind == "malformed_ts":
        return [rng.choice([f"<{ts[:-4]}> IRQ begin: 3", f"<{ts.replace('m', '', 1)}> IRQ end: 3"])]
    if kind == "out_of_range":
        h, m, s, ms, us = _fields(ev.at)
        bad = rng.choice([(h, m + 60, s, ms, us), (h, m, s + 60, ms, us),
                          (h, m, s, ms + 1000, us), (h, m, s, ms, us + 1000)])
        return [f"<{bad[0]:04d}h {bad[1]:02d}m {bad[2]:02d}s {bad[3]:03d} {bad[4]:03d}>"
                f" IRQ begin: 4"]
    if kind == "payload":
        return [rng.choice([f"<{ts}> Task schedule: old x new 2", f"<{ts}> IRQ end: 1 2",
                            f"<{ts}> IRQ begin: "])]
    if kind == "backwards":
        earlier = [e for e in events[max(0, i - 12) : i] if e.at < ev.at]
        if not earlier:
            return ["junk after the first event"]
        back = rng.choice(earlier)
        return [f"<{format_timestamp(back.at)}> IRQ begin: 5"]
    h, m, s, ms, us = _fields(ev.at)  # spacing: tolerated, tied to event i
    return [f"<{h}h  {m}m\t{s}s {ms}  {us}>\tTask  schedule:  old  {current}  new  {current}"]


def _dirty_trace(seed: int, replay_only: bool = False) -> bytes:
    rng = random.Random(seed)
    sc = random_scenario(seed, n_tasks=3, n_runs=120, max_gross_us=2_500)
    text, _ = generate_trace(Scenario(seed * 1_000_003, sc.runs))
    events = parse_trace(text).events
    lines = []
    for i, line in enumerate(text.splitlines()):
        if i == len(events) - 1:  # a handler still open at the trace end
            lines.append(f"<{format_timestamp(events[i - 1].at)}> IRQ begin: 72")
        lines.append(line)
        if rng.random() < 0.12:
            lines += _fault(rng, events, i, replay_only)
    return b"".join(
        line.encode() + (b"\r\n" if rng.random() < 0.3 else b"\n") for line in lines
    )


def _dirty_case(trace: Path, out: Path) -> dict[str, bytes]:
    raw = trace.read_bytes()
    found: dict[str, bytes] = {}
    for mode in ([], ["--lenient"]):
        name = "lenient" if mode else "strict"
        code, stdout, stderr = _cli(["validate", str(trace), *mode])
        warnings = [line.split(": ")[:2] for line in stderr.splitlines()
                    if line.startswith("warning: line ")]
        found[f"validate-{name}"] = (
            f"exit {code}\n{stdout}{json.dumps(warnings)}\n".encode()
        )
    code, _, _ = _cli(["analyze", str(trace), "--report", "load"])
    found["analyze-strict"] = f"exit {code}\n".encode()
    log = parse_trace(raw, strict=False)
    found["diagnostics"] = "".join(
        f"{d.line} {d.kind.value}\n" for d in log.diagnostics
    ).encode()
    violations = build_slices(log, strict=False).diagnostics
    found["violations"] = "".join(f"{v.at} {v.kind.value}\n" for v in violations).encode()
    found["validate_consistency"] = "".join(
        f"{v.at} {v.kind.value}\n" for v in validate_consistency(log)
    ).encode()
    window = log.window
    span = window.end - window.start
    zoom = ["--from-us", str(window.start + span // 3), "--to-us",
            str(window.start + span // 2)]
    for fmt in FORMATS:
        found[f"lenient-{fmt}"] = _reports(
            trace, out, fmt, ["--lenient", "--slot-width-us", str(span // 11 + 1)]
        )
        found[f"lenient-zoom-{fmt}"] = _reports(
            trace, out, fmt, ["--lenient", "--slot-width-us", "997", *zoom]
        )
    return found


def corpus(work: Path) -> dict[str, str]:
    """sha256 of each artifact of the corpus, keyed case/artifact."""
    out = work / "out"
    out.mkdir()
    hashes: dict[str, str] = {}
    for seed in range(20):
        text = _clean_trace(seed)
        trace = work / f"seed{seed}.txt"
        trace.write_text(text)
        for view, extra in _views(text):
            for fmt in FORMATS:
                hashes[f"seed{seed}/{view}/{fmt}"] = _sha(_reports(trace, out, fmt, extra))
    cases = {f"dirty{seed}": _dirty_trace(seed) for seed in range(100, 106)}
    cases.update({f"inconsistent{seed}": _dirty_trace(seed, True) for seed in (200, 201)})
    for name, raw in cases.items():
        trace = work / f"{name}.txt"
        trace.write_bytes(raw)
        for artifact, data in _dirty_case(trace, out).items():
            hashes[f"{name}/{artifact}"] = _sha(data)
    return hashes


def test_golden_corpus(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = corpus(tmp_path)
    assert got.keys() == expected.keys()
    changed = sorted(key for key in expected if got[key] != expected[key])
    assert not changed, f"{len(changed)} artifacts changed: {changed[:20]}"


def _record():
    with tempfile.TemporaryDirectory() as work:
        hashes = corpus(Path(work))
    GOLDEN.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(hashes)} hashes in {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _record()
