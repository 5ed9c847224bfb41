"""The package's errors: every one survives a pickle round trip."""

import pickle

import pytest

from schedtrace import errors
from schedtrace.replay import ConsistencyViolation, ViolationKind
from schedtrace.tracefile import DiagnosticKind

_VIOLATION = ConsistencyViolation(20, ViolationKind.OLD_TASK_MISMATCH, "switch claims old task 5")
# instances of every TraceError subclass, with every field they keep set,
# and a line error without its line
_SAMPLES = [
    errors.TraceError("bad trace"),
    errors.TimestampRangeError("timestamp field out of range"),
    errors._LineError("bad line", line=4),
    errors.ParseError(DiagnosticKind.UNKNOWN_EVENT, "unrecognized line", line=3),
    errors.ParseError(DiagnosticKind.MALFORMED_PAYLOAD, "malformed event payload"),
    errors.EmptyTraceError("trace contains no events"),
    errors.ConsistencyError(_VIOLATION),
    errors.EmptyWindowError("no time to analyze"),
    errors.EmptySampleError("no samples"),
    errors.SampleDomainError("negative sample"),
    errors.ScriptError("unknown directive", line=2),
]


def _subclasses(cls):
    return [cls, *(sub for direct in cls.__subclasses__() for sub in _subclasses(direct))]


def test_every_trace_error_has_a_sample():
    assert set(_subclasses(errors.TraceError)) == {type(error) for error in _SAMPLES}


@pytest.mark.parametrize("error", _SAMPLES, ids=lambda e: f"{type(e).__name__}-{getattr(e, 'line', None)}")
def test_trace_errors_survive_a_pickle_round_trip(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    for field in ("line", "kind", "violation", "message"):
        assert getattr(copy, field, None) == getattr(error, field, None)
