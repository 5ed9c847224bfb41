"""Exception types shared across the package."""


class TraceError(Exception):
    """Base class for all trace analysis errors."""


class TimestampRangeError(TraceError):
    """A timestamp or timestamp field lies outside the trace format's range."""


class _LineError(TraceError):
    """An error that names the input line it was found on, when known."""

    def __init__(self, message, line=None):
        self.message = message
        self.line = line
        super().__init__(message)

    def __str__(self):
        if self.line is not None:
            return f"line {self.line}: {self.message}"
        return self.message

    def __reduce__(self):  # pickle rebuilds the error from its fields, not from args
        return type(self), (self.message, self.line)


class ParseError(_LineError):
    """A trace line (or a whole file, in strict mode) could not be parsed."""

    def __init__(self, kind, message, line=None):
        self.kind = kind
        super().__init__(message, line)

    def __reduce__(self):
        return type(self), (self.kind, self.message, self.line)


class EmptyTraceError(TraceError):
    """The trace contains no events."""


class ConsistencyError(TraceError):
    """Strict replay hit an event inconsistent with the running state."""

    def __init__(self, violation):
        self.violation = violation
        super().__init__(
            f"{violation.kind.value} at {violation.at} us: {violation.detail}"
        )

    def __reduce__(self):
        return type(self), (self.violation,)


class EmptyWindowError(TraceError):
    """A report was requested over a zero-length time range."""


class EmptySampleError(TraceError):
    """A statistic was requested over an empty sample set."""


class SampleDomainError(TraceError):
    """Samples violate the domain of the requested distribution fit."""


class ScriptError(_LineError):
    """A scenario script is malformed or violates scenario invariants."""
