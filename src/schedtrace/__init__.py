"""Post-mortem scheduler and interrupt trace analysis.

Parse context-switch/interrupt traces, attribute every microsecond of the
captured window to a task or IRQ handler, and compute processor load,
slotted utilization, per-entity execution statistics and execution
timelines.  A scenario-driven generator produces synthetic traces with
analytically known ground truth.
"""

from .errors import (
    ConsistencyError,
    EmptySampleError,
    EmptyTraceError,
    EmptyWindowError,
    ParseError,
    SampleDomainError,
    ScriptError,
    TimestampRangeError,
    TraceError,
)
from .model import (
    Entity,
    EntityKind,
    EventLog,
    ExecutionSlice,
    IDLE,
    IDLE_TASK_ID,
    IrqBegin,
    IrqEnd,
    MAX_TIMESTAMP_US,
    Run,
    SliceSet,
    TaskSchedule,
    TraceEvent,
    Window,
    format_timestamp,
    timestamp_from_fields,
)
from .replay import (
    ConsistencyViolation,
    ViolationKind,
    build_slices,
    validate_consistency,
)
from .reports import (
    EntityStats,
    EntityTimeline,
    LoadReport,
    LoadRow,
    SeriesStats,
    StatsReport,
    TimelineReport,
    TimelineSegment,
    UtilizationReport,
    UtilizationSlot,
    average_load,
    render,
    render_stats_histograms_csv,
    report_from_json,
    task_statistics,
    timeline,
    utilization,
    write_report,
)
from .stats import (
    ExponentialFit,
    Histogram,
    SampleSummary,
    UniformFit,
    fit_exponential,
    fit_uniform,
    histogram,
    summarize,
)
from .synthgen import (
    IrqSpec,
    Manifest,
    Scenario,
    ScenarioRun,
    generate_trace,
    manifest_csv,
    parse_script,
    random_scenario,
)
from .tracefile import (
    DiagnosticKind,
    ParseDiagnostic,
    parse_trace,
    parse_trace_file,
    render_event,
    render_trace,
)

__version__ = "0.1.0"
