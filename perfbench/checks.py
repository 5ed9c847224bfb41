"""Checks of the program's report files against the benchmark's oracle.

Each report file is read back into a common shape, whatever its format,
and the shape is compared with values worked out from the scenario
(`scenario.Oracle`) or with a property the method must have.  Nothing is
compared with a stored copy of earlier output.

A check returns a list of problems, each a (tag, message) pair.  The tag is
HISTOGRAM_EDGE for the one known fault the benchmark counts as a failed
operation without calling the run incorrect, and WRONG for anything else.
"""

from __future__ import annotations

import csv
import io
import json
import math

from scenario import IRQ, TASK, clock

WRONG = "wrong"
HISTOGRAM_EDGE = "histogram-edge"
# stats.histogram bins with floats, and a sample that lies exactly on a bin
# edge can land one bin low, against its documented floor((x - min) / width)
# rule.  A histogram that differs from the rule exactly as that float
# arithmetic predicts is this fault.
HISTOGRAM_EDGE_FAULT = (
    "stats.histogram places samples that lie on a bin edge one bin low"
    " (float binning against the documented integer rule)"
)

TEXT_FRACTION_TOL = 5e-7 + 1e-12  # six decimals as printed
JSON_REL_TOL = 1e-12
KS_TOL = 1e-9


def _label(entity):
    kind, ident = entity
    if kind == TASK:
        return "task 0 (idle)" if ident == 0 else f"task {ident}"
    return f"irq {ident}"


def _entity(kind, ident):
    if kind not in (TASK, IRQ):
        raise ValueError(f"unknown entity kind {kind!r}")
    return (kind, int(ident))


def _entity_from_label(tokens):
    """(entity, tokens used) from a text row that starts with a label."""
    kind, ident = tokens[0], int(tokens[1])
    used = 3 if tokens[2:3] == ["(idle)"] else 2
    return _entity(kind, ident), used


def _close(got, want, rel=JSON_REL_TOL, abs_tol=0.0):
    return got is not None and math.isclose(got, want, rel_tol=rel, abs_tol=abs_tol)


def human_us(text):
    """(µs, tolerance) of a human-scaled duration such as '1.234 ms'."""
    value, unit = text.split()
    scale = {"us": 1, "ms": 1_000, "s": 1_000_000}[unit]
    if "." in value:
        return float(value) * scale, 0.5 * 10 ** -len(value.split(".")[1]) * scale
    return int(value) * scale, 0


# ---------------------------------------------------------------------------
# readers: one common shape per report


class Load:
    def __init__(self):
        self.window = None
        self.rows = {}  # entity -> (net_us, utilization)
        self.total = None
        self.idle = None
        self.tol = (JSON_REL_TOL, 0.0)  # (relative, absolute) on fractions


class Utilization:
    def __init__(self):
        self.window = None
        self.view = None
        self.width = None
        self.slots = []  # (start, span, partial or None, [(entity, fraction)])
        self.tol = JSON_REL_TOL


class Stats:
    def __init__(self):
        self.window = None
        self.bins = None
        self.rows = {}  # entity -> field dict, with series under "exec"/"period"
        self.tol = {}  # field -> (rel, abs) tolerance of this format
        self.periods = True  # whether the format carries period series


class Timeline:
    def __init__(self):
        self.window = None
        self.view = None
        self.entities = {}  # entity -> [(state, start, end)]


def _window_text(line):
    a, b = line.split(None, 1)[1].split(" .. ")
    return a, b


def read_load(fmt, data):
    r = Load()
    if fmt == "json":
        doc = json.loads(data)
        r.window = (doc["window"]["start_us"], doc["window"]["end_us"])
        r.idle = doc["idle_fraction"]
        for item in doc["entities"]:
            r.rows[_entity(item["kind"], item["id"])] = (
                item["net_us"],
                item["utilization"],
            )
        return r
    r.tol = (0.0, TEXT_FRACTION_TOL)
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(data.decode())))
        if rows[0] != ["entity", "kind", "net_us", "utilization"]:
            raise ValueError(f"bad header {rows[0]}")
        for ident, kind, net, frac in rows[1:]:
            r.rows[_entity(kind, ident)] = (int(net), float(frac))
        return r
    lines = data.decode().splitlines()
    if lines[0] != "Average processor load":
        raise ValueError("missing title")
    r.window = _window_text(lines[1])
    for line in lines[2:]:
        tokens = line.split()
        if line.startswith("  idle fraction"):
            r.idle = float(tokens[-1])
        elif tokens[:1] == ["total"]:
            r.total = (int(tokens[1]), float(tokens[3]))
        elif tokens[:1] in (["task"], ["irq"]):
            entity, used = _entity_from_label(tokens)
            if tokens[used + 1] != "us":
                raise ValueError(f"bad row {line!r}")
            r.rows[entity] = (int(tokens[used]), float(tokens[used + 2]))
    return r


def read_utilization(fmt, data):
    r = Utilization()
    if fmt == "json":
        doc = json.loads(data)
        r.window = (doc["window"]["start_us"], doc["window"]["end_us"])
        r.view = (doc["view"]["start_us"], doc["view"]["end_us"])
        r.width = doc["slot_width_us"]
        for slot in doc["slots"]:
            fracs = [(_entity(e["kind"], e["id"]), e["fraction"]) for e in slot["entities"]]
            r.slots.append((slot["start_us"], slot["span_us"], slot["partial"], fracs))
        return r
    r.tol = TEXT_FRACTION_TOL
    if fmt == "csv":
        rows = csv.reader(io.StringIO(data.decode()))
        if next(rows) != ["slot_start_us", "slot_span_us", "entity", "kind", "fraction"]:
            raise ValueError("bad header")
        for start, span, ident, kind, frac in rows:
            _add_fraction(r, int(start), int(span), None, _entity(kind, ident), float(frac))
        return r
    lines = data.decode().splitlines()
    if lines[0] != "Processor utilization":
        raise ValueError("missing title")
    r.window = _window_text(lines[1])
    for line in lines[2:]:
        tokens = line.split()
        if line.startswith("  view "):
            r.view = (int(tokens[1]), int(tokens[3]))
        elif line.startswith("  slot "):
            r.width = int(tokens[1])
        elif tokens and tokens[0].isdigit():
            partial = tokens[2] == "partial"
            entity, used = _entity_from_label(tokens[3 if partial else 2 :])
            _add_fraction(
                r, int(tokens[0]), int(tokens[1]), partial, entity, float(tokens[-1])
            )
    return r


def _add_fraction(r, start, span, partial, entity, fraction):
    if not r.slots or r.slots[-1][0] != start:
        r.slots.append((start, span, partial, []))
    r.slots[-1][3].append((entity, fraction))


def read_stats(fmt, data, histograms_only=False):
    """Stats in json or text, the stats csv, or (histograms_only) its sidecar."""
    r = Stats()
    if fmt == "json":
        doc = json.loads(data)
        r.window = (doc["window"]["start_us"], doc["window"]["end_us"])
        r.bins = doc["bins"]
        r.tol = dict.fromkeys(("share", "mean", "rate", "ll"), (JSON_REL_TOL, 0.0))
        r.tol["exp_ks"] = r.tol["uni_ks"] = (0.0, KS_TOL)
        for item in doc["entities"]:
            row = {
                "net": item["net_us"],
                "share": item["share"],
                "dispatches": item["dispatches"],
            }
            for name, key in (("exec", "execution"), ("period", "period")):
                if item[key] is not None:
                    row[name] = _series_json(item[key])
            r.rows[_entity(item["kind"], item["id"])] = row
        return r
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(data.decode())))
        r.periods = histograms_only
        r.tol = {
            "share": (0.0, TEXT_FRACTION_TOL),
            "exp_ks": (0.0, TEXT_FRACTION_TOL),
            "uni_ks": (0.0, TEXT_FRACTION_TOL),
            "mean": (JSON_REL_TOL, 0.0),
            "rate": (JSON_REL_TOL, 0.0),
        }
        if histograms_only:
            if rows[0] != ["entity", "kind", "series", "bin_lower", "bin_upper", "count"]:
                raise ValueError("bad header")
            for ident, kind, name, lower, upper, count in rows[1:]:
                series = r.rows.setdefault(_entity(kind, ident), {}).setdefault(
                    name, {"edges": [], "counts": []}
                )
                if not series["edges"]:
                    series["edges"].append(float(lower))
                elif float(lower) != series["edges"][-1]:
                    raise ValueError(f"bins of {kind} {ident} {name} do not touch")
                series["edges"].append(float(upper))
                series["counts"].append(int(count))
            return r
        header = (
            "entity,kind,share,dispatches,min_us,max_us,mean_us,"
            "exp_rate_per_us,exp_ks,uni_lower_us,uni_upper_us,uni_ks"
        )
        if ",".join(rows[0]) != header:
            raise ValueError("bad header")
        for ident, kind, share, disp, lo, hi, mean, rate, eks, ulo, uhi, uks in rows[1:]:
            r.rows[_entity(kind, ident)] = {
                "share": float(share),
                "dispatches": int(disp),
                "exec": {
                    "min": int(lo),
                    "max": int(hi),
                    "mean": float(mean),
                    "rate": float(rate) if rate else None,
                    "exp_ks": float(eks) if eks else None,
                    "lower": int(ulo),
                    "upper": int(uhi),
                    "uni_ks": float(uks),
                },
            }
        return r
    return _read_stats_text(data.decode(), r)


def _series_json(doc):
    s = doc["summary"]
    out = {
        "count": s["count"],
        "total": s["total_us"],
        "min": s["min_us"],
        "max": s["max_us"],
        "mean": s["mean_us"],
        "edges": doc["histogram"]["edges"],
        "counts": doc["histogram"]["counts"],
        "lower": doc["uniform"]["lower_us"],
        "upper": doc["uniform"]["upper_us"],
        "uni_ks": doc["uniform"]["ks"],
        "rate": None,
        "ll": None,
        "exp_ks": None,
    }
    if doc["exponential"] is not None:
        out["rate"] = doc["exponential"]["rate_per_us"]
        out["ll"] = doc["exponential"]["log_likelihood"]
        out["exp_ks"] = doc["exponential"]["ks"]
    return out


def _read_stats_text(text, r):
    lines = text.splitlines()
    if lines[0] != "Task statistics":
        raise ValueError("missing title")
    r.window = _window_text(lines[1])
    # six significant digits for rate and log-likelihood, six decimals for ks
    r.tol = {
        "share": (0.0, TEXT_FRACTION_TOL),
        "exp_ks": (0.0, TEXT_FRACTION_TOL),
        "uni_ks": (0.0, TEXT_FRACTION_TOL),
        "rate": (5e-6, 0.0),
        "ll": (5e-6, 0.0),
    }
    row = series = None
    for line in lines[2:]:
        tokens = line.split()
        if not tokens:
            continue
        indent = len(line) - len(line.lstrip(" "))
        if line.startswith("  span "):
            continue
        if line.startswith("  bins "):
            r.bins = int(tokens[1])
        elif indent == 2:
            entity, _ = _entity_from_label(tokens)
            row = r.rows[entity] = {}
        elif indent == 4 and tokens[0] == "utilization":
            row["share"] = float(tokens[1])
        elif indent == 4 and tokens[0] == "net":
            net = " ".join(tokens[2:])
            row["net"] = int(net[net.index("(") + 1 : -4] if "(" in net else tokens[2])
        elif indent == 4 and tokens[0] == "dispatches":
            row["dispatches"] = int(tokens[1])
        elif indent == 4:
            name = "exec" if line.strip() == "execution time:" else "period"
            series = row[name] = {"edges": [], "counts": [], "tol": {}}
        elif tokens[0] == "samples":
            series["count"] = int(tokens[1])
        elif tokens[0] in ("minimum", "average") or tokens[:2] == ["worst", "case"]:
            field = {"minimum": "min", "average": "mean", "worst": "max"}[tokens[0]]
            value, tol = human_us(" ".join(tokens[-2:]))
            series[field] = value
            series["tol"][field] = (0.0, tol + 1e-9)
        elif tokens[0] == "exponential":
            series["rate"] = float(tokens[2])
            series["ll"] = float(tokens[5])
            series["exp_ks"] = float(tokens[7])
        elif tokens[0] == "uniform":
            series["lower"] = int(tokens[1].strip("[,"))
            series["upper"] = int(tokens[2].strip("]"))
            series["uni_ks"] = float(tokens[-1])
        elif tokens[0] == "bin":
            lower = float(tokens[1].strip("[,"))
            upper = float(tokens[2].strip("):"))
            if not series["edges"]:
                series["edges"].append(lower)
            elif lower != series["edges"][-1]:
                raise ValueError("histogram bins do not touch")
            series["edges"].append(upper)
            series["counts"].append(int(tokens[3]))
    return r


def read_timeline(fmt, path):
    r = Timeline()
    if fmt == "json":
        with open(path, "rb") as handle:
            doc = json.load(handle)
        r.window = (doc["window"]["start_us"], doc["window"]["end_us"])
        r.view = (doc["view"]["start_us"], doc["view"]["end_us"])
        for item in doc["entities"]:
            r.entities[_entity(item["kind"], item["id"])] = [
                (seg["state"], seg["start_us"], seg["end_us"]) for seg in item["segments"]
            ]
        return r
    with open(path, encoding="utf-8") as handle:
        if fmt == "csv":
            if next(handle) != "entity,kind,state,start_us,end_us\n":
                raise ValueError("bad header")
            key = segs = None
            for line in handle:
                ident, kind, state, a, b = line.rstrip("\n").split(",")
                if key != (kind, ident):
                    key = (kind, ident)
                    segs = r.entities.setdefault(_entity(kind, ident), [])
                segs.append((state, int(a), int(b)))
            return r
        if next(handle) != "Task execution timeline\n":
            raise ValueError("missing title")
        r.window = _window_text(next(handle).rstrip("\n"))
        key = segs = None
        for line in handle:
            tokens = line.split()
            if line.startswith("  view "):
                r.view = (int(tokens[1]), int(tokens[3]))
                continue
            if tokens[:1] not in (["task"], ["irq"]):
                continue
            if tokens[:2] != key:
                key = tokens[:2]
                entity, used = _entity_from_label(tokens)
                segs = r.entities.setdefault(entity, [])
            a, b = int(tokens[-4]), int(tokens[-3])
            # the duration column: exact below 1000 us, scaled above
            if tokens[-1] == "us":
                if int(tokens[-2]) != b - a:
                    raise ValueError(f"duration of {line.strip()!r}")
            else:
                value, tol = human_us(" ".join(tokens[-2:]))
                if abs(value - (b - a)) > tol + 1e-9:
                    raise ValueError(f"duration of {line.strip()!r}")
            segs.append((tokens[-5], a, b))
    return r


# ---------------------------------------------------------------------------
# expected values


def ks_per_sample(samples, cdf):
    """KS distance, evaluating the model at every sorted sample."""
    xs = sorted(samples)
    n = len(xs)
    worst = 0.0
    for i, x in enumerate(xs):
        model = cdf(x)
        below = abs(i / n - model)
        above = abs((i + 1) / n - model)
        if below > worst:
            worst = below
        if above > worst:
            worst = above
    return worst


def expected_series(samples, bins):
    lo, hi = min(samples), max(samples)
    total = sum(samples)
    n = len(samples)
    out = {
        "count": n,
        "total": total,
        "min": lo,
        "max": hi,
        "mean": total / n,
        "lower": lo,
        "upper": hi,
        "uni_ks": 0.0,
        "rate": None,
        "ll": None,
        "exp_ks": None,
    }
    if lo == hi:
        out["edges"] = [float(lo), float(lo + 1)]
        out["counts"] = out["float_counts"] = [n]
    else:
        span = hi - lo
        out["uni_ks"] = ks_per_sample(samples, lambda x: (x - lo) / span)
        out["edges"] = [lo + span * i / bins for i in range(bins + 1)]
        counts = [0] * bins
        float_counts = [0] * bins
        width = span / bins
        for x in samples:
            counts[min(bins - 1, (x - lo) * bins // span)] += 1
            float_counts[min(bins - 1, int((x - lo) / width))] += 1
        out["counts"] = counts
        out["float_counts"] = float_counts
    positives = [x for x in samples if x > 0]
    if positives:
        p_total = sum(positives)
        rate = len(positives) / p_total
        out["rate"] = rate
        out["ll"] = len(positives) * math.log(rate) - rate * p_total
        out["exp_ks"] = ks_per_sample(positives, lambda x: 1.0 - math.exp(-rate * x))
    return out


class Expected:
    """Oracle values of one workload, computed once and shared by the checks."""

    def __init__(self, oracle, view, bins):
        self.oracle = oracle
        self.window = oracle.window
        lo = max(view[0], oracle.window[0]) if view else oracle.window[0]
        hi = min(view[1], oracle.window[1]) if view else oracle.window[1]
        self.view = (lo, hi)
        self.bins = bins
        self.charge = oracle.charge_in(lo, hi)
        self.states = oracle.states_in(lo, hi, self.charge)
        self.series = {
            (entity, name): expected_series(xs, bins)
            for entity, name, xs in oracle.series()
        }

    def window_text(self):
        return clock(self.window[0]), clock(self.window[1])


# ---------------------------------------------------------------------------
# checks


def _window_problems(report, r, exp):
    """The window as µs (json) or as trace clock text (text); csv has none."""
    if r.window is not None and tuple(r.window) not in (exp.window, exp.window_text()):
        return [(WRONG, f"{report} window {r.window}")]
    return []


def check_load(r, exp):
    problems = _window_problems("load", r, exp)
    o = exp.oracle
    duration = o.duration
    want = {e: net for e, net in o.net.items() if net > 0}
    if set(r.rows) != set(want):
        problems.append((WRONG, f"load entities {sorted(r.rows)} != {sorted(want)}"))
    for entity, (net, frac) in r.rows.items():
        if entity in want and net != want[entity]:
            problems.append((WRONG, f"load {_label(entity)}: net {net} != {want[entity]}"))
        if not _close(frac, net / duration, *r.tol):
            problems.append((WRONG, f"load {_label(entity)}: utilization {frac}"))
    if r.total is not None and r.total[0] != duration:
        problems.append((WRONG, f"load total {r.total[0]} != window {duration}"))
    if r.idle is not None:
        idle = want.get((TASK, 0), 0) / duration
        if not _close(r.idle, idle, *r.tol):
            problems.append((WRONG, f"idle fraction {r.idle} != {idle}"))
    return problems


def check_utilization(r, exp, width):
    lo, hi = exp.view
    problems = _window_problems("utilization", r, exp)
    if r.view is not None and tuple(r.view) != (lo, hi):
        problems.append((WRONG, f"utilization view {r.view} != {(lo, hi)}"))
    if r.width is not None and r.width != width:
        problems.append((WRONG, f"slot width {r.width} != {width}"))
    n_slots = -(-(hi - lo) // width)
    if len(r.slots) != n_slots:
        # slots with no charge cannot occur: slices tile the view
        problems.append((WRONG, f"{len(r.slots)} slots, expected {n_slots}"))
    totals = {}
    for i, (start, span, partial, fracs) in enumerate(r.slots):
        want_start = lo + i * width
        want_span = min(width, hi - want_start)
        if (start, span) != (want_start, want_span):
            problems.append((WRONG, f"slot {i} is ({start}, {span})"))
            break
        if partial is not None and partial != (span < width):
            problems.append((WRONG, f"slot {start}: partial flag {partial}"))
        # a printed fraction recovers the slot's integer µs exactly, since
        # its rounding error times the span stays below half a microsecond
        charged = 0
        frac_sum = 0.0
        for entity, frac in fracs:
            us = round(frac * span)
            if us < 1 or abs(frac * span - us) > r.tol * span + 1e-6:
                problems.append((WRONG, f"slot {start}: {_label(entity)} fraction {frac}"))
            charged += us
            frac_sum += frac
            totals[entity] = totals.get(entity, 0) + us
        if charged != span or abs(frac_sum - 1.0) > r.tol * len(fracs) + 1e-9:
            problems.append((WRONG, f"slot {start}: fractions sum to {frac_sum}"))
        if len(problems) > 20:
            break
    if totals != exp.charge:
        diff = {
            _label(e): (totals.get(e), exp.charge.get(e))
            for e in set(totals) | set(exp.charge)
            if totals.get(e) != exp.charge.get(e)
        }
        problems.append((WRONG, f"utilization µs in view differ (got, want): {diff}"))
    return problems


_SERIES_EXACT = ("count", "total", "min", "max", "lower", "upper")
_SERIES_FLOAT = ("mean", "rate", "ll", "exp_ks", "uni_ks")


def check_stats(r, exp):
    problems = []
    o = exp.oracle
    want_rows = o.entities()
    if set(r.rows) != set(want_rows):
        return [(WRONG, f"stats entities {sorted(r.rows)} != {sorted(want_rows)}")]
    problems += _window_problems("stats", r, exp)
    if r.bins is not None and r.bins != exp.bins:
        problems.append((WRONG, f"stats bins {r.bins} != {exp.bins}"))
    for entity, row in r.rows.items():
        label = _label(entity)
        if "net" in row and row["net"] != o.net[entity]:
            problems.append((WRONG, f"{label}: net {row['net']} != {o.net[entity]}"))
        if "share" in row:
            rel, abs_tol = r.tol["share"]
            if not _close(row["share"], o.net[entity] / o.duration, rel, abs_tol):
                problems.append((WRONG, f"{label}: share {row['share']}"))
        if "dispatches" in row and row["dispatches"] != len(o.samples[entity]):
            problems.append((WRONG, f"{label}: dispatches {row['dispatches']}"))
        for name in ("exec", "period"):
            want = exp.series.get((entity, name))
            got = row.get(name)
            if name == "period" and not r.periods:
                continue
            if (want is None) != (got is None):
                problems.append((WRONG, f"{label} {name}: series present {got is not None}"))
                continue
            if want is not None:
                problems += _check_series(f"{label} {name}", got, want, r.tol)
    return problems


def _check_series(where, got, want, tol):
    problems = []
    scaled = got.get("tol", {})  # human-scaled durations of the text format
    for field in _SERIES_EXACT + _SERIES_FLOAT:
        if field not in got:
            continue
        g, w = got[field], want[field]
        if g is None or w is None:
            ok = g is w
        elif field in scaled or field in _SERIES_FLOAT:
            ok = _close(g, w, *(scaled.get(field) or tol.get(field, (JSON_REL_TOL, 0.0))))
        else:
            ok = g == w
        if not ok:
            problems.append((WRONG, f"{where}: {field} {g} != {w}"))
    if "counts" in got:
        edges = got["edges"]
        if len(edges) != len(want["edges"]) or not all(
            _close(a, b) for a, b in zip(edges, want["edges"])
        ):
            problems.append((WRONG, f"{where}: histogram edges {edges[:3]}..."))
        elif got["counts"] != want["counts"]:
            if got["counts"] == want["float_counts"]:
                problems.append((HISTOGRAM_EDGE, f"{where}: {HISTOGRAM_EDGE_FAULT}"))
            else:
                problems.append((WRONG, f"{where}: histogram counts {got['counts']}"))
    return problems


_TASK_STATES = ("running", "preempted_by_irq", "inactive")
_IRQ_STATES = ("active", "inactive")


def check_timeline(r, exp):
    lo, hi = exp.view
    problems = _window_problems("timeline", r, exp)
    if r.view is not None and tuple(r.view) != (lo, hi):
        problems.append((WRONG, f"timeline view {r.view} != {(lo, hi)}"))
    if set(r.entities) != set(exp.states):
        return problems + [
            (WRONG, f"timeline entities {sorted(r.entities)} != {sorted(exp.states)}")
        ]
    for entity, segs in r.entities.items():
        allowed = _TASK_STATES if entity[0] == TASK else _IRQ_STATES
        totals = dict.fromkeys(allowed, 0)
        cursor = lo
        last = None
        for state, a, b in segs:
            if a != cursor or b <= a or state == last or state not in totals:
                problems.append((WRONG, f"{_label(entity)}: segment {state} [{a}, {b})"))
                break
            totals[state] += b - a
            cursor = b
            last = state
        else:
            if cursor != hi:
                problems.append((WRONG, f"{_label(entity)}: timeline ends at {cursor}"))
            elif totals != exp.states[entity]:
                problems.append(
                    (WRONG, f"{_label(entity)}: state µs {totals} != {exp.states[entity]}")
                )
    return problems


def check_validate(diagnostics, violations, parse_faults, injected):
    """`validate` must report exactly the injected faults, at their places."""
    problems = []
    if diagnostics != parse_faults:
        extra = sorted(set(diagnostics) - set(parse_faults))[:5]
        missing = sorted(set(parse_faults) - set(diagnostics))[:5]
        problems.append((WRONG, f"parse diagnostics differ: extra {extra}, missing {missing}"))
    if violations != injected:
        extra = sorted(set(violations) - set(injected))[:5]
        missing = sorted(set(injected) - set(violations))[:5]
        problems.append((WRONG, f"violations differ: extra {extra}, missing {missing}"))
    return problems


def read_validate_output(stdout, stderr):
    """(line, kind) of each warning and (at, kind) of each reported violation."""
    diagnostics = []
    for line in stderr.decode().splitlines():
        if line.startswith("warning: line "):
            number, kind = line[len("warning: line ") :].split(": ")[:2]
            diagnostics.append((int(number), kind))
    violations = []
    for line in stdout.decode().splitlines():
        if line.startswith("at "):
            at, kind = line[3:].split(": ")[:2]
            violations.append((int(at.removesuffix(" us")), kind))
    return diagnostics, violations
