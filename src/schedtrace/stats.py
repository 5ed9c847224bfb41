"""Sample statistics, histograms and distribution fits for execution times."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate, chain, repeat
from operator import floordiv, mul, sub, truediv
from typing import NamedTuple, Sequence

from .errors import EmptySampleError, SampleDomainError

MAX_BINS = 10_000  # a histogram holds a list of this length per sample series


class SampleSummary(NamedTuple):
    count: int
    total: float
    minimum: float
    maximum: float
    mean: float


class Histogram(NamedTuple):
    """Equal-width bins spanning [min, max]; edges has len(counts) + 1 entries."""

    edges: list[float]
    counts: list[int]


class ExponentialFit(NamedTuple):
    rate_per_us: float
    log_likelihood: float
    ks: float


class UniformFit(NamedTuple):
    lower: float
    upper: float
    ks: float


def summarize(samples: Sequence) -> SampleSummary:
    """Count, sum, min, max and mean of a non-empty sample sequence."""
    if not samples:
        raise EmptySampleError("cannot summarize zero samples")
    total = sum(samples)
    return SampleSummary(len(samples), total, min(samples), max(samples), total / len(samples))


class _Tally(NamedTuple):
    """A sample series counted once: its sorted distinct values and the count of each."""

    values: list
    ties: list
    n: int


def _tally(samples) -> _Tally:
    counts = Counter(samples)
    values = sorted(counts)
    ties = list(map(counts.__getitem__, values))
    return _Tally(values, ties, sum(ties))


def histogram(samples: Sequence, bins: int = 20) -> Histogram:
    """Equal-width histogram over [min, max].

    A sample lands in bin floor((x - min) / width), with x == max counted in
    the last bin.  A degenerate range (min == max) collapses to a single
    one-microsecond bin holding every sample, whatever `bins` asked for.
    The bin index is computed as (x - min) * bins // (max - min), which is
    exact for the integer microsecond samples the reports pass; dividing by
    a float width instead puts some samples that lie on an edge one bin low.
    `bins` is 1 to MAX_BINS.
    """
    if not 1 <= bins <= MAX_BINS:
        raise ValueError(f"bins must be from 1 to {MAX_BINS}")
    if not samples:
        raise EmptySampleError("cannot histogram zero samples")
    return _histogram(_tally(samples), bins)


def _histogram(tally: _Tally, bins: int) -> Histogram:
    lo = tally.values[0]
    hi = tally.values[-1]
    if lo == hi:
        return Histogram([float(lo), float(lo + 1)], [tally.n])
    span = hi - lo
    # a bin is a function of the sample value, and it grows with the value:
    # the distinct values of bin i start where their index first reaches i,
    # and x == max, whose index is `bins`, stays in the last bin
    offsets = map(sub, tally.values, repeat(lo))
    index = list(map(floordiv, map(mul, offsets, repeat(bins)), repeat(span)))
    cuts = [0, *map(bisect_left, repeat(index), range(1, bins)), len(index)]
    ranks = [0, *accumulate(tally.ties)].__getitem__
    counts = list(map(sub, map(ranks, cuts[1:]), map(ranks, cuts[:-1])))
    edges = [lo + span * i / bins for i in range(bins + 1)]
    return Histogram(edges, counts)


def _ks(tally: _Tally, model: list) -> float:
    """Kolmogorov-Smirnov distance between a tally and a model CDF, given
    the model at each distinct value: the supremum of the gap between the
    empirical CDF, just before and at each sample, and the model.  Over a
    run of ties sharing model value m, |k/n - m| is largest at the run's
    first or last rank (k/n - m is monotone in k, also in floating point),
    so one model value per distinct sample suffices.
    """
    n = tally.n
    after = list(accumulate(tally.ties))  # the rank at each value's last tie
    below = map(sub, map(truediv, chain((0,), after), repeat(n)), model)
    above = map(sub, map(truediv, after, repeat(n)), model)
    return max(map(abs, chain(below, above)))


def fit_exponential(samples: Sequence) -> ExponentialFit:
    """Maximum-likelihood exponential fit: rate = count / sum.

    Requires strictly positive samples; raises SampleDomainError otherwise.
    """
    if not samples:
        raise EmptySampleError("cannot fit a distribution to zero samples")
    total = sum(samples)
    if min(samples) <= 0:
        raise SampleDomainError("exponential fit requires strictly positive samples")
    return _exponential(_tally(samples), total)


def _exponential(tally: _Tally, total) -> ExponentialFit:
    n = tally.n
    rate = n / total
    log_likelihood = n * math.log(rate) - rate * total
    # 1.0 - exp(-rate * x) at each distinct value
    model = list(map(sub, repeat(1.0), map(math.exp, map(mul, repeat(-rate), tally.values))))
    return ExponentialFit(rate, log_likelihood, _ks(tally, model))


def fit_uniform(samples: Sequence) -> UniformFit:
    """Uniform fit over the sample extremes; ks is 0 for a degenerate range."""
    if not samples:
        raise EmptySampleError("cannot fit a distribution to zero samples")
    return _uniform(_tally(samples))


def _uniform(tally: _Tally) -> UniformFit:
    lower = tally.values[0]
    upper = tally.values[-1]
    if lower == upper:
        return UniformFit(lower, upper, 0.0)
    span = upper - lower
    # (x - lower) / span at each distinct value
    model = list(map(truediv, map(sub, tally.values, repeat(lower)), repeat(span)))
    return UniformFit(lower, upper, _ks(tally, model))


def describe(samples: Sequence[int], bins: int):
    """summarize, histogram and fit_uniform of a non-empty integer sample
    series, fit_exponential of its positive samples (None if there are none)
    and the number of samples that fit leaves out: the series is counted once
    for all of them.  `bins` is 1 to MAX_BINS.
    """
    summary = summarize(samples)
    if not 1 <= bins <= MAX_BINS:
        raise ValueError(f"bins must be from 1 to {MAX_BINS}")
    tally = _tally(samples)
    k = bisect_right(tally.values, 0)  # where the positive values start
    positive = _Tally(tally.values[k:], tally.ties[k:], tally.n - sum(tally.ties[:k]))
    exponential = None
    if positive.n:  # integer samples: their total is exact in any order
        exponential = _exponential(positive, sum(map(mul, positive.values, positive.ties)))
    hist = _histogram(tally, bins)
    return summary, hist, exponential, _uniform(tally), tally.n - positive.n
