"""Sample statistics, histograms and distribution fits for execution times."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import EmptySampleError, SampleDomainError

MAX_BINS = 10_000  # a histogram holds a list of this length per sample series


@dataclass(frozen=True)
class SampleSummary:
    count: int
    total: float
    minimum: float
    maximum: float
    mean: float


@dataclass(frozen=True)
class Histogram:
    """Equal-width bins spanning [min, max]; edges has len(counts) + 1 entries."""

    edges: list[float]
    counts: list[int]


@dataclass(frozen=True)
class ExponentialFit:
    rate_per_us: float
    log_likelihood: float
    ks: float


@dataclass(frozen=True)
class UniformFit:
    lower: float
    upper: float
    ks: float


def summarize(samples: Sequence) -> SampleSummary:
    """Count, sum, min, max and mean of a non-empty sample sequence."""
    if not samples:
        raise EmptySampleError("cannot summarize zero samples")
    total = sum(samples)
    return SampleSummary(len(samples), total, min(samples), max(samples), total / len(samples))


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
    lo = min(samples)
    hi = max(samples)
    if lo == hi:
        return Histogram([float(lo), float(lo + 1)], [len(samples)])
    span = hi - lo
    counts = [0] * bins
    last = bins - 1
    # a bin is a function of the sample value: place each distinct value once
    for x, ties in Counter(samples).items():
        idx = int((x - lo) * bins // span)
        if idx > last:
            idx = last
        counts[idx] += ties
    edges = [lo + span * i / bins for i in range(bins + 1)]
    return Histogram(edges, counts)


def ks_statistic(samples: Sequence, cdf: Callable[[float], float]) -> float:
    """One-sample Kolmogorov-Smirnov distance between samples and a model CDF.

    Supremum over the sorted samples of the gap between the empirical CDF
    (evaluated just before and at each sample) and the model CDF.  Equal
    samples share one model value m, and |k/n - m| over the ranks k of a run
    of ties is largest at the run's first or last rank (k/n - m is monotone
    in k, also in floating point), so the model is evaluated once per
    distinct sample value.
    """
    counts = Counter(samples)
    n = sum(counts.values())
    if n == 0:
        raise EmptySampleError("cannot compute a KS statistic on zero samples")
    worst = 0.0
    rank = 0
    for x in sorted(counts):
        model = cdf(x)
        below = abs(rank / n - model)
        rank += counts[x]
        above = abs(rank / n - model)
        if below > worst:
            worst = below
        if above > worst:
            worst = above
    return worst


def fit_exponential(samples: Sequence) -> ExponentialFit:
    """Maximum-likelihood exponential fit: rate = count / sum.

    Requires strictly positive samples; raises SampleDomainError otherwise.
    """
    if not samples:
        raise EmptySampleError("cannot fit a distribution to zero samples")
    total = sum(samples)
    if min(samples) <= 0:
        raise SampleDomainError("exponential fit requires strictly positive samples")
    n = len(samples)
    rate = n / total
    log_likelihood = n * math.log(rate) - rate * total
    ks = ks_statistic(samples, lambda x: 1.0 - math.exp(-rate * x))
    return ExponentialFit(rate, log_likelihood, ks)


def fit_uniform(samples: Sequence) -> UniformFit:
    """Uniform fit over the sample extremes; ks is 0 for a degenerate range."""
    if not samples:
        raise EmptySampleError("cannot fit a distribution to zero samples")
    lower = min(samples)
    upper = max(samples)
    if lower == upper:
        return UniformFit(lower, upper, 0.0)
    span = upper - lower
    ks = ks_statistic(samples, lambda x: (x - lower) / span)
    return UniformFit(lower, upper, ks)
