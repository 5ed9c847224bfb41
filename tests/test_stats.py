"""Sample summaries, histograms, distribution fits, KS distances."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schedtrace import (
    EmptySampleError,
    SampleDomainError,
    fit_exponential,
    fit_uniform,
    histogram,
    summarize,
)
from schedtrace.stats import MAX_BINS
from tests.oracles import ks_statistic_per_sample


def test_summarize():
    s = summarize([4, 1, 7])
    assert (s.count, s.total, s.minimum, s.maximum) == (3, 12, 1, 7)
    assert s.mean == 4.0


def test_summarize_empty_raises():
    with pytest.raises(EmptySampleError):
        summarize([])


def test_histogram_hand_case():
    h = histogram([0, 1, 2, 3], bins=2)
    assert h.edges == [0.0, 1.5, 3.0]
    assert h.counts == [2, 2]  # 0,1 in the first bin; 2,3 in the second


def test_histogram_maximum_lands_in_last_bin():
    h = histogram([0, 10], bins=5)
    assert h.counts == [1, 0, 0, 0, 1]


def test_histogram_sample_on_an_interior_edge_opens_the_bin_above():
    # sample 9 lies exactly on edge 9.0, the lower edge of bin 7; a float
    # width of 18/14 used to put it in bin 6
    h = histogram(range(19), bins=14)
    assert h.edges[7] == 9.0
    assert h.counts[6:8] == [1, 2]
    assert sum(h.counts) == 19


def test_histogram_degenerate_samples():
    h = histogram([5, 5, 5], bins=4)
    assert h.edges == [5, 6]
    assert h.counts == [3]


def test_histogram_rejects_bad_bin_count():
    with pytest.raises(ValueError):
        histogram([1, 2], bins=0)
    with pytest.raises(EmptySampleError):
        histogram([], bins=4)


def test_histogram_makes_at_most_max_bins():
    assert len(histogram([1, 2], MAX_BINS).counts) == MAX_BINS
    with pytest.raises(ValueError, match=f"from 1 to {MAX_BINS}"):
        histogram([1, 2], MAX_BINS + 1)
    with pytest.raises(ValueError, match=f"from 1 to {MAX_BINS}"):
        histogram([7], MAX_BINS + 1)  # a degenerate range checks the count too


@given(
    samples=st.lists(st.integers(0, 10**6), min_size=1, max_size=200),
    bins=st.integers(1, 40),
)
def test_histogram_conserves_count_and_tiles_edges(samples, bins):
    h = histogram(samples, bins=bins)
    assert sum(h.counts) == len(samples)
    assert len(h.edges) == len(h.counts) + 1
    assert all(a < b for a, b in zip(h.edges, h.edges[1:]))
    assert h.edges[0] <= min(samples)
    assert h.edges[-1] >= max(samples)


def test_fit_exponential_rate_and_loglik():
    fit = fit_exponential([100, 300])
    assert fit.rate_per_us == 2 / 400
    assert fit.log_likelihood == pytest.approx(2 * math.log(0.005) - 0.005 * 400)


def test_fit_exponential_rejects_nonpositive_samples():
    with pytest.raises(SampleDomainError):
        fit_exponential([10, 0])
    with pytest.raises(SampleDomainError):
        fit_exponential([-3])
    with pytest.raises(EmptySampleError):
        fit_exponential([])


def test_fit_uniform_uses_sample_extremes():
    fit = fit_uniform([7, 3, 9, 5])
    assert (fit.lower, fit.upper) == (3, 9)


def test_fit_uniform_degenerate_has_zero_distance():
    fit = fit_uniform([4, 4])
    assert (fit.lower, fit.upper) == (4, 4)
    assert fit.ks == 0.0


def test_ks_statistic_and_uniform_fit_reject_zero_samples():
    for fit in (fit_exponential, fit_uniform):
        with pytest.raises(EmptySampleError):
            fit([])


def test_ks_statistic_hand_case():
    # uniform on [1, 4]: the gap is 1/4 just after 1 and just before 4.
    # exponential of rate 4 / 10: the largest gap is just before 1, where the
    # empirical cdf is 0 and the model 1 - exp(-0.4)
    assert fit_uniform([1, 2, 3, 4]).ks == pytest.approx(0.25)
    assert fit_exponential([1, 2, 3, 4]).ks == pytest.approx(1 - math.exp(-0.4))


def test_ks_statistic_unsorted_input():
    assert fit_uniform([4, 1, 3, 2]).ks == pytest.approx(0.25)
    assert fit_exponential([4, 1, 3, 2]).ks == pytest.approx(1 - math.exp(-0.4))


@given(st.lists(st.floats(0.001, 1e6), min_size=1, max_size=100))
def test_ks_statistic_bounded(samples):
    for fit in (fit_exponential, fit_uniform):
        assert 0.0 <= fit(samples).ks <= 1.0


@given(
    samples=st.lists(st.integers(1, 12), min_size=1, max_size=400)
    | st.lists(st.integers(0, 10**6), min_size=1, max_size=60).map(lambda x: x * 7)
)
def test_ks_statistic_matches_per_sample_loop_on_ties(samples):
    # the fits' own model CDFs, evaluated at every sample: the very same float
    if min(samples) > 0:
        rate = len(samples) / sum(samples)
        exp_cdf = lambda x: 1.0 - math.exp(-rate * x)
        assert fit_exponential(samples).ks == ks_statistic_per_sample(samples, exp_cdf)
    lower, upper = min(samples), max(samples)
    if lower < upper:
        uni_cdf = lambda x: (x - lower) / (upper - lower)
        assert fit_uniform(samples).ks == ks_statistic_per_sample(samples, uni_cdf)


def test_exponential_fit_close_on_true_exponential_data():
    rng = random.Random(5)
    xs = [rng.expovariate(0.02) for _ in range(4000)]
    fit = fit_exponential(xs)
    assert abs(fit.rate_per_us - 0.02) / 0.02 < 0.05
    assert fit.ks < 0.05


def test_uniform_fit_close_on_true_uniform_data():
    rng = random.Random(6)
    xs = [rng.uniform(50, 150) for _ in range(4000)]
    fit = fit_uniform(xs)
    assert fit.ks < 0.05
