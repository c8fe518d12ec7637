"""Property-based tests for the metrics series containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.series import StepSeries, TimeSeries

times_and_values = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1000.0),
        st.floats(min_value=-100.0, max_value=100.0),
    ),
    min_size=1,
    max_size=60,
).map(sorted)


@given(samples=times_and_values, width=st.floats(min_value=0.5, max_value=200.0))
@settings(max_examples=60, deadline=None)
def test_bucket_mean_preserves_value_bounds(samples, width):
    series = TimeSeries()
    for t, v in samples:
        series.append(t, v)
    bucketed = series.bucket_mean(width)
    values = [v for _, v in samples]
    eps = 1e-9
    for _, mean in bucketed:
        assert min(values) - eps <= mean <= max(values) + eps


@given(samples=times_and_values, width=st.floats(min_value=0.5, max_value=200.0))
@settings(max_examples=60, deadline=None)
def test_bucket_mean_conserves_weighted_total(samples, width):
    """Sum over buckets of (bucket mean * bucket count) == sum of samples."""
    series = TimeSeries()
    for t, v in samples:
        series.append(t, v)
    t_arr = series.times
    edges = np.arange(0.0, float(t_arr[-1]) + width, width)
    idx = np.digitize(t_arr, edges) - 1
    bucketed = series.bucket_mean(width)
    total = 0.0
    for center, mean in bucketed:
        b = int(np.digitize([center], edges)[0] - 1)
        count = int(np.count_nonzero(idx == b))
        total += mean * count
    assert total == pytest.approx(sum(v for _, v in samples), rel=1e-6, abs=1e-6)


@given(
    changes=st.lists(
        st.tuples(
            st.floats(min_value=0.001, max_value=100.0),
            st.integers(min_value=0, max_value=10),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_step_series_sample_matches_value_at(changes):
    series = StepSeries(initial=1.0)
    t = 0.0
    for dt, value in changes:
        t += dt
        series.set(t, float(value))
    query_times = np.linspace(0.0, t + 10.0, 50)
    vectorized = series.sample(query_times)
    scalar = np.array([series.value_at(q) for q in query_times])
    assert np.array_equal(vectorized, scalar)


@given(
    changes=st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=50.0),
            st.integers(min_value=1, max_value=5),
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=60, deadline=None)
def test_step_series_time_weighted_mean_bounds(changes):
    series = StepSeries(initial=2.0)
    t = 0.0
    for dt, value in changes:
        t += dt
        series.set(t, float(value))
    horizon = t + 5.0
    mean = series.time_weighted_mean(horizon)
    all_values = [2.0] + [float(v) for _, v in changes]
    assert min(all_values) - 1e-9 <= mean <= max(all_values) + 1e-9


@given(
    changes=st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=50.0),
            st.floats(min_value=0.0, max_value=10.0),
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=60, deadline=None)
def test_step_series_riemann_sum_equals_weighted_mean(changes):
    """time_weighted_mean equals a dense numerical integration."""
    series = StepSeries(initial=1.0)
    t = 0.0
    for dt, value in changes:
        t += dt
        series.set(t, value)
    horizon = t + 1.0
    grid = np.linspace(0.0, horizon, 20_001)[:-1]  # left Riemann sum
    dense = series.sample(grid).mean()
    assert series.time_weighted_mean(horizon) == pytest.approx(dense, abs=0.02)


# ----------------------------------------------------------------------
# Bisection reads against the linear/NumPy implementations they replaced
# ----------------------------------------------------------------------
def reference_window(series, t0, t1):
    """``TimeSeries.window`` before bisection: re-append every sample
    with ``t0 <= t < t1``."""
    out = TimeSeries(f"{series.name}/window")
    for t, v in series:
        if t0 <= t < t1:
            out.append(t, v)
    return out


def reference_value_at(series, t):
    """``StepSeries.value_at`` before bisection."""
    ts, vs = zip(*series.changes)
    i = int(np.searchsorted(np.asarray(ts), t, side="right")) - 1
    return vs[max(i, 0)]


# few distinct times, so ties are common
monotone_times = st.lists(
    st.integers(min_value=0, max_value=12).map(lambda k: k * 0.5),
    max_size=40,
).map(sorted)
any_bound = st.floats(allow_nan=True, allow_infinity=True)


@given(times=monotone_times, data=st.data())
@settings(max_examples=150, deadline=None)
def test_window_matches_reference(times, data):
    series = TimeSeries("s")
    for i, t in enumerate(times):
        series.append(t, float(i))
    bound = st.one_of(st.sampled_from(times), any_bound) if times else any_bound
    t0, t1 = data.draw(bound), data.draw(bound)
    got, want = series.window(t0, t1), reference_window(series, t0, t1)
    assert got.name == want.name
    assert list(got) == list(want)


@given(times=monotone_times, data=st.data())
@settings(max_examples=150, deadline=None)
def test_value_at_matches_reference(times, data):
    series = StepSeries("s", initial=-1.0)
    for i, t in enumerate(times):
        series.set(t, float(i % 3))
    queries = data.draw(
        st.lists(st.one_of(st.sampled_from([0.0] + times), any_bound), max_size=10)
    )
    for q in queries:
        assert series.value_at(q) == reference_value_at(series, q)
