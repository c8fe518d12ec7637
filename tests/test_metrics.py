"""Tests for the metrics containers, aggregates and collector."""

import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.aggregates import (
    MovingAverage,
    left_sum,
    percentile_sorted,
    spatial_average,
    summarize,
)
from repro.metrics.collector import MetricsCollector
from repro.metrics.series import StepSeries, TimeSeries, float_column


class TestTimeSeries:
    def test_append_and_arrays(self):
        s = TimeSeries("x")
        s.append(1.0, 10.0)
        s.append(2.0, 20.0)
        assert list(s.times) == [1.0, 2.0]
        assert list(s.values) == [10.0, 20.0]
        assert len(s) == 2
        assert s.last() == (2.0, 20.0)

    def test_non_monotonic_rejected(self):
        s = TimeSeries()
        s.append(5.0, 1.0)
        with pytest.raises(ValueError):
            s.append(4.0, 1.0)

    def test_bucket_mean(self):
        s = TimeSeries()
        for t in range(10):
            s.append(float(t), float(t))
        b = s.bucket_mean(5.0)
        assert len(b) == 2
        assert list(b.values) == [2.0, 7.0]
        assert list(b.times) == [2.5, 7.5]

    def test_bucket_mean_skips_empty(self):
        s = TimeSeries()
        s.append(0.0, 1.0)
        s.append(20.0, 3.0)
        b = s.bucket_mean(5.0)
        assert len(b) == 2

    def test_bucket_bad_width(self):
        with pytest.raises(ValueError):
            TimeSeries().bucket_mean(0.0)

    def test_window(self):
        s = TimeSeries()
        for t in range(10):
            s.append(float(t), float(t))
        w = s.window(3.0, 6.0)
        assert list(w.times) == [3.0, 4.0, 5.0]

    def test_stats_on_empty(self):
        s = TimeSeries()
        assert math.isnan(s.mean())
        assert math.isnan(s.max())
        assert s.last() is None

    def test_nan_time_rejected(self):
        s = TimeSeries()
        with pytest.raises(ValueError):
            s.append(float("nan"), 1.0)  # the first sample too
        s.append(1.0, 1.0)
        with pytest.raises(ValueError):
            s.append(float("nan"), 2.0)
        with pytest.raises(ValueError):
            s.append(0.5, 3.0)
        assert list(s) == [(1.0, 1.0)]
        assert len(s.window(0.0, 2.0)) == 1

    def test_append_after_copy_out(self):
        """``times``/``values`` are copies: later appends neither raise
        (no exported buffer pins the column) nor show up in them."""
        s = TimeSeries()
        s.append(1.0, 10.0)
        times, values = s.times, s.values
        s.append(2.0, 20.0)
        times[0] = values[0] = -1.0
        assert list(times) == [-1.0] and list(values) == [-1.0]
        assert list(s.times) == [1.0, 2.0]
        assert list(s.values) == [10.0, 20.0]

    def test_reads_hold_no_view(self):
        """Every read, like the mid-run reads of the what-if and
        federation code, leaves the series appendable."""
        s = TimeSeries()
        for t in range(5):
            s.append(float(t), float(t))
        s.mean(), s.max(), s.window(1.0, 3.0), s.bucket_mean(2.0)
        s.tail_since(2), s.last(), list(s)
        s.append(5.0, 5.0)
        assert len(s) == 6

    def test_values_stored_as_float(self):
        s = TimeSeries()
        s.append(1, True)
        s.append(np.float64(2.0), np.int64(3))
        assert s.last() == (2.0, 3.0)
        assert all(type(x) is float for sample in s for x in sample)


class TestStepSeries:
    def test_value_at(self):
        s = StepSeries(initial=1.0)
        s.set(10.0, 2.0)
        s.set(20.0, 3.0)
        assert s.value_at(5.0) == 1.0
        assert s.value_at(10.0) == 2.0
        assert s.value_at(15.0) == 2.0
        assert s.value_at(25.0) == 3.0

    def test_no_op_set_not_recorded(self):
        s = StepSeries(initial=1.0)
        s.set(10.0, 1.0)
        assert len(s) == 1

    def test_non_monotonic_rejected(self):
        s = StepSeries()
        s.set(10.0, 1.0)
        with pytest.raises(ValueError):
            s.set(5.0, 2.0)

    def test_sample_vectorized(self):
        s = StepSeries(initial=0.0)
        s.set(10.0, 5.0)
        out = s.sample(np.array([0.0, 9.9, 10.0, 99.0]))
        assert list(out) == [0.0, 0.0, 5.0, 5.0]

    def test_time_weighted_mean(self):
        s = StepSeries(initial=1.0)
        s.set(10.0, 3.0)
        # 10 s at 1 + 10 s at 3 over [0, 20] -> mean 2
        assert s.time_weighted_mean(20.0) == pytest.approx(2.0)

    def test_max(self):
        s = StepSeries(initial=1.0)
        s.set(1.0, 7.0)
        s.set(2.0, 3.0)
        assert s.max() == 7.0

    def test_nan_time_rejected(self):
        s = StepSeries(initial=1.0)
        s.set(1.0, 2.0)
        with pytest.raises(ValueError):
            s.set(float("nan"), 3.0)
        with pytest.raises(ValueError):
            s.set(0.5, 4.0)
        assert s.changes == [(0.0, 1.0), (1.0, 2.0)]

    def test_reads_hold_no_view(self):
        s = StepSeries(initial=1.0)
        s.set(10.0, 2.0)
        s.value_at(5.0), s.sample(np.array([1.0, 11.0])), s.max()
        s.integral(0.0, 20.0), s.time_weighted_mean(20.0), s.changes
        s.set(20.0, 3.0)
        assert s.value_at(25.0) == 3.0


class TestMovingAverage:
    def test_basic_average(self):
        ma = MovingAverage(10.0)
        assert ma.add(0.0, 1.0) == pytest.approx(1.0)
        assert ma.add(1.0, 3.0) == pytest.approx(2.0)

    def test_eviction_outside_window(self):
        ma = MovingAverage(10.0)
        ma.add(0.0, 100.0)
        assert ma.add(11.0, 2.0) == pytest.approx(2.0)
        assert ma.sample_count == 1

    def test_boundary_sample_evicted(self):
        ma = MovingAverage(10.0)
        ma.add(0.0, 100.0)
        # sample at exactly now - window is evicted (half-open window)
        assert ma.add(10.0, 2.0) == pytest.approx(2.0)

    def test_nan_when_empty(self):
        assert math.isnan(MovingAverage(5.0).value)

    def test_reset(self):
        ma = MovingAverage(5.0)
        ma.add(0.0, 1.0)
        ma.reset()
        assert ma.sample_count == 0
        assert math.isnan(ma.value)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            MovingAverage(0.0)

    @given(
        samples=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1,
            max_size=60,
        ),
        window=st.floats(min_value=0.5, max_value=50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_computation(self, samples, window):
        """The O(1) incremental MA equals the naive windowed mean."""
        samples = sorted(samples)
        ma = MovingAverage(window)
        for i, (t, v) in enumerate(samples):
            got = ma.add(t, v)
            # Oracle: samples appended so far whose age is within the window
            # (strictly: tt > now - window, matching the half-open window).
            expect = [vv for tt, vv in samples[: i + 1] if tt > t - window]
            assert got == pytest.approx(np.mean(expect))

    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_input_range(self, values):
        ma = MovingAverage(1000.0)
        for i, v in enumerate(values):
            out = ma.add(float(i), v)
        assert min(values) - 1e-12 <= out <= max(values) + 1e-12


class TestAggregates:
    def test_spatial_average(self):
        assert spatial_average([0.2, 0.4]) == pytest.approx(0.3)
        assert math.isnan(spatial_average([]))

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.one_of(st.floats(0.0, 1.0), st.floats(-1e15, 1e15)),
            min_size=1,
            max_size=300,
        )
    )
    def test_spatial_average_is_numpy_mean_bit_for_bit(self, values):
        expected = float(np.asarray(values, dtype=np.float64).mean())
        assert spatial_average(iter(values)).hex() == expected.hex()

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.one_of(st.floats(0.0, 1.0), st.floats(-1e16, 1e16)),
            min_size=1,
            max_size=7,
        )
    )
    def test_short_spatial_average_is_numpy_mean_bit_for_bit(self, values):
        # A tier's handful of nodes takes the loop, never numpy.
        expected = float(np.asarray(values, dtype=np.float64).mean())
        assert spatial_average(values).hex() == expected.hex()

    def test_left_sum_is_not_compensated(self):
        # Python 3.12's builtin sum() returns 0.6 here.
        assert left_sum([0.1, 0.2, 0.3, 1e16, -1e16]) == 0.0
        assert left_sum([]) == 0.0 and isinstance(left_sum([]), float)
        assert left_sum(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 0.005, 0.25, 1.5]),  # ties
                st.floats(0.0, 120.0),
                st.floats(-1e12, 1e12),
            ),
            min_size=1,
            max_size=500,
        ),
        st.sampled_from([95.0, 95.0, 0.0, 50.0, 99.0, 100.0, 37.5]),
    )
    def test_percentile_sorted_is_numpy_bit_for_bit(self, values, pct):
        expected = float(np.percentile(np.asarray(values, dtype=np.float64), pct))
        assert percentile_sorted(sorted(values), pct).hex() == expected.hex()

    def test_summarize(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats["count"] == 4
        assert stats["mean"] == pytest.approx(2.5)
        assert stats["max"] == 4.0
        assert stats["p50"] == pytest.approx(2.5)

    def test_summarize_empty(self):
        stats = summarize([])
        assert stats["count"] == 0
        assert math.isnan(stats["mean"])


class TestCollector:
    def test_latency_recording(self):
        c = MetricsCollector()
        c.record_latency(1.0, 0.1)
        c.record_latency(2.0, 0.3)
        assert c.completed_requests == 2
        assert c.latency_summary()["mean"] == pytest.approx(0.2)

    def test_throughput(self):
        c = MetricsCollector()
        for t in range(100):
            c.record_latency(float(t), 0.01)
        assert c.throughput(0.0, 100.0) == pytest.approx(1.0)
        assert c.throughput(0.0, 50.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            c.throughput(10.0, 10.0)

    def test_error_rate(self):
        c = MetricsCollector()
        c.record_latency(1.0, 0.1)
        c.record_failure(2.0)
        assert c.error_rate() == pytest.approx(0.5)
        assert MetricsCollector().error_rate() == 0.0

    def test_replica_tracking(self):
        c = MetricsCollector()
        c.record_replicas("db", 0.0, 1)
        c.record_replicas("db", 10.0, 2)
        c.record_replicas("db", 20.0, 1)
        assert c.replica_changes("db") == [(0.0, 1.0), (10.0, 2.0), (20.0, 1.0)]
        assert c.replica_changes("ghost") == []

    def test_tier_cpu_series(self):
        c = MetricsCollector()
        c.record_tier_cpu("db", 1.0, 0.5, 0.6)
        assert list(c.tier_cpu["db"].values) == [0.5]
        assert list(c.tier_cpu_raw["db"].values) == [0.6]

    def test_tier_cpu_builds_each_series_once(self, monkeypatch):
        """A reading appends to the tier's two series; only a tier's first
        reading constructs them."""
        import repro.metrics.collector as collector

        built = []

        class CountingSeries(TimeSeries):
            def __init__(self, name):
                built.append(name)
                super().__init__(name)

        monkeypatch.setattr(collector, "TimeSeries", CountingSeries)
        c = MetricsCollector()
        built.clear()  # the collector's own latency/failure/node series
        for i in range(100):
            c.record_tier_cpu(("app", "db")[i % 2], float(i), 0.5, 0.6)
        assert sorted(built) == ["cpu[app]", "cpu[db]", "cpu_raw[app]", "cpu_raw[db]"]
        assert len(c.tier_cpu["db"]) == len(c.tier_cpu_raw["app"]) == 50

    def test_latency_records_are_packed(self):
        """A latency sample costs its three packed doubles (time, value,
        weight) plus column slack; boxed floats in lists cost ~96 B."""
        c = MetricsCollector()
        n = 100_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(n):
                c.record_latency(i * 0.01, 0.05 + (i % 7) * 1e-3)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(c.latencies) == n
        assert retained / n < 32

    def test_unit_weights_counted_until_first_other_weight(self):
        """Unit weights are stored as a count; a weight-3 sample turns the
        count into a column.  Throughput equals that of an explicit
        column either way, also after a pickle round trip."""
        counted = MetricsCollector()
        for t in range(10):
            counted.record_latency(float(t), 0.01)
        assert counted._latency_weights == 10
        assert pickle.loads(pickle.dumps(counted)).throughput(0.0, 10.0) == 1.0
        for t in range(10, 15):
            counted.record_latency(float(t), 0.01, weight=3)
        explicit = MetricsCollector()
        for t in range(15):
            explicit.record_latency(float(t), 0.01)
        explicit._latency_weights = float_column([1.0] * 10 + [3.0] * 5)
        windows = [(0.0, 15.0), (0.0, 10.0), (5.0, 12.0), (10.0, 15.0)]
        expected = [explicit.throughput(*w) for w in windows]
        assert expected[0] == pytest.approx(25 / 15)
        for c in (counted, pickle.loads(pickle.dumps(counted))):
            assert [c.throughput(*w) for w in windows] == expected
        assert counted.completed_requests == 25

    def test_reconfiguration_log(self):
        c = MetricsCollector()
        c.record_reconfiguration(5.0, "grow")
        assert c.reconfigurations == [(5.0, "grow")]
