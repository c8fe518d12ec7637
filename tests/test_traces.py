"""Tests for workload trace capture and replay."""

import pytest

from repro.metrics.collector import MetricsCollector
from repro.simulation.kernel import SimKernel
from repro.simulation.rng import RngStreams
from repro.workload.clients import ClientEmulator
from repro.workload.profiles import ConstantProfile
from repro.workload.traces import (
    RequestRecord,
    TraceRecorder,
    TraceReplayer,
    WorkloadTrace,
)


def capture_trace(kernel, clients=10, duration=60.0):
    """Record the stream a small emulated population produces against an
    instant-response entry point."""

    def instant(request):
        request.complete(kernel)

    recorder = TraceRecorder(kernel, instant)
    emulator = ClientEmulator(
        kernel,
        entry=recorder,
        profile=ConstantProfile(clients, duration),
        collector=MetricsCollector(),
        streams=RngStreams(21),
    )
    emulator.start()
    kernel.run(until=duration)
    return recorder.trace


class TestTraceCapture:
    def test_records_every_request(self, kernel):
        trace = capture_trace(kernel)
        assert len(trace) > 20
        assert trace.duration_s <= 60.0

    def test_records_are_time_ordered(self, kernel):
        trace = capture_trace(kernel)
        times = [r.t for r in trace]
        assert times == sorted(times)

    def test_write_fraction_near_mix(self, kernel):
        trace = capture_trace(kernel, clients=40, duration=300.0)
        assert 0.08 < trace.write_fraction() < 0.25

    def test_out_of_order_append_rejected(self):
        trace = WorkloadTrace()
        trace.append(RequestRecord(5.0, "x", False, False, 0, 0, 0, 0, None))
        with pytest.raises(ValueError):
            trace.append(RequestRecord(1.0, "x", False, False, 0, 0, 0, 0, None))


class TestPersistence:
    def test_save_load_roundtrip(self, kernel, tmp_path):
        trace = capture_trace(kernel)
        path = tmp_path / "trace.jsonl"
        trace.save(str(path))
        loaded = WorkloadTrace.load(str(path))
        assert len(loaded) == len(trace)
        assert all(a == b for a, b in zip(loaded, trace))


class TestReplay:
    def test_replay_reproduces_arrivals_and_demands(self, kernel):
        trace = capture_trace(kernel)
        replay_kernel = SimKernel()
        seen = []

        def sink(request):
            seen.append(
                (replay_kernel.now, request.interaction, request.db_demand)
            )
            request.complete(replay_kernel)

        TraceReplayer(replay_kernel, trace, sink).start()
        replay_kernel.run()
        assert len(seen) == len(trace)
        for (t, inter, db), record in zip(seen, trace):
            assert t == pytest.approx(record.t)
            assert inter == record.interaction
            assert db == pytest.approx(record.db)

    def test_replay_through_real_stack(self, stack):
        # Capture against a trivial sink (separate kernel), then replay
        # through the legacy chain and check latencies are collected; the
        # default offset aligns the first arrival with the stack's clock.
        trace = capture_trace(SimKernel(), clients=5, duration=30.0)
        collector = MetricsCollector()
        replayer = TraceReplayer(stack.kernel, trace, stack.plb.handle, collector)
        replayer.start()
        stack.kernel.run()
        assert collector.completed_requests == len(trace)
        assert collector.failed_requests == 0

    def test_identical_trace_identical_results(self, kernel):
        trace = capture_trace(kernel)

        def run_replay():
            k = SimKernel()
            collector = MetricsCollector()

            def delayed(request):
                k.schedule(0.01, request.complete, k)

            TraceReplayer(k, trace, delayed, collector).start()
            k.run()
            return collector.completed_requests, tuple(collector.latencies.values)

        assert run_replay() == run_replay()
