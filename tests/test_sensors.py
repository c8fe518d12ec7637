"""Tests for the Jade sensors."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import Node, make_nodes
from repro.jade.sensors import (
    CpuProbe,
    HeartbeatSensor,
    UtilizationSampler,
)
from repro.metrics.aggregates import spatial_average
from repro.simulation.kernel import SimKernel


class TestUtilizationSampler:
    def test_independent_observers(self, kernel):
        node = Node(kernel, "n1")
        a, b = UtilizationSampler(), UtilizationSampler()
        a.sample(node)  # seed both anchors at t=0
        b.sample(node)
        node.run_job(1.0)
        kernel.run(until=2.0)
        # Both observers see the same history despite sampling separately.
        assert a.sample(node) == pytest.approx(0.5)
        assert b.sample(node) == pytest.approx(0.5)

    def test_first_observation_seeds_anchor(self, kernel):
        """A node first observed mid-run reads 0.0 — its history before the
        observation (here a full second of busy CPU) must not be averaged
        into the sample."""
        node = Node(kernel, "n1")
        sampler = UtilizationSampler()
        node.run_job(1.0)
        kernel.run(until=2.0)
        assert sampler.sample(node) == 0.0
        # Subsequent samples measure only the delta since the anchor.
        node.run_job(1.0)
        kernel.run(until=3.0)
        assert sampler.sample(node) == pytest.approx(1.0)

    def test_delta_semantics(self, kernel):
        node = Node(kernel, "n1")
        sampler = UtilizationSampler()
        sampler.sample(node)  # seed at t=0
        node.run_job(1.0)
        kernel.run(until=1.0)
        assert sampler.sample(node) == pytest.approx(1.0)
        kernel.run(until=2.0)
        assert sampler.sample(node) == pytest.approx(0.0)


class TestCpuProbe:
    def test_periodic_sampling_and_smoothing(self, kernel):
        nodes = make_nodes(kernel, 2)
        probe = CpuProbe(kernel, lambda: nodes, window_s=10.0, period_s=1.0)
        readings = []
        probe.subscribe(readings.append)
        probe.on_start()
        # Load node1 fully for 5 s; node2 idle -> spatial average 0.5
        # (the first sample of each node only seeds its anchor: 0.0).
        nodes[0].run_job(5.0)
        kernel.run(until=5.0)
        assert len(readings) == 5
        assert readings[0].raw == 0.0
        assert readings[-1].raw == pytest.approx(0.5, abs=0.01)
        assert readings[-1].smoothed == pytest.approx(0.4, abs=0.01)
        assert readings[-1].node_count == 2

    def test_moving_average_lags_raw(self, kernel):
        nodes = make_nodes(kernel, 1)
        probe = CpuProbe(kernel, lambda: nodes, window_s=60.0)
        readings = []
        probe.subscribe(readings.append)
        probe.on_start()
        kernel.run(until=30.0)  # idle 30 s
        nodes[0].run_job(1e9)   # saturate forever
        kernel.run(until=60.0)
        last = readings[-1]
        assert last.raw == pytest.approx(1.0)
        assert 0.4 < last.smoothed < 0.6  # half the window was idle

    def test_probe_cost_consumes_cpu(self, kernel):
        nodes = make_nodes(kernel, 1)
        probe = CpuProbe(
            kernel, lambda: nodes, window_s=10.0, probe_demand_s=0.01
        )
        probe.on_start()
        kernel.run(until=100.0)
        assert nodes[0].cpu.busy_time() == pytest.approx(1.0, rel=0.05)

    def test_down_nodes_skipped(self, kernel):
        nodes = make_nodes(kernel, 2)
        probe = CpuProbe(kernel, lambda: nodes, window_s=10.0)
        readings = []
        probe.subscribe(readings.append)
        probe.on_start()
        nodes[0].run_job(1e9)
        nodes[1].crash()
        kernel.run(until=3.0)
        assert readings[-1].node_count == 1
        assert readings[-1].raw == pytest.approx(1.0)

    def test_empty_tier_produces_no_reading(self, kernel):
        probe = CpuProbe(kernel, lambda: [], window_s=10.0)
        readings = []
        probe.subscribe(readings.append)
        probe.on_start()
        kernel.run(until=3.0)
        assert readings == []
        assert probe.samples_taken == 3

    def test_stop_halts_sampling(self, kernel):
        nodes = make_nodes(kernel, 1)
        probe = CpuProbe(kernel, lambda: nodes, window_s=10.0)
        probe.on_start()
        kernel.run(until=2.0)
        probe.on_stop()
        kernel.run(until=10.0)
        assert probe.samples_taken == 2
        assert not probe.running

    def test_dynamic_node_set_followed(self, kernel):
        nodes = make_nodes(kernel, 2)
        visible = [nodes[0]]
        probe = CpuProbe(kernel, lambda: list(visible), window_s=5.0)
        readings = []
        probe.subscribe(readings.append)
        probe.on_start()
        kernel.run(until=2.0)
        assert readings[-1].node_count == 1
        visible.append(nodes[1])
        kernel.run(until=4.0)
        assert readings[-1].node_count == 2

    def test_bad_period_rejected(self, kernel):
        with pytest.raises(ValueError):
            CpuProbe(kernel, lambda: [], window_s=10.0, period_s=0.0)


class ScriptedSampler:
    """Stands in for a probe's sampler: each node reads a given value."""

    def __init__(self, values: dict) -> None:
        self.values = values

    def sample(self, node) -> float:
        return self.values[node]


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=12))
@settings(max_examples=200, deadline=None)
def test_probe_raw_is_spatial_average_bit_for_bit(values):
    """The probe's one-pass average (below eight nodes) is
    ``spatial_average`` of the same per-node samples, to the last bit;
    an empty tier reads NaN there and the probe reports nothing."""
    kernel = SimKernel()
    nodes = make_nodes(kernel, len(values))
    probe = CpuProbe(kernel, lambda: nodes, window_s=10.0)
    probe.sampler = ScriptedSampler(dict(zip(nodes, values)))
    readings = []
    probe.subscribe(readings.append)
    probe._sample()
    expected = spatial_average(values)
    if values:
        (reading,) = readings
        assert reading.raw.hex() == expected.hex()
        assert reading.node_count == len(values)
    else:
        assert readings == [] and expected != expected


class FakeServer:
    def __init__(self, node):
        self.node = node
        self.running = True


class TestHeartbeatSensor:
    def test_detects_node_crash_once(self, kernel):
        nodes = make_nodes(kernel, 2)
        servers = [FakeServer(n) for n in nodes]
        sensor = HeartbeatSensor(kernel, lambda: servers)
        detected = []
        sensor.subscribe(detected.append)
        sensor.on_start()
        kernel.schedule(2.5, nodes[0].crash)
        kernel.run(until=10.0)
        assert detected == [servers[0]]
        assert sensor.failures_detected == 1

    def test_detects_process_death(self, kernel):
        nodes = make_nodes(kernel, 1)
        server = FakeServer(nodes[0])
        sensor = HeartbeatSensor(kernel, lambda: [server])
        detected = []
        sensor.subscribe(detected.append)
        sensor.on_start()

        def kill():
            server.running = False

        kernel.schedule(3.0, kill)
        kernel.run(until=6.0)
        assert detected == [server]

    def test_recovered_server_can_fail_again(self, kernel):
        nodes = make_nodes(kernel, 1)
        server = FakeServer(nodes[0])
        sensor = HeartbeatSensor(kernel, lambda: [server])
        detected = []
        sensor.subscribe(detected.append)
        sensor.on_start()
        kernel.schedule(1.5, lambda: setattr(server, "running", False))
        kernel.schedule(3.5, lambda: setattr(server, "running", True))
        kernel.schedule(5.5, lambda: setattr(server, "running", False))
        kernel.run(until=8.0)
        assert detected == [server, server]

    def test_pickled_copy_does_not_report_again(self, kernel):
        nodes = make_nodes(kernel, 2)
        servers = [FakeServer(n) for n in nodes]
        sensor = HeartbeatSensor(kernel, servers.copy)
        detected = []
        sensor.subscribe(detected.append)
        sensor.on_start()
        kernel.schedule(2.5, nodes[0].crash)
        kernel.run(until=5.0)
        assert detected == [servers[0]]
        kernel2, servers2, sensor2, detected2 = pickle.loads(
            pickle.dumps((kernel, servers, sensor, detected))
        )
        kernel2.run(until=10.0)
        assert detected2 == [servers2[0]]
        assert sensor2.failures_detected == 1

    def test_stop(self, kernel):
        server = FakeServer(make_nodes(kernel, 1)[0])
        sensor = HeartbeatSensor(kernel, lambda: [server])
        sensor.on_start()
        sensor.on_stop()
        server.running = False
        kernel.run(until=5.0)
        assert sensor.failures_detected == 0
