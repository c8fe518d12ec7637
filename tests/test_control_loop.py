"""Tests for control-loop assembly: the managers really are components."""

import pytest

from repro.fractal.introspection import (
    architecture_report,
    iter_components,
    verify_architecture,
)
from repro.cluster.node import make_nodes
from tests.conftest import deploy_loop


class FakeTier:
    def __init__(self, nodes):
        self._nodes = nodes
        self.replica_count = 1
        self.calls = []
        self.on_reconfigured = []

    def active_nodes(self):
        return self._nodes

    def nodes(self):
        return self._nodes

    def grow(self):
        self.calls.append("grow")
        self.replica_count += 1
        for cb in self.on_reconfigured:
            cb()
        return True

    def shrink(self):
        self.calls.append("shrink")
        self.replica_count -= 1
        return True


@pytest.fixture
def loop(kernel):
    nodes = make_nodes(kernel, 1)
    tier = FakeTier(nodes)
    loop = deploy_loop(
        kernel, tier, "loop-test", window_s=5.0, fresh_samples=3, inhibition_s=10.0
    )
    return loop, tier, nodes


class TestAssembly:
    def test_composite_structure(self, loop):
        control_loop, tier, _ = loop
        names = [c.name for c in iter_components(control_loop.composite)]
        assert names == [
            "loop-test",
            "loop-test-sensor",
            "loop-test-reactor",
            "loop-test-actuator",
        ]
        assert verify_architecture(control_loop.composite) == []

    def test_bindings_visible_in_report(self, loop):
        control_loop, *_ = loop
        report = architecture_report(control_loop.composite)
        assert "notify -> loop-test-reactor.readings" in report
        assert "actuate -> loop-test-actuator.resize" in report

    def test_loop_closes_through_components(self, loop, kernel):
        """Saturate the node: the decision must flow sensor -> reactor ->
        actuator entirely through component interfaces."""
        control_loop, tier, nodes = loop
        control_loop.start()
        nodes[0].run_job(1e9)
        kernel.run(until=10.0)
        assert "grow" in tier.calls

    def test_stopped_loop_is_inert(self, loop, kernel):
        control_loop, tier, nodes = loop
        control_loop.start()
        control_loop.stop()
        nodes[0].run_job(1e9)
        kernel.run(until=10.0)
        assert tier.calls == []
        assert not control_loop.running

    def test_reconfiguration_resets_probe_window(self, loop, kernel):
        control_loop, tier, nodes = loop
        control_loop.start()
        nodes[0].run_job(1e9)
        kernel.run(until=10.0)
        assert tier.calls == ["grow"]
        # grow() fired on_reconfigured -> the window must have been reset
        # and refilled with at most the samples taken since.
        assert control_loop.probe.window.sample_count <= 10

    def test_actuation_through_interface_invocation(self, loop):
        control_loop, tier, _ = loop
        # The reactor's tier handle is the adapter, not the raw tier.
        assert control_loop.reactor.tier is not tier
        assert control_loop.reactor.tier.replica_count == tier.replica_count
        control_loop.reactor.tier.grow()
        assert tier.calls == ["grow"]
