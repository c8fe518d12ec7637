"""Continuation equivalence: a system paused at any instant — a grow, a
recovery-log replay, a bounce, a canary window or a rolling restart in
flight — holds no generator and no closure, pickles, and the copy ends
with the uninterrupted run's outputs."""

from __future__ import annotations

import gc
import pickle
import types

import pytest

from repro.capacity.proactive import ProactiveConfig
from repro.cluster.node import Node
from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.legacy.cjdbc import BackendState, CJdbcController
from repro.legacy.mysql import MySqlServer
from repro.legacy.plb import PlbBalancer
from repro.legacy.server import LegacyServer
from repro.legacy.tomcat import TomcatServer
from repro.market.scenario import PRESETS as MARKET_PRESETS
from repro.market.scenario import market_config
from repro.simulation.resources import PsCpu
from repro.workload.profiles import RampProfile
from tests.conftest import collector_digest
from tests.test_deploy_lock import LOCK, build, observed


def reachable(root):
    """Every object reachable from ``root`` through ``gc.get_referents``
    (modules and classes are not entered: they pickle by name; nor are
    functions and generators)."""
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if not isinstance(
            obj, (types.GeneratorType, types.FunctionType, types.ModuleType, type)
        ):
            stack.extend(gc.get_referents(obj))


def unpicklable_callables(root) -> list[str]:
    """Every generator, and every lambda or nested function defined in
    ``repro``, reachable from ``root``."""
    found = []
    for obj in reachable(root):
        if isinstance(obj, types.GeneratorType):
            found.append(obj.__qualname__)
        elif isinstance(obj, types.FunctionType):
            name = obj.__qualname__
            if obj.__module__.startswith("repro") and (
                "<locals>" in name or "<lambda>" in name
            ):
                found.append(f"{obj.__module__}.{name}")
    return found


def resumed_copy(system: ManagedSystem, until: float) -> ManagedSystem:
    """Pickle ``system`` at its pause and run the copy to ``until``."""
    assert unpicklable_callables(system) == []
    copy = pickle.loads(pickle.dumps(system))
    copy.advance(until)
    return copy


def test_walk_finds_generators_and_closures():
    def gen():
        yield

    def make():
        return lambda: None

    closure = make()
    closure.__module__ = "repro.example"
    found = unpicklable_callables([gen(), closure, make])
    assert sorted(found) == [
        "repro.example.test_walk_finds_generators_and_closures.<locals>"
        ".make.<locals>.<lambda>",
        "test_walk_finds_generators_and_closures.<locals>.gen",
    ]


# ----------------------------------------------------------------------
# The managed ramp: a grow and a C-JDBC replay in flight
# ----------------------------------------------------------------------
def _ramp(**overrides) -> ManagedSystem:
    scale = 0.1
    profile = RampProfile(
        warmup_s=300.0 * scale,
        step_period_s=60.0 * scale,
        cooldown_s=300.0 * scale,
    )
    return ManagedSystem(ExperimentConfig(profile=profile, seed=1, **overrides))


@pytest.fixture(scope="module")
def ramp_reference() -> str:
    return collector_digest(_ramp().run())


@pytest.mark.parametrize("pause", [106.0, 115.0], ids=["mid-grow", "mid-sync"])
def test_ramp_resumes_mid_reconfiguration(ramp_reference, pause):
    system = _ramp()
    horizon = system.start_all()
    system.advance(pause)
    assert system.db_tier.busy
    states = [b.state for b in system.cjdbc.content.controller.backends()]
    assert (BackendState.SYNCING in states) == (pause == 115.0)
    copy = resumed_copy(system, horizon)
    assert collector_digest(copy.finish()) == ramp_reference


def _instances(root, classes) -> list:
    return [obj for obj in reachable(root) if isinstance(obj, classes)]


#: the hop targets each server binds once, in ``__init__``
HOP_METHODS = {
    PlbBalancer: ("handle", "_forward", "_proxy_aborted"),
    TomcatServer: (
        "handle", "_query_db", "_respond", "_finish",
        "_servlet_aborted", "_db_failed", "_response_aborted",
    ),
    CJdbcController: (
        "_route_read", "_route_write", "_fail", "_answered", "_unanswered",
    ),
    MySqlServer: ("execute_read", "_read_done", "_read_failed"),
}


def test_bound_continuations_rebind_to_the_copy(ramp_reference):
    system = _ramp()
    horizon = system.start_all()
    system.advance(106.0)
    copy = pickle.loads(pickle.dumps(system))
    originals = {id(o) for o in _instances(system, (PsCpu, Node, LegacyServer))}
    cpus = _instances(copy, PsCpu)
    nodes = _instances(copy, Node)
    servers = _instances(copy, LegacyServer)
    assert cpus and nodes
    assert not originals & {id(o) for o in cpus + nodes + servers}
    for cpu in cpus:
        assert cpu._wake.__self__ is cpu
    for node in nodes:
        owner = node.cpu if node.up and not node.isolated else node
        assert node.submit.__self__ is owner
    assert {type(server) for server in servers} >= set(HOP_METHODS)
    for server in servers:
        for name in HOP_METHODS.get(type(server), ()):
            bound = vars(server)[name]
            assert bound.__self__ is server, (server.name, name)
            assert bound.__func__ is getattr(type(server), name)
    copy.advance(horizon)
    assert collector_digest(copy.finish()) == ramp_reference


def test_copy_pickled_inside_a_kernel_callback_runs(ramp_reference):
    # The proactive manager checkpoints from its planning tick: the copy
    # of a kernel caught inside run() must run, and the parent's run
    # must carry on untouched.
    system = _ramp()
    horizon = system.start_all()
    taken = []

    def checkpoint() -> None:
        taken.append((system.kernel._running, pickle.dumps(system)))

    system.kernel.schedule_at(106.0, checkpoint)
    system.advance(110.0)
    assert not system.kernel._running
    running_in_parent, blob = taken[0]
    assert running_in_parent
    copy = pickle.loads(blob)
    assert copy.kernel.now == 106.0
    copy.advance(horizon)
    assert collector_digest(copy.finish()) == ramp_reference


def test_proactive_ramp_resumes():
    def build_proactive():
        return _ramp(
            proactive=True, proactive_config=ProactiveConfig(use_whatif=False)
        )

    reference = collector_digest(build_proactive().run())
    system = build_proactive()
    horizon = system.start_all()
    system.advance(115.0)
    copy = resumed_copy(system, horizon)
    assert collector_digest(copy.finish()) == reference


def test_market_ramp_resumes():
    def build_market():
        return ManagedSystem(
            market_config(MARKET_PRESETS["spot-heavy"](), scale=0.1)
        )

    reference = collector_digest(build_market().run())
    system = build_market()
    horizon = system.start_all()
    system.advance(horizon / 2)
    copy = resumed_copy(system, horizon)
    assert collector_digest(copy.finish()) == reference


# ----------------------------------------------------------------------
# Deployments: a canary window, a rolling restart or a grow in flight
# ----------------------------------------------------------------------
def _window_open(system) -> bool:
    return any(
        record.component.content.server.request_observer is not None
        for record in system.app_tier.replicas
    )


def _restarting(system) -> bool:
    deploy = system.deploy
    return deploy.serving_replicas() < len(system.app_tier.replicas)


def _growing(system) -> bool:
    return system.app_tier.busy


def _retrying(system) -> bool:
    # A versioned grow refused for want of a node, polled each second.
    return system.app_tier.current_version is not None and not _growing(system)


#: (run in the deploy lock, pause instant, what is in flight there)
DEPLOY_PAUSES = [
    ("clean-push", 182.0, _restarting),
    ("clean-push", 223.5, _window_open),
    ("clean-push", 250.0, _growing),
    ("bad-push", 182.0, _restarting),
    ("bad-push", 223.5, _window_open),
    ("bad-push", 248.0, _restarting),
    ("clean-bounce", 184.0, _growing),
    ("flash-crowd", 184.0, _growing),
    ("crash-mid-bounce", 187.5, _restarting),
    ("clean-bounce/brutal", 182.0, _restarting),
    ("clean-bounce/downthenup", 187.5, _restarting),
    ("clean-bounce/upthendown", 190.0, _growing),
    ("clean-bounce@6", 240.0, _retrying),
]


@pytest.mark.parametrize(
    "run,pause,in_flight",
    DEPLOY_PAUSES,
    ids=[f"{run}-at-{pause:g}" for run, pause, _ in DEPLOY_PAUSES],
)
def test_deploy_resumes_mid_operation(run, pause, in_flight):
    system = build(run)
    horizon = system.start_all()
    system.advance(pause)
    assert in_flight(system)
    copy = resumed_copy(system, horizon)
    assert observed(copy, copy.finish()) == LOCK[run]
