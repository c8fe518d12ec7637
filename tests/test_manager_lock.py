"""Behaviour lock of the Jade managers.

Each run below pins the collector digest and the kernel's dispatched,
tail-dispatched and tombstone counts, exactly:

* the latency-SLO manager under the seed-11 step load (80 -> 320
  clients), and the same run pickled mid-way and resumed;
* the CPU loops and self-recovery together (``managed=True,
  recovery=True``) through one database crash;
* the gray-failure chaos campaign, repaired through the phi detector.

A change to how a manager is assembled, started or wired that moves one
event moves one of these.
"""

from __future__ import annotations

import pickle

from repro.chaos.campaign import campaign_config, gray_campaign
from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.workload.profiles import PiecewiseProfile
from tests.conftest import collector_digest

#: run -> (collector digest, events processed, tail dispatched,
#: tombstones skipped)
LOCK = {
    "slo": (
        "09aa1a2f8181f33aebb3abd28baf09c0c53fa7f71571550d2fff5e7be8c501c7",
        440436, 318998, 1,
    ),
    "managed-recovery": (
        "95ceb6a420a097b06f63060275701887b776b34d542a91317afebe0cfd33d479",
        230117, 170786, 1,
    ),
    "chaos-phi": (
        "6c84ac993064e05c499ba5dad969634822ac39c256e90fa6b808561b351f71c4",
        31007, 24374, 1,
    ),
}


def slo_config() -> ExperimentConfig:
    profile = PiecewiseProfile([(0.0, 80), (60.0, 320)], duration_s=900.0)
    return ExperimentConfig(profile=profile, seed=11, use_slo_manager=True, tail_s=30.0)


def managed_recovery_system() -> ManagedSystem:
    """Both tiers' CPU loops and self-recovery in one run; the first
    database replica's node crashes at t=300 s, after the 300-client
    step has grown the tier."""
    profile = PiecewiseProfile([(0.0, 80), (60.0, 300)], duration_s=600.0)
    system = ManagedSystem(
        ExperimentConfig(profile=profile, seed=13, recovery=True, tail_s=30.0)
    )
    system.kernel.schedule_at(300.0, system.db_tier.replicas[0].node.crash)
    return system


def locked(system: ManagedSystem) -> tuple:
    kernel = system.kernel
    return (
        collector_digest(system.collector),
        kernel.events_processed,
        kernel.tail_dispatched,
        kernel.tombstones_skipped,
    )


def test_slo_run_is_locked():
    system = ManagedSystem(slo_config())
    system.run()
    assert system.db_tier.grows_completed >= 1
    assert locked(system) == LOCK["slo"]


def test_slo_loop_grows_the_bottleneck_tier_first():
    """The actuator looks at every tier's nodes when the loop starts, so
    its first grow compares their CPU since then and picks the database,
    not the first tier listed."""
    system = ManagedSystem(slo_config())
    system.run()
    grows = [what for _, what in system.collector.reconfigurations if "grow:" in what]
    assert grows[0].startswith("[database] ")


def test_paused_slo_run_resumes_to_the_same_digest():
    paused = ManagedSystem(slo_config())
    horizon = paused.start_all()
    paused.advance(horizon / 2)
    clone = pickle.loads(pickle.dumps(paused))
    assert collector_digest(clone.finish()) == LOCK["slo"][0]


def test_managed_recovery_run_is_locked():
    system = managed_recovery_system()
    system.run()
    assert system.recovery.failures_seen == 1
    assert system.db_tier.repairs_completed == 1
    assert locked(system) == LOCK["managed-recovery"]


def test_phi_chaos_campaign_is_locked():
    config = campaign_config(gray_campaign(), seed=1, clients=60, duration_s=420.0)
    system = ManagedSystem(config)
    system.run()
    stats = system.distill()["chaos"]
    assert [d["reason"] for d in stats.detections] == ["detector:phi"]
    assert stats.detector_suspicions == 1
    assert locked(system) == LOCK["chaos-phi"]
