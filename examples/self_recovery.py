#!/usr/bin/env python
"""Self-recovery: crash a database replica under load and watch Jade repair
it (Fig. 3's second autonomic manager; repair algorithm after the authors'
SRDS 2005 paper).

The repaired replica is synchronized from the C-JDBC recovery log before it
is re-enabled, so its state digest matches the survivor exactly.

Run:  python examples/self_recovery.py
"""

from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.workload.profiles import ConstantProfile


def main() -> None:
    config = ExperimentConfig(
        profile=ConstantProfile(clients=120, duration_s=900.0),
        seed=7,
        managed=False,   # isolate the recovery manager
        recovery=True,
    )
    system = ManagedSystem(config)
    kernel = system.kernel

    # Two DB replicas so the service survives the crash.
    system.db_tier.grow()
    kernel.run(until=60.0)
    print("Initial DB tier:", [r.component.name for r in system.db_tier.replicas])

    victim = system.db_tier.replicas[-1]
    print(f"Scheduling crash of {victim.node.name} (hosting "
          f"{victim.component.name}) at t=300 s")
    kernel.schedule_at(300.0, victim.node.crash)

    collector = system.run()

    print("\nRecovery timeline:")
    for t, desc in collector.reconfigurations:
        print(f"  t={t:7.1f}s  {desc}")

    controller = system.cjdbc.content.controller
    backends = controller.enabled_backends()
    digests = {b.server.state_digest for b in backends}
    print(f"\nEnabled backends after repair: {[b.name for b in backends]}")
    print(f"State digests identical: {len(digests) == 1}")
    print(
        f"Recovery-log entries replayed onto the replacement: "
        f"{sum(b.server.replays_applied for b in backends)}"
    )
    print(
        f"Requests: {collector.completed_requests} completed, "
        f"{collector.failed_requests} failed during the outage window"
    )


if __name__ == "__main__":
    main()
