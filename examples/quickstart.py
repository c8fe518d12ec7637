#!/usr/bin/env python
"""Quickstart: deploy the RUBiS J2EE cluster, run a medium workload under
Jade management, and print the headline numbers.

Run:  python examples/quickstart.py
"""

from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.fractal.introspection import architecture_report
from repro.workload.profiles import ConstantProfile


def main() -> None:
    config = ExperimentConfig(
        profile=ConstantProfile(clients=80, duration_s=300.0),
        seed=7,
        managed=True,       # self-optimization manager active
    )
    system = ManagedSystem(config)

    print("Deployed architecture (the management layer's view):\n")
    print(architecture_report(system.app.root))

    print("\nRunning 300 s at 80 emulated clients...")
    collector = system.run()

    summary = system.summary()
    print("\nResults:")
    print(f"  completed requests : {summary['completed']:.0f}")
    print(f"  throughput         : {summary['throughput_rps']:.1f} req/s")
    print(f"  mean response time : {summary['latency_mean_ms']:.0f} ms")
    print(f"  p95 response time  : {summary['latency_p95_ms']:.0f} ms")
    print(f"  mean node CPU      : {summary['node_cpu_mean'] * 100:.1f} %")
    print(f"  mean node memory   : {summary['node_mem_mean'] * 100:.1f} %")
    print(
        f"  replicas           : app x{int(summary['app_replicas_max'])}, "
        f"db x{int(summary['db_replicas_max'])}"
    )
    print(
        "\nAt this medium load the control loops stay quiet "
        f"(reconfigurations: {len(collector.reconfigurations)}) — "
        "exactly Table 1's operating point."
    )


if __name__ == "__main__":
    main()
