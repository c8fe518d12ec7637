"""repro — a reproduction of *Autonomic Management of Clustered
Applications* (Bouchenak, De Palma, Hagimont, Taton — CLUSTER 2006).

The paper's system, **Jade**, wraps legacy middleware in Fractal components
to give heterogeneous software a uniform management interface, and builds
autonomic managers (feedback control loops of sensors, reactors and
actuators) on top — demonstrated by self-optimizing a clustered J2EE
application (dynamic resizing of the Tomcat and MySQL tiers under a RUBiS
workload).

Each package's ``__init__`` is documentation only: import a name from the
module that defines it, as the quickstart does.

Package map
-----------
================================  =============================================
:mod:`repro.simulation`           discrete-event kernel, processes, CPU models
:mod:`repro.cluster`              nodes, allocator, installer, LAN, failures
:mod:`repro.fractal`              the Fractal component model + ADL
:mod:`repro.legacy`               simulated Apache/Tomcat/MySQL/C-JDBC/PLB
:mod:`repro.wrappers`             Fractal wrappers for the legacy servers
:mod:`repro.jade`                 deployment, control loops, managers, harness
:mod:`repro.workload`             RUBiS interactions, clients, ramp profiles
:mod:`repro.metrics`              time series, moving averages, collector
:mod:`repro.obs`                  typed decision trace, tracer, timeline
:mod:`repro.runner`               result cache, process-pool runner, sweeps
:mod:`repro.capacity`             forecasters, what-if engine, proactive loop
:mod:`repro.policy`               pluggable control-loop policies, autotuner
:mod:`repro.chaos`                fault models, campaigns, phi detector
:mod:`repro.deploy`               bounce strategies, canary, rollback
:mod:`repro.market`               instance catalog, spot market, fleet costs
:mod:`repro.federation`           multi-region epochs, global load balancer
================================  =============================================

Quickstart
----------
>>> from repro.jade.system import ExperimentConfig, ManagedSystem
>>> from repro.workload.profiles import ConstantProfile
>>> system = ManagedSystem(ExperimentConfig(
...     profile=ConstantProfile(80, 120.0), seed=7))
>>> collector = system.run()
>>> collector.completed_requests > 0
True
"""

__version__ = "1.0.0"
