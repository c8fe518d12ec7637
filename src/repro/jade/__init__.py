"""Jade: the autonomic management layer (the paper's contribution).

* :mod:`~repro.jade.deployment` — interprets ADL descriptions using the
  Cluster Manager and the Software Installation Service (§3.3);
* :mod:`~repro.jade.sensors`, :mod:`~repro.jade.reactors`,
  :mod:`~repro.jade.actuators` — the three component kinds of a control
  loop (§3.4);
* :mod:`~repro.jade.control_loop` — assembles them into Fractal composite
  components ("Jade administrates itself");
* :mod:`~repro.jade.self_optimization` — the resizing manager evaluated in
  §5 (two loops: application tier and database tier);
* :mod:`~repro.jade.self_recovery` — the repair manager of Fig. 3;
* :mod:`~repro.jade.arbitration` — policy-conflict arbitration (the §7
  future-work item, implemented as an extension);
* :mod:`~repro.jade.system` — the managed-J2EE experiment harness that the
  benchmarks and examples drive.
"""

from repro.jade.actuators import TierManager
from repro.jade.arbitration import ArbitrationManager, Operation
from repro.jade.control_loop import ControlLoop, InhibitionLock
from repro.jade.deployment import DeploymentService
from repro.jade.latency_optimization import LatencyOptimizationManager, SloReactor
from repro.jade.manager_adl import (
    SELF_OPTIMIZATION_ADL,
    finalize_manager,
    management_factory_registry,
)
from repro.jade.reactors import PolicyReactor
from repro.jade.rolling import RollingRebind, rolling_rebind
from repro.jade.self_optimization import SelfOptimizationManager
from repro.jade.self_recovery import SelfRecoveryManager
from repro.jade.sensors import (
    CpuProbe,
    CpuReading,
    HeartbeatSensor,
    LatencyReading,
    LatencySensor,
    UtilizationSampler,
)
from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.jade.three_tier import ThreeTierSystem

__all__ = [
    "ArbitrationManager",
    "ControlLoop",
    "CpuProbe",
    "CpuReading",
    "DeploymentService",
    "ExperimentConfig",
    "HeartbeatSensor",
    "InhibitionLock",
    "LatencyOptimizationManager",
    "LatencyReading",
    "LatencySensor",
    "ManagedSystem",
    "Operation",
    "PolicyReactor",
    "RollingRebind",
    "SELF_OPTIMIZATION_ADL",
    "SelfOptimizationManager",
    "SelfRecoveryManager",
    "SloReactor",
    "ThreeTierSystem",
    "TierManager",
    "UtilizationSampler",
    "finalize_manager",
    "management_factory_registry",
    "rolling_rebind",
]
