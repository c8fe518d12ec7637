"""Closed-loop client emulator.

Reproduces RUBiS's benchmarking tool: each emulated client alternates
between an exponential *think time* and one web interaction, waiting for
the response before thinking again (closed loop).  A population controller
activates/deactivates clients to follow the configured
:class:`~repro.workload.profiles.WorkloadProfile`.

Closed-loop behaviour is essential to the reproduction: it is what couples
response time back into offered load (throughput saturates instead of the
system melting instantly), which shapes Figures 8 and 9.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.legacy.requests import WebRequest
from repro.metrics.collector import MetricsCollector
from repro.simulation.kernel import PeriodicTask, SimKernel
from repro.simulation.rng import RngStreams
from repro.workload.calibration import Calibration, DEFAULT_CALIBRATION
from repro.workload.cohort import ClientCohort
from repro.workload.profiles import WorkloadProfile
from repro.workload.rubis import MixNavigator, RubisModel

EntryPoint = Callable[[WebRequest], None]


class ClientEmulator:
    """Drives a population of emulated clients against an entry point.

    ``entry`` is any callable accepting a :class:`WebRequest` — typically
    the ``handle`` method of the front load balancer.
    """

    #: key of :meth:`distill`'s stats in ``CompletedRun.extensions``
    name = "workload"

    def __init__(
        self,
        kernel: SimKernel,
        entry: EntryPoint,
        profile: WorkloadProfile,
        collector: MetricsCollector,
        streams: RngStreams,
        calibration: Calibration = DEFAULT_CALIBRATION,
        navigator_factory: Optional[Callable[[int], object]] = None,
        adjust_period_s: float = 1.0,
        request_timeout_s: Optional[float] = None,
        cohort: int = 1,
    ) -> None:
        self.kernel = kernel
        self.entry = entry
        self.profile = profile
        self.collector = collector
        self.streams = streams
        self.cal = calibration
        self.model = RubisModel(
            kernel, calibration, streams.get("rubis-demands"), unit_weight=cohort == 1
        )
        self._navigator_factory = navigator_factory or self._mix_navigator
        self.adjust_period_s = adjust_period_s
        #: when set, a browser gives up on a request after this many
        #: seconds (abandonment); the request is recorded as failed.  None
        #: reproduces the paper's patient emulator (Figure 8 shows waits of
        #: hundreds of seconds, so RUBiS clients clearly did not abandon).
        self.request_timeout_s = request_timeout_s
        if cohort < 1:
            raise ValueError("cohort must be >= 1")
        #: aggregate this many identical clients into one batched event
        #: stream (see :mod:`repro.workload.cohort`); 1 = per-client
        self.cohort = cohort
        self.abandoned = 0
        #: the active cohorts, in spawn order (a deactivated cohort is
        #: dropped at once: it finishes its request on its own)
        self._clients: list[ClientCohort] = []
        #: summed weight of the active cohorts (kept wherever ``active``
        #: flips, so reading it does not walk every cohort ever spawned)
        self._active_weight = 0
        self._next_client_id = 0
        self._task: Optional[PeriodicTask] = None
        self.requests_issued = 0

    # ------------------------------------------------------------------
    @property
    def active_clients(self) -> int:
        """Simulated browsers currently active (sum of cohort weights)."""
        return self._active_weight

    def start(self) -> None:
        """Spawn the initial population and the profile follower."""
        self._adjust()
        self._task = self.kernel.every(self.adjust_period_s, self._adjust)

    def stop(self) -> None:
        """Deactivate everything (clients finish their current request)."""
        if self._task is not None:
            self._task.cancel()
            self._task = None
        self._release_all()

    def _release_all(self) -> None:
        """Deactivate and drop every cohort."""
        for client in self._clients:
            client.active = False
        self._clients = []
        self._active_weight = 0

    def distill(self) -> None:
        """Distilled engine stats (none for the discrete emulator)."""
        return None

    def _mix_navigator(self, client_id: int) -> MixNavigator:
        """The default navigator: the stationary mix on the client's own
        stream."""
        return MixNavigator(self.streams.fresh(f"client-nav-{client_id}"))

    # ------------------------------------------------------------------
    def _adjust(self) -> None:
        target = self.profile.clients_at(self.kernel.now)
        current = self.active_clients
        if target > current:
            deficit = target - current
            while deficit > 0:
                # Full-size cohorts plus one remainder cohort, so the
                # active population tracks the profile exactly on the way
                # up regardless of the cohort size.
                weight = min(self.cohort, deficit)
                self._spawn_client(weight)
                deficit -= weight
        elif target < current:
            # Deactivate the most recently started cohorts first.  A
            # cohort deactivates whole, so the population may undershoot
            # by at most ``cohort - 1`` until the next adjustment.
            to_stop = current - target
            clients = self._clients
            while to_stop > 0 and clients:
                client = clients.pop()
                client.active = False
                self._active_weight -= client.weight
                to_stop -= client.weight
        self.collector.record_workload(self.kernel.now, self.active_clients)

    def _spawn_client(self, weight: int = 1) -> None:
        cid = self._next_client_id
        self._next_client_id += 1
        client = ClientCohort(cid, weight)
        self._clients.append(client)
        self._active_weight += weight
        client.start(self)
