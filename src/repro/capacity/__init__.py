"""Predictive capacity planning (extension).

The paper's self-sizing manager is purely *reactive*: the tiers resize
only after the smoothed CPU has already crossed a threshold, so every load
ramp pays the full allocate+install+sync latency before new capacity
arrives (the latency spikes around the reconfigurations of Fig. 9).  This
package adds the predictive layer a production autoscaler grows into:

* :mod:`repro.capacity.forecast` — pluggable load predictors over metric
  series (EWMA, linear trend, seasonal), fed from the existing sensors;
* :mod:`repro.capacity.snapshot` — a point-in-time capture of the managed
  system's state, the input to a what-if fork;
* :mod:`repro.capacity.whatif` — the sim-fork engine: replay a forecast
  horizon under N candidate replica configurations on deterministic branch
  simulations, without touching the parent run;
* :mod:`repro.capacity.cost` — node-hours, reconfiguration and
  SLO-violation costs used to score candidate outcomes;
* :mod:`repro.capacity.proactive` — the
  :class:`~repro.capacity.proactive.ProactiveManager` control loop that
  proposes grow/shrink *ahead* of predicted threshold crossings,
  routed through the same inhibition/arbitration machinery as the
  reactive loops.
"""
