"""RUBiS-like workload model.

The paper evaluates with RUBiS, "a J2EE application benchmark based on
servlets, which implements an auction site modeled over eBay.  It defines
26 web interactions ... RUBiS also provides a benchmarking tool that
emulates web client behaviors and generates a tunable workload" (§5.2).

This package reproduces that: the 26 interactions with a browse/bid
transition structure (:mod:`~repro.workload.rubis`), service-demand
calibration matching the paper's operating points
(:mod:`~repro.workload.calibration`), closed-loop emulated clients with
exponential think times (:mod:`~repro.workload.clients`) and the
80→500→80 ramp profile (:mod:`~repro.workload.profiles`).
"""
