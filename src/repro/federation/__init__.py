"""Sharded multi-cluster federation: N regions, one kernel each.

The paper's Jade manager supervises a single cluster; its sequels push
toward grid-scale, multi-site deployments.  This package shards the
simulation the same way a real control plane would shard the system:
each *region* is a full :class:`~repro.jade.system.ManagedSystem` — its
own kernel, RNG streams, workload, and control loops — and regions
interact **only** through typed messages exchanged at epoch barriers:

* regions advance in lockstep epochs (one adjust period by default);
* at each barrier every region flushes a
  :class:`~repro.federation.messages.RegionReport` (latency/capacity
  observed over the epoch);
* the coordinator's :class:`~repro.federation.routing.GlobalLoadBalancer`
  turns the reports into :class:`~repro.federation.messages.WeightUpdate`
  routing decisions (weights, spilled demand, evacuations), delivered
  before the next epoch.

Because a region's trajectory depends only on (its config, the inbound
messages per epoch) and routing is a pure function of the sorted
reports, serial and process-parallel execution are byte-identical per
region — the repo's parallel == serial discipline extended to
federations.  In parallel mode each region owns a persistent worker
process (one core per region), so wall-clock approaches
``max(region)`` instead of ``sum(regions)``.
"""
