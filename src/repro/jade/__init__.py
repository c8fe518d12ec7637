"""Jade: the autonomic management layer (the paper's contribution).

* :mod:`~repro.jade.deployment` — interprets ADL descriptions using the
  Cluster Manager and the Software Installation Service (§3.3);
* :mod:`~repro.jade.sensors`, :mod:`~repro.jade.reactors`,
  :mod:`~repro.jade.actuators` — the three component kinds of a control
  loop (§3.4);
* :mod:`~repro.jade.control_loop` — their component types, deployed from
  a manager's ADL like any application ("Jade administrates itself"), and
  the step that closes each deployed loop;
* :mod:`~repro.jade.self_optimization` — the managers' ADL document: the
  resizing manager evaluated in §5 (two loops: application tier and
  database tier) or the latency-SLO loop, then self-recovery;
* :mod:`~repro.jade.self_recovery` — the repair reactor of Fig. 3;
* :mod:`~repro.jade.arbitration` — policy-conflict arbitration (the §7
  future-work item, implemented as an extension);
* :mod:`~repro.jade.system` — the managed-J2EE experiment harness that the
  benchmarks and examples drive;
* :mod:`~repro.jade.three_tier` — the Figure 2 preset of that harness.
"""
