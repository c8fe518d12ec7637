"""Simulated legacy middleware (the *managed* layer).

One module per legacy program of the paper's testbed:

* :mod:`~repro.legacy.apache` — Apache httpd web server (+ mod_jk routing);
* :mod:`~repro.legacy.tomcat` — Jakarta Tomcat servlet container;
* :mod:`~repro.legacy.mysql` — MySQL database server (full mirror replica);
* :mod:`~repro.legacy.cjdbc` — C-JDBC database load balancer / replication
  consistency manager, extended with the paper's **recovery log** (§4.1);
* :mod:`~repro.legacy.plb` — PLB, the application-server load balancer;
* :mod:`~repro.legacy.l4switch` — L4 switch in front of the web tier.

Each program is configured through proprietary-style config files
(:mod:`~repro.legacy.configfiles`) stored on its node's filesystem, resolves
its peers through host:port endpoints (:mod:`~repro.legacy.directory`), and
consumes CPU on its node for every request.  None of them knows anything
about Jade — the management layer only touches them through wrappers, as in
the paper.
"""
