"""§5.1 / Figure 4 — the qualitative reconfiguration comparison.

The paper contrasts the manual legacy procedure (log on the node, stop
Apache, hand-edit ``worker.properties``, restart) with the Jade program::

    Apache1.stop(); Apache1.unbind("ajp-itf");
    Apache1.bind("ajp-itf", tomcat2-itf); Apache1.start()

This benchmark performs the Jade version for real (the wrapper rewrites the
legacy file) and measures it, and also reports the *expressed complexity*:
management operations vs legacy-level steps and config lines touched.
"""

from repro.cluster.network import Lan
from repro.cluster.node import make_nodes
from repro.legacy.directory import Directory
from repro.legacy.configfiles import WorkerProperties
from repro.simulation.kernel import SimKernel
from repro.wrappers.apache import make_apache_component
from repro.wrappers.tomcat import make_tomcat_component

from benchmarks._shared import emit


def _build():
    kernel = SimKernel()
    lan, directory = Lan(), Directory()
    n1, n2, n3 = make_nodes(kernel, 3)
    kw = dict(kernel=kernel, directory=directory, lan=lan)
    apache1 = make_apache_component("apache1", node=n1, **kw)
    tomcat1 = make_tomcat_component("tomcat1", node=n2, **kw)
    tomcat2 = make_tomcat_component("tomcat2", node=n3, **kw)
    instance = apache1.bind("ajp", tomcat1.get_interface("ajp"))
    apache1.start()
    return kernel, n1, apache1, tomcat2, instance


def _reconfigure(apache1, tomcat2, instance):
    """The paper's 4-operation reconfiguration program."""
    apache1.stop()
    apache1.unbind(instance)
    new_instance = apache1.bind("ajp", tomcat2.get_interface("ajp"))
    apache1.start()
    return new_instance


def bench_qualitative_reconfiguration(benchmark):
    def scenario():
        kernel, n1, apache1, tomcat2, instance = _build()
        _reconfigure(apache1, tomcat2, instance)
        return n1

    n1 = benchmark(scenario)
    workers = WorkerProperties.parse(n1.fs.read("/etc/apache/worker.properties"))
    legacy_lines = len(n1.fs.read("/etc/apache/worker.properties").splitlines())
    lines = [
        "Qualitative reconfiguration (Fig. 4): move apache1 from tomcat1 to tomcat2",
        "",
        "Jade program:        4 uniform component operations",
        "                     (stop, unbind, bind, start)",
        "Manual procedure:    log on node1, run the Apache shutdown script,",
        f"                     hand-edit worker.properties ({legacy_lines} "
        "legacy-specific lines),",
        "                     run the httpd start script  (per replica, per change)",
        "",
        f"resulting worker.properties points at: {workers.workers[0].host}"
        f":{workers.workers[0].port}",
    ]
    emit("qualitative_reconfig", "\n".join(lines))
    assert workers.workers[0].host == "node3"
