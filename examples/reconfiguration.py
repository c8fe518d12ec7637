#!/usr/bin/env python
"""The paper's §5.1 qualitative scenario (Figure 4).

Initially Apache1 (node1) is connected to Tomcat1 (node2).  We reconfigure
the clustered middleware so Apache1 talks to a new server Tomcat2 (node3).

Without Jade this means logging on node1, stopping Apache with its shutdown
script, hand-editing ``worker.properties``, and restarting httpd.  With
Jade it is four operations on the management layer — and the wrapper
rewrites the legacy file for you.

Run:  python examples/reconfiguration.py
"""

from repro.cluster.network import Lan
from repro.cluster.node import make_nodes
from repro.legacy.directory import Directory
from repro.simulation.kernel import SimKernel
from repro.wrappers.apache import make_apache_component
from repro.wrappers.tomcat import make_tomcat_component


def show(title: str, text: str) -> None:
    print(f"\n--- {title} ---")
    print(text.rstrip())


def main() -> None:
    kernel = SimKernel()
    lan, directory = Lan(), Directory()
    node1, node2, node3 = make_nodes(kernel, 3)
    kw = dict(kernel=kernel, directory=directory, lan=lan)

    apache1 = make_apache_component("apache1", {"port": 80}, node=node1, **kw)
    tomcat1 = make_tomcat_component("tomcat1", node=node2, **kw)
    tomcat2 = make_tomcat_component("tomcat2", node=node3, **kw)

    instance = apache1.bind("ajp", tomcat1.get_interface("ajp"))
    apache1.start()
    show(
        "worker.properties on node1 (before)",
        node1.fs.read("/etc/apache/worker.properties"),
    )

    # The paper's reconfiguration program, §5.1:
    apache1.stop()                                       # Apache1.stop()
    apache1.unbind(instance)                             # unbind Apache1 from Tomcat1
    apache1.bind("ajp", tomcat2.get_interface("ajp"))    # bind Apache1 to Tomcat2
    apache1.start()                                      # restart Apache1

    show(
        "worker.properties on node1 (after 4 component operations)",
        node1.fs.read("/etc/apache/worker.properties"),
    )
    print(
        "\nThe management program never touched a config file or a shell "
        "script;\nthe Apache wrapper reflected the binding change into the "
        "legacy layer."
    )


if __name__ == "__main__":
    main()
