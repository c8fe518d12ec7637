#!/usr/bin/env python
"""Deploying an architecture from an ADL document (§3.3).

Shows the full deployment pipeline on a custom architecture — Figure 2's
shape: an L4 switch in front of two Apache replicas, cross-bound to two
Tomcat replicas, over C-JDBC and one MySQL — described declaratively and
interpreted by the deployment service (Cluster Manager allocates nodes, the
Software Installation Service installs packages, factories build wrapper
components, bindings fan out over replicas).

Run:  python examples/adl_deployment.py
"""

from repro.cluster.allocator import ClusterManager
from repro.cluster.installer import Package, SoftwareInstallationService
from repro.cluster.network import Lan
from repro.cluster.node import make_nodes
from repro.fractal.adl import parse_adl
from repro.fractal.introspection import architecture_report, verify_architecture
from repro.jade.deployment import DeploymentService
from repro.legacy.directory import Directory
from repro.legacy.requests import WebRequest
from repro.simulation.kernel import SimKernel
from repro.wrappers.registry import default_factory_registry

FIG2_ADL = """
<definition name="figure2-j2ee">
  <component name="mysql" type="mysql" package="mysql"/>
  <component name="cjdbc" type="cjdbc" package="cjdbc"/>
  <component name="tomcat" type="tomcat" replicas="2" package="tomcat"/>
  <component name="apache" type="apache" replicas="2" package="apache">
    <attribute name="port" value="80"/>
  </component>
  <component name="l4" type="l4switch"/>
  <binding client="cjdbc.backends" server="mysql.mysql"/>
  <binding client="tomcat.jdbc" server="cjdbc.jdbc"/>
  <binding client="apache.ajp" server="tomcat.ajp"/>
  <binding client="l4.web" server="apache.http"/>
</definition>
"""


def main() -> None:
    kernel = SimKernel()
    lan, directory = Lan(), Directory()
    cluster = ClusterManager(make_nodes(kernel, 8))
    installer = SoftwareInstallationService(kernel, lan)
    for pkg in ("mysql", "cjdbc", "tomcat", "apache"):
        installer.register(Package(pkg, "1.0", size_mb=10.0, setup_time_s=1.0))

    deployer = DeploymentService(
        kernel, default_factory_registry(), cluster, directory, installer, lan
    )
    app = deployer.deploy(parse_adl(FIG2_ADL))
    app.start()
    kernel.run()

    print("Deployed architecture:\n")
    print(architecture_report(app.root))

    # §3.2: the same components, seen from the network-topology point of
    # view (composites per node, holding *shared* references).
    from repro.fractal.views import topology_view

    print("\nTopology view (same components, grouped by node):\n")
    print(architecture_report(topology_view(app.root)))
    problems = verify_architecture(app.root)
    print(f"\nArchitecture invariants: {'OK' if not problems else problems}")
    print(f"Nodes allocated: {cluster.allocated_count}, free: {cluster.free_count}")

    # Push a dynamic request through the whole chain via the L4 switch.
    switch = app.instance("l4").content.server
    request = WebRequest(
        kernel, "ViewItem", app_demand_pre=0.012, app_demand_post=0.002,
        db_demand=0.025,
    )
    switch.handle(request)
    kernel.run()
    # The path is read off the servers that answered the request.
    path = [switch.name] + [
        inst.content.server.name
        for spec in ("apache", "tomcat", "cjdbc", "mysql")
        for inst in app.instances(spec)
        if inst.content.server.served
    ]
    print(f"\nRequest path: {' -> '.join(path)}")
    print(f"Latency: {request.latency * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
