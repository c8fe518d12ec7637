"""Three-tier experiment preset (extension).

§7: "We also intend to apply our self-optimization techniques on other use
cases to show the genericity of our approach."  This preset manages the
*full* Figure 2 architecture — an L4 switch in front of replicated Apache
web servers, cross-bound through mod_jk to a fixed pair of Tomcats, over
C-JDBC and replicated MySQL — with **two** control loops: one resizing the
web tier (a tier the paper never resized) and one resizing the database
tier.  It is an :class:`~repro.jade.system.ExperimentConfig`: the unchanged
:class:`~repro.jade.system.ManagedSystem` deploys it, reads each tier's
wiring off its ADL, and runs the generic loops over it — only the
architecture differs, which is exactly the genericity claim being
demonstrated.

The workload mixes static documents with RUBiS interactions
(``static_fraction``); static demand is set high enough that the web tier
becomes a real bottleneck under peak load (synthetic stress — on the real
testbed static pages were too cheap to ever need scaling, which is why the
paper managed only the dynamic tiers).
"""

from __future__ import annotations

from dataclasses import replace

from repro.cluster.installer import Package
from repro.jade.self_optimization import LoopConfig
from repro.jade.system import Application, ExperimentConfig
from repro.workload.calibration import DEFAULT_CALIBRATION

THREE_TIER_ADL = """
<definition name="figure2-managed">
  <component name="mysql" type="mysql" package="mysql"/>
  <component name="cjdbc" type="cjdbc" package="cjdbc"/>
  <component name="tomcat" type="tomcat" replicas="2" package="tomcat"/>
  <component name="apache" type="apache" package="apache"/>
  <component name="l4" type="l4switch"/>
  <binding client="cjdbc.backends" server="mysql.mysql"/>
  <binding client="tomcat.jdbc" server="cjdbc.jdbc"/>
  <binding client="apache.ajp" server="tomcat.ajp"/>
  <binding client="l4.web" server="apache.http"/>
</definition>
"""

#: Figure 2 with the web tier (the ``app`` loop) and MySQL managed
THREE_TIER = Application(
    THREE_TIER_ADL,
    tuple(
        Package(name, "1.0", size_mb=12.0, setup_time_s=1.5)
        for name in ("mysql", "cjdbc", "tomcat", "apache")
    ),
    (("apache", "web"), ("mysql", "database")),
)

#: synthetic three-tier calibration: 40 % static requests, expensive enough
#: that the web tier saturates under peak load
THREE_TIER_CALIBRATION = replace(
    DEFAULT_CALIBRATION, static_fraction=0.40, static_demand_s=0.030
)


def three_tier_config(**fields) -> ExperimentConfig:
    """The Figure 2 preset: ``fields`` set or override any
    :class:`~repro.jade.system.ExperimentConfig` field (``profile``,
    ``seed``, ``managed``, ``inhibition_s``...).  The web loop runs on
    :class:`LoopConfig`'s 0.80/0.35 band, the database loop on the paper's
    defaults."""
    preset = dict(
        application=THREE_TIER,
        calibration=THREE_TIER_CALIBRATION,
        pool_nodes=9,
        app_loop=LoopConfig(),
        thrashing=False,
        sample_nodes=False,
    )
    return ExperimentConfig(**{**preset, **fields})
