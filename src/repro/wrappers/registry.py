"""Default component-factory registry.

Maps the ADL type names used by the J2EE architecture descriptions to the
wrapper factories of this package.  The deployment service resolves types
through this registry (new legacy software = write a wrapper + register a
factory, nothing else changes — the paper's extensibility argument).

The Apache and L4-switch factories are resolved on first use: the
managed RUBiS deployment has neither, so its runs never load those
wrappers or their servers.  The L4 switch is a network device, not
software installed on a cluster machine, so it is registered unplaced
and takes no node.
"""

from __future__ import annotations

from functools import partial
from importlib import import_module
from typing import Any

from repro.fractal.adl import ComponentFactoryRegistry
from repro.fractal.component import Component
from repro.wrappers.cjdbc import make_cjdbc_component
from repro.wrappers.mysql import make_mysql_component
from repro.wrappers.plb import make_plb_component
from repro.wrappers.tomcat import make_tomcat_component


def _deferred(
    module: str, factory: str, name: str, attributes: dict[str, Any], **context: Any
) -> Component:
    """Call ``module.factory``, importing the module on the first call."""
    return getattr(import_module(module), factory)(name, attributes, **context)


def default_factory_registry() -> ComponentFactoryRegistry:
    """Registry with every wrapper of the J2EE testbed registered."""
    registry = ComponentFactoryRegistry()
    registry.register(
        "apache",
        partial(_deferred, "repro.wrappers.apache", "make_apache_component"),
    )
    registry.register("tomcat", make_tomcat_component)
    registry.register("mysql", make_mysql_component)
    registry.register("cjdbc", make_cjdbc_component)
    registry.register("plb", make_plb_component)
    registry.register(
        "l4switch",
        partial(_deferred, "repro.wrappers.l4switch", "make_l4switch_component"),
        placed=False,
    )
    return registry
