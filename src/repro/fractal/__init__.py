"""A Python implementation of the Fractal component model.

Fractal (Bruneton, Coupaye, Stefani — WCOP 2002) is the component model Jade
uses to wrap legacy software behind a uniform management interface.  This
package implements the subset the paper relies on, faithfully:

* primitive components (encapsulating an executable content object) and
  composite components (assemblies of sub-components);
* server / client interfaces with contingency (mandatory/optional) and
  cardinality (singleton/collection);
* primitive bindings between client and server interfaces, and composite
  bindings crossing node boundaries;
* the four controller kinds of §3.1: attribute, binding, content and
  life-cycle controllers (plus a name controller);
* an XML Architecture Description Language (§3.3) with a component-factory
  registry, interpreted at deployment time.
"""
