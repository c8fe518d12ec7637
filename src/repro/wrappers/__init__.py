"""Fractal wrappers for the legacy servers (§3.2).

"Any software managed with Jade is wrapped in a Fractal component which
interfaces its administration procedures ... all components provide the
same (uniform) management interface for the encapsulated software, and the
corresponding implementation (the wrapper) is specific to each software."

Each wrapper is the *content* of a primitive Fractal component.  The
controllers drive it through the uniform hooks (``on_start``, ``on_bind``,
``on_attribute_changed``...), and the wrapper translates those into the
proprietary world of its legacy program: writing ``httpd.conf`` or
``worker.properties``, invoking start scripts, calling C-JDBC's
administrative backend API.  Management programs never see any of that —
they see components.
"""
