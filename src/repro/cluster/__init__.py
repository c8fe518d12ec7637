"""Simulated cluster substrate.

The paper's experiments ran on a 9-node x86/Linux cluster on a 100 Mbps LAN.
This package simulates that substrate: :class:`~repro.cluster.node.Node`
(CPU + memory + per-node filesystem), a
:class:`~repro.cluster.allocator.ClusterManager` allocating nodes from a free
pool, a :class:`~repro.cluster.installer.SoftwareInstallationService`
installing packaged software onto nodes, a simple LAN model and a failure
injector used by the self-recovery experiments.
"""
