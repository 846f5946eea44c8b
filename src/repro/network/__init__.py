"""Cluster network substrate.

:mod:`repro.network.topology` — leaf-spine, HyperX and Dragonfly
topologies with deterministic routing, the Table 5 latency constants
and per-link load accounting (``flow_loads``, which the cluster model's
stage-4 timing reads).  The packet-level DES of these fabrics is
:mod:`repro.dessim`.
"""

from repro.network.topology import Dragonfly, HyperX, LeafSpine, Topology

__all__ = [
    "Dragonfly",
    "HyperX",
    "LeafSpine",
    "Topology",
]
