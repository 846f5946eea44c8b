"""Packet-level DES simulation of a NetSparse cluster.

This subpackage is the reproduction's analogue of the paper's
SST/Merlin simulation: an event-driven, packet-granular model of a
leaf-spine cluster where every node carries DES RIG Units
(:mod:`repro.core.rig`), NIC concatenators, and every ToR switch runs
middle-pipe Property Caches with (de)concatenators — all connected by
bandwidth/latency links with bounded queues and backpressure.

It is used at small node counts to *validate* the vectorized trace
model (:mod:`repro.cluster.model`): both must agree on delivered
properties, filter/coalesce effectiveness, cache behaviour and traffic
ordering (see ``tests/test_dessim.py`` and the ``des_validation``
experiment).

Topology modelled::

    host NIC  <->  ToR (cache + concat)  <->  spines  <->  ToR  <->  host NIC
"""

from repro.dessim.cluster import DesCluster, DesResult, run_des_gather

__all__ = ["DesCluster", "DesResult", "run_des_gather"]
