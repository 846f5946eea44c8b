"""The common result record of every communication-scheme simulation,
and the bit-exact JSON codec the result store keeps row metadata with.

:func:`encode_value`/:func:`decode_value` flatten numpy arrays into
typed ``{"__nd__": ...}`` nodes and rebuild them bit-identically —
Python floats round-trip exactly through ``repr`` — and :func:`dumps`
gives the canonical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

__all__ = ["CommResult", "encode_value", "decode_value", "dumps"]


@dataclass
class CommResult:
    """Outcome of simulating one kernel iteration's communication.

    All byte counts are *wire* bytes (headers included) except
    ``useful_payload_bytes``, which is the unique remote property data
    each node actually needs — the numerator of goodput.
    """

    scheme: str
    matrix_name: str
    k: int
    n_nodes: int
    total_time: float
    per_node_time: np.ndarray
    recv_wire_bytes: np.ndarray
    sent_wire_bytes: np.ndarray
    useful_payload_bytes: np.ndarray
    link_bandwidth: float

    # mechanism statistics (zero where not applicable)
    n_pr_candidates: int = 0       # remote nonzeros scanned
    n_prs_issued: int = 0
    n_filtered: int = 0
    n_coalesced: int = 0
    n_packets: int = 0             # fabric-stage packets
    cache_lookups: int = 0
    cache_hits: int = 0
    pr_gen_time: np.ndarray = field(default_factory=lambda: np.zeros(0))
    extras: Dict = field(default_factory=dict)

    # -- derived -------------------------------------------------------

    @property
    def tail_node(self) -> int:
        return int(np.argmax(self.per_node_time))

    @property
    def fc_rate(self) -> float:
        """Fraction of candidate PRs filtered or coalesced (Table 7)."""
        if self.n_pr_candidates == 0:
            return 0.0
        return (self.n_filtered + self.n_coalesced) / self.n_pr_candidates

    @property
    def avg_prs_per_packet(self) -> float:
        if self.n_packets == 0:
            return 0.0
        return self.n_prs_issued / self.n_packets

    @property
    def cache_hit_rate(self) -> float:
        if self.cache_lookups == 0:
            return 0.0
        return self.cache_hits / self.cache_lookups

    def goodput(self, node: Optional[int] = None) -> float:
        """Useful payload rate / line rate at a node (default: tail)."""
        node = self.tail_node if node is None else node
        if self.total_time == 0:
            return 0.0
        return float(
            self.useful_payload_bytes[node]
            / self.total_time
            / self.link_bandwidth
        )

    def line_utilization(self, node: Optional[int] = None) -> float:
        """Wire byte rate / line rate at a node's receive port."""
        node = self.tail_node if node is None else node
        if self.total_time == 0:
            return 0.0
        return float(
            self.recv_wire_bytes[node] / self.total_time / self.link_bandwidth
        )

    def tail_traffic_bytes(self) -> float:
        """Wire bytes into the tail node (Table 7/8 traffic comparisons)."""
        return float(self.recv_wire_bytes[self.tail_node])

    def active_nodes_over_time(self, n_points: int = 200):
        """Figure 19: number of still-communicating nodes vs time."""
        t = np.linspace(0.0, float(self.per_node_time.max()), n_points)
        active = (self.per_node_time[None, :] > t[:, None]).sum(axis=1)
        return t, active


# -- JSON codec ---------------------------------------------------------


def encode_value(obj: Any) -> Any:
    """JSON-ready deep copy of an arbitrary value.

    Numpy arrays become typed ``__nd__`` nodes, numpy scalars their
    Python equivalents, opaque extras their ``repr``.
    :func:`decode_value` inverts it bit-exactly for the array/scalar
    cases.
    """
    if isinstance(obj, np.ndarray):
        return {"__nd__": {"dtype": str(obj.dtype),
                           "shape": list(obj.shape),
                           "data": obj.ravel().tolist()}}
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): encode_value(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode_value(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    # Opaque extras (rare) degrade to their repr rather than failing
    # the whole value; they are display-only anyway.
    return {"__repr__": repr(obj)}


def decode_value(obj: Any) -> Any:
    """Invert :func:`encode_value` (rebuilds ``__nd__`` arrays)."""
    if isinstance(obj, dict):
        if "__nd__" in obj and len(obj) == 1:
            nd = obj["__nd__"]
            arr = np.array(nd["data"], dtype=np.dtype(nd["dtype"]))
            return arr.reshape(nd["shape"])
        if "__repr__" in obj and len(obj) == 1:
            return obj["__repr__"]
        return {k: decode_value(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [decode_value(v) for v in obj]
    return obj


def dumps(obj: Any) -> bytes:
    """Canonical encoding (compact separators, sorted keys)."""
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
