"""Communication-pattern analyses over partitioned matrices (§3)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.partition import BlockPartition, cached_partition
from repro.sparse.matrix import COOMatrix

__all__ = [
    "RedundancyStats",
    "transfer_redundancy",
    "destination_locality",
    "rack_sharing_fraction",
    "working_set_sizes",
]


@dataclass
class RedundancyStats:
    """Useful vs redundant transfer accounting (Table 1)."""

    n_nodes: int
    useful_transfers: int          # unique (node, remote idx) pairs
    sa_transfers: int              # one per remote nonzero
    su_transfers: int              # every node gets every non-owned idx

    @property
    def sa_redundant(self) -> int:
        return self.sa_transfers - self.useful_transfers

    @property
    def su_redundant(self) -> int:
        return self.su_transfers - self.useful_transfers

    @property
    def sa_redundancy_ratio(self) -> float:
        """Redundant per useful (the 1:X of Table 1's SA row)."""
        return self.sa_redundant / max(self.useful_transfers, 1)

    @property
    def su_redundancy_ratio(self) -> float:
        return self.su_redundant / max(self.useful_transfers, 1)


def transfer_redundancy(
    matrix: COOMatrix,
    n_nodes: int,
    partition: Optional[BlockPartition] = None,
) -> RedundancyStats:
    """Count useful / SA / SU property transfers under 1D partitioning."""
    part = partition or cached_partition(matrix, n_nodes)
    traces = part.node_traces()
    useful = sum(t.unique_remote_count() for t in traces)
    sa = sum(t.remote_count() for t in traces)
    su = sum(
        int(matrix.n_cols - (part.col_starts[p + 1] - part.col_starts[p]))
        for p in range(n_nodes)
    )
    return RedundancyStats(n_nodes, useful, sa, su)


def destination_locality(
    matrix: COOMatrix,
    n_nodes: int,
    window: int = 64,
    partition: Optional[BlockPartition] = None,
) -> float:
    """Average unique destination nodes in ``window`` consecutive PRs
    (Table 4's temporal remote destination locality)."""
    if window < 1:
        raise ValueError("window must be positive")
    part = partition or cached_partition(matrix, n_nodes)
    uniq = []
    for tr in part.node_traces():
        dests = tr.remote_owners
        for s in range(0, dests.size - window, window):
            uniq.append(np.unique(dests[s:s + window]).size)
    return float(np.mean(uniq)) if uniq else 0.0


def rack_sharing_fraction(
    matrix: COOMatrix,
    n_nodes: int,
    nodes_per_rack: int = 16,
    partition: Optional[BlockPartition] = None,
) -> float:
    """Fraction of useful PRs whose property is needed by more than one
    node of the same rack (§3: ~85% on average, the motivation for
    in-switch caching).

    Counted over unique (node, remote idx) pairs — redundant transfers
    are excluded, exactly as the paper specifies.
    """
    if n_nodes % nodes_per_rack:
        raise ValueError("n_nodes must be a multiple of nodes_per_rack")
    part = partition or cached_partition(matrix, n_nodes)
    shared = 0
    total = 0
    n_racks = n_nodes // nodes_per_rack
    traces = part.node_traces()
    for rack in range(n_racks):
        members = range(rack * nodes_per_rack, (rack + 1) * nodes_per_rack)
        idx_count: Dict[int, int] = {}
        member_uniques = []
        for node in members:
            uniq = traces[node].remote_unique
            member_uniques.append(uniq)
            for idx in uniq.tolist():
                idx_count[idx] = idx_count.get(idx, 0) + 1
        for uniq in member_uniques:
            total += uniq.size
            shared += sum(1 for idx in uniq.tolist() if idx_count[idx] > 1)
    return shared / max(total, 1)


def working_set_sizes(
    matrix: COOMatrix,
    n_nodes: int,
    nodes_per_rack: int = 16,
    property_bytes: int = 64,
    partition: Optional[BlockPartition] = None,
) -> np.ndarray:
    """Per-rack remote working set in bytes — what a Property Cache
    would need to hold everything the rack ever fetches (sizes Fig 18's
    saturation point)."""
    part = partition or cached_partition(matrix, n_nodes)
    traces = part.node_traces()
    n_racks = n_nodes // nodes_per_rack
    sizes = np.zeros(n_racks)
    for rack in range(n_racks):
        members = range(rack * nodes_per_rack, (rack + 1) * nodes_per_rack)
        all_idxs = np.concatenate(
            [traces[node].remote_idxs for node in members]
        ) if members else np.zeros(0)
        sizes[rack] = np.unique(all_idxs).size * property_bytes
    return sizes
