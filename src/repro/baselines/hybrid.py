"""Hybrid SU/SA software baseline (Two-Face style, the paper's ref [11]).

The state-of-the-art distributed SpMM the paper builds its motivation
measurements on (Block et al., ASPLOS'24) is a *hybrid*: columns that
nearly every node needs are broadcast with collectives (the SU path —
bandwidth-efficient, no per-PR software cost), while the sparse
remainder moves through fine-grained sparsity-aware requests (the SA
path).  A per-column popularity threshold splits the two.

The paper evaluates this code "configured to SA-only mode" (Table 2);
this module models the full hybrid, which makes it the strongest purely
software baseline in the repository — useful to show NetSparse's
advantage is not an artifact of weak software.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import NetSparseConfig
from repro.partition import BlockPartition, cached_partition
from repro.results import CommResult

__all__ = ["HybridSplit", "choose_threshold", "fanout_histogram",
           "simulate_hybrid"]


@dataclass
class HybridSplit:
    """How a threshold splits columns between the SU and SA paths."""

    threshold: int                # column needed by > threshold nodes -> SU
    n_su_columns: int
    n_sa_columns: int             # distinct remote columns on the SA path
    su_bytes_per_node: float
    sa_prs_per_node: np.ndarray


def _column_fanout(part: BlockPartition) -> np.ndarray:
    """For each column, how many *other* nodes need it at least once.

    Counted from ``scan_remote_idxs()``, so no sharded window stays
    pinned."""
    fanout = np.zeros(part.matrix.n_cols, dtype=np.int64)
    for tr in part.node_traces():
        fanout[np.unique(tr.scan_remote_idxs())] += 1
    return fanout


def fanout_histogram(
    part: BlockPartition, fanout: Optional[np.ndarray] = None
) -> np.ndarray:
    """``hist[node, f]``: the node's distinct remote columns that ``f``
    nodes need.

    Fan-outs never change once traces are built, so the histogram is
    made once and held, read-only, on the partition (``fanout_hist``):
    every threshold's split is then a prefix sum that reads nothing.
    ``fanout`` is the :func:`_column_fanout` a caller already holds.
    """
    if part.fanout_hist is None:
        if fanout is None:
            fanout = _column_fanout(part)
        n = part.n_nodes
        hist = np.zeros((n, n), dtype=np.int64)
        for node, tr in enumerate(part.node_traces()):
            hist[node] = np.bincount(
                fanout[np.unique(tr.scan_remote_idxs())], minlength=n)
        hist.flags.writeable = False
        part.fanout_hist = hist
    return part.fanout_hist


def _split(hist: np.ndarray, threshold: int, payload: int) -> HybridSplit:
    """The split at ``threshold`` from a :func:`fanout_histogram`."""
    # A column of fan-out f is counted in f nodes' rows.
    fanouts = np.arange(1, hist.shape[1])
    columns = hist.sum(axis=0)[1:] // fanouts
    n_su = int(columns[threshold:].sum())
    return HybridSplit(
        threshold=threshold,
        n_su_columns=n_su,
        n_sa_columns=int(columns[:threshold].sum()),
        su_bytes_per_node=float(n_su) * payload,
        sa_prs_per_node=hist[:, :threshold + 1].sum(axis=1),
    )


def split_columns(
    matrix,
    n_nodes: int,
    threshold: int,
    k: int,
    config: Optional[NetSparseConfig] = None,
    partition: Optional[BlockPartition] = None,
) -> HybridSplit:
    """Split columns by fan-out: popular ones ride collectives."""
    config = config or NetSparseConfig()
    part = partition or cached_partition(matrix, n_nodes)
    return _split(fanout_histogram(part), threshold,
                  config.property_bytes(k))


def simulate_hybrid(
    matrix,
    k: int,
    config: Optional[NetSparseConfig] = None,
    threshold: Optional[int] = None,
    scale: float = 1.0,
) -> CommResult:
    """Simulate the hybrid baseline's communication.

    The SU path: every node receives the popular columns at line rate
    (the same ideal-collective assumption as SUOpt).  The SA path: the
    calibrated per-PR software cost over all cores, as in SAOpt but
    only for the unpopular remainder.  The two phases are assumed to
    overlap perfectly (optimistic, like the paper's other baselines).
    """
    config = config or NetSparseConfig()
    n = config.n_nodes
    payload = config.property_bytes(k)
    part = cached_partition(matrix, n)
    fanout = _column_fanout(part)
    hist = fanout_histogram(part, fanout)
    if threshold is None:
        threshold = choose_threshold(matrix, k, config, part)
    split = _split(hist, threshold, payload)

    su_time = split.su_bytes_per_node / config.link_bandwidth
    # The SA tail uses exactly the SAOpt machinery (per-rank dedup and
    # serve imbalance, serve-side scale rule — see DESIGN.md), with the
    # broadcast columns excluded.
    from repro.baselines.saopt import saopt_pr_counts

    su_cols = fanout > threshold
    sent_ranks, served_ranks, _ = saopt_pr_counts(
        matrix, config, exclude_cols=su_cols
    )
    pr_cost = config.sw_pr_cost(payload)
    sa_time = (sent_ranks + served_ranks * scale).max(axis=1) * pr_cost
    per_node_time = np.maximum(su_time, sa_time)

    useful = np.zeros(n)
    recv = np.zeros(n)
    for node, tr in enumerate(part.node_traces()):
        useful[node] = tr.unique_remote_count() * payload
        recv[node] = split.su_bytes_per_node + (
            split.sa_prs_per_node[node] * payload
        )
    return CommResult(
        scheme="hybrid",
        matrix_name=matrix.name,
        k=k,
        n_nodes=n,
        total_time=float(per_node_time.max()),
        per_node_time=per_node_time,
        recv_wire_bytes=recv,
        sent_wire_bytes=recv,   # symmetric under the ideal collective
        useful_payload_bytes=useful,
        link_bandwidth=config.link_bandwidth,
        n_pr_candidates=int(
            sum(t.remote_count() for t in part.node_traces())
        ),
        n_prs_issued=int(split.sa_prs_per_node.sum()),
        extras={"threshold": threshold,
                "n_su_columns": split.n_su_columns},
    )


def choose_threshold(
    matrix,
    k: int,
    config: Optional[NetSparseConfig] = None,
    partition: Optional[BlockPartition] = None,
    candidates=(1, 2, 4, 8, 16, 32, 64, 127),
) -> int:
    """Pick the fan-out threshold minimizing the hybrid's time.

    Mirrors Two-Face's offline tuning: broadcast a column when sending
    it to everyone is cheaper than serving its SA requests in software.
    """
    config = config or NetSparseConfig()
    n = config.n_nodes
    part = partition or cached_partition(matrix, n)
    payload = config.property_bytes(k)
    pr_cost = config.sw_pr_cost(payload)
    best_threshold, best_time = None, float("inf")
    for threshold in candidates:
        split = split_columns(matrix, n, threshold, k, config, part)
        su_time = split.su_bytes_per_node / config.link_bandwidth
        sa_time = float(
            (2.0 * split.sa_prs_per_node * pr_cost / config.host_cores).max()
        )
        total = max(su_time, sa_time)
        if total < best_time:
            best_time, best_threshold = total, threshold
    return best_threshold
