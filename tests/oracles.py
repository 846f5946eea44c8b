"""Reference implementations kept only as test oracles.

Each is the original, per-element form of a hot-path kernel the
library now runs in vectorized form alone.  The golden suites
(``test_fast_kernels.py``, ``test_reusedist.py``, ``test_cluster_model.py``)
pin the library kernels against them bit for bit:

- :func:`_window_concat_reference` — :func:`repro.core.concat.window_concat`;
- :func:`_rig_generation_time_reference` —
  :func:`repro.core.rig.rig_generation_time`;
- :class:`DelayedInsertCache` (driving a :class:`PropertyCache`) —
  :func:`repro.core.pcache_fast.delayed_cache_hits` and the
  reuse-distance profiles of :mod:`repro.core.reusedist`;
- :func:`_saopt_pr_counts_reference` —
  :func:`repro.baselines.saopt.saopt_pr_counts`.
"""

from collections import deque
from typing import Dict

import numpy as np

from repro.core.concat import ConcatStats
from repro.core.pcache import PropertyCache
from repro.partition import cached_partition


def _window_concat_reference(
    dests: np.ndarray, max_prs_per_packet: int, window_prs: int
) -> ConcatStats:
    """Original window model with the per-destination reduction loop."""
    dests = np.asarray(dests, dtype=np.int64)
    n = dests.size
    window_id = np.arange(n, dtype=np.int64) // window_prs
    key = window_id * (dests.max() + 1) + dests
    uniq_keys, counts = np.unique(key, return_counts=True)
    group_dest = uniq_keys % (dests.max() + 1)

    full, rem = np.divmod(counts, max_prs_per_packet)
    packets_per_group = full + (rem > 0)
    if max_prs_per_packet == 1:
        solo_per_group = counts
    else:
        solo_per_group = (rem == 1).astype(np.int64)

    per_dest_prs: Dict[int, int] = {}
    per_dest_packets: Dict[int, int] = {}
    per_dest_solo: Dict[int, int] = {}
    for d in np.unique(group_dest):
        sel = group_dest == d
        per_dest_prs[int(d)] = int(counts[sel].sum())
        per_dest_packets[int(d)] = int(packets_per_group[sel].sum())
        per_dest_solo[int(d)] = int(solo_per_group[sel].sum())

    return ConcatStats(
        n_prs=n,
        n_packets=int(packets_per_group.sum()),
        n_solo_packets=int(solo_per_group.sum()),
        per_dest_prs=per_dest_prs,
        per_dest_packets=per_dest_packets,
        per_dest_solo=per_dest_solo,
    )


def _rig_generation_time_reference(
    n_idxs: int,
    n_units: int,
    batch_size: int,
    freq: float,
    cmd_overhead: float,
    policy: str,
) -> float:
    """The original per-batch scheduling loop (``n_idxs > 0``)."""
    n_batches = -(-n_idxs // batch_size)
    sizes = np.full(n_batches, batch_size, dtype=np.int64)
    sizes[-1] = n_idxs - batch_size * (n_batches - 1)
    unit_free = np.zeros(n_units)
    for b in range(n_batches):
        issue_time = (b + 1) * cmd_overhead
        u = (
            int(np.argmin(unit_free))
            if policy == "least_loaded"
            else b % n_units
        )
        start = max(issue_time, unit_free[u])
        unit_free[u] = start + sizes[b] / freq
    return float(unit_free.max())


def _saopt_pr_counts_reference(matrix, config, exclude_cols=None):
    """The original per-rank loop: one ``np.unique`` per rank chunk."""
    n, cores = config.n_nodes, config.host_cores
    part = cached_partition(matrix, n)
    sent = np.zeros((n, cores), dtype=np.int64)
    served = np.zeros((n, cores), dtype=np.int64)
    own_cols = np.diff(part.col_starts)
    for node, tr in enumerate(part.node_traces()):
        idxs = tr.remote_idxs
        owners = tr.remote_owners
        if exclude_cols is not None and idxs.size:
            keep = ~exclude_cols[idxs]
            idxs, owners = idxs[keep], owners[keep]
        if idxs.size == 0:
            continue
        chunk_edges = np.linspace(0, idxs.size, cores + 1, dtype=np.int64)
        for c in range(cores):
            lo, hi = chunk_edges[c], chunk_edges[c + 1]
            if hi <= lo:
                continue
            uniq_idx, first = np.unique(idxs[lo:hi], return_index=True)
            sent[node, c] = uniq_idx.size
            owners_u = owners[lo:hi][first]
            offset = uniq_idx - part.col_starts[owners_u]
            rank_span = np.maximum(own_cols[owners_u] // cores, 1)
            serve_rank = np.minimum(offset // rank_span, cores - 1)
            np.add.at(served, (owners_u, serve_rank), 1)
    return sent, served


class DelayedInsertCache:
    """Property Cache front-end with in-flight response modelling.

    A read that misses triggers an insert only ``delay`` stream
    positions later (its response's return).  Duplicate in-flight
    misses both travel (the switch has no MSHR-style coalescing).
    """

    def __init__(self, cache: PropertyCache, delay: int):
        self.cache = cache
        self.delay = max(int(delay), 0)
        self._pending: deque = deque()

    def process(self, idxs: np.ndarray) -> np.ndarray:
        hits = np.zeros(idxs.size, dtype=bool)
        pending = self._pending
        cache = self.cache
        for i, idx in enumerate(idxs.tolist()):
            while pending and pending[0][0] <= i:
                cache.insert(pending.popleft()[1])
            if cache.lookup(idx):
                hits[i] = True
            else:
                pending.append((i + self.delay, idx))
        while pending:
            cache.insert(pending.popleft()[1])
        return hits


#: Backwards-compatible alias (pre-rename private name).
_DelayedInsertCache = DelayedInsertCache
