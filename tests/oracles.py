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
  :func:`repro.baselines.saopt.saopt_pr_counts`;
- :func:`_flow_loads_reference` —
  :meth:`repro.network.topology.Topology.flow_loads`;
- :func:`_traffic_reference` — the read and response stages of
  :func:`repro.cluster.model.simulate_netsparse` (``model._traffic``),
  with a loop over nodes and over (src, dst) flows;
- :func:`_trace_selections_reference` — the selections and counts of
  :class:`repro.partition.oned.TraceSelections`, from every idx's owner
  (``tests/test_trace_selections.py``).
"""

from collections import deque
from typing import Dict

import numpy as np

from repro.cluster import model
from repro.core.concat import ConcatStats, window_concat, window_concat_totals
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


def _flow_loads_reference(topo, pairs: np.ndarray, nbytes: np.ndarray,
                          fabric_only: bool = False) -> np.ndarray:
    """The original loop: every flow's bytes added onto each link of
    its route, one flow (``src * n_nodes + dst``) at a time."""
    loads = np.zeros(topo.n_links)
    for pair, b in zip(np.asarray(pairs).tolist(), nbytes):
        route = topo.route(*divmod(pair, topo.n_nodes))
        for lid in route[1:-1] if fabric_only else route:
            loads[lid] += b
    return loads


def _concat_stage_bytes(dests, payload, config, window_prs):
    """Per-destination wire bytes after one concatenation stage."""
    maxp = config.max_prs_per_packet(payload)
    stats = window_concat(dests, max_prs_per_packet=maxp,
                          window_prs=window_prs)
    byte_map = stats.wire_bytes_per_dest(
        pr_payload=payload,
        header_upper=config.header_upper,
        header_concat=config.header_concat,
        header_concat_solo=config.header_concat_solo,
        header_pr=config.header_pr,
    )
    return byte_map, stats


def _concat_stage_totals(dests, payload, config, window_prs):
    """``(wire bytes, packets)`` of one concatenation stage."""
    maxp = config.max_prs_per_packet(payload)
    return window_concat_totals(
        dests, maxp, window_prs, payload,
        header_upper=config.header_upper,
        header_concat=config.header_concat,
        header_concat_solo=config.header_concat_solo,
        header_pr=config.header_pr,
    )


def _traffic_reference(topo, config, payload, rack_of, racks, node_streams,
                       merged_list, rack_hits, w_nic, w_sw):
    """The read and response stages as per-node and per-flow loops, in
    ``model._traffic``'s signature."""
    n = rack_of.size
    feats = config.features
    up_bytes = np.zeros(n)
    down_bytes = np.zeros(n)
    fabric_loads = np.zeros(topo.n_links)
    served_per_node = np.zeros(n, dtype=np.int64)
    n_packets_total = 0
    miss_records = []
    read_window_sw = w_sw if feats.concat_switch else 1

    def _route_fabric(src, dst, nbytes):
        # The slice drops the two host links, which the per-node port
        # terms already charge.
        for lid in topo.route(src, dst)[1:-1]:
            fabric_loads[lid] += nbytes

    for (rack, members), merged, hits in zip(racks, merged_list, rack_hits):
        m_src, m_pos = merged["src"], merged["pos"]
        m_idx, m_owner = merged["idx"], merged["owner"]
        for node in members:
            nbytes, npkts = _concat_stage_totals(
                node_streams[node][2], 0, config, w_nic
            )
            up_bytes[node] += nbytes
            if not feats.concat_switch:
                n_packets_total += npkts
        if hits.any():
            byte_map, stats = _concat_stage_bytes(
                m_src[hits], payload, config, read_window_sw
            )
            for node_id, b in byte_map.items():
                down_bytes[node_id] += b
            n_packets_total += stats.n_packets
        miss = ~hits
        if miss.any():
            ms, mp = m_src[miss], m_pos[miss]
            mi, mo = m_idx[miss], m_owner[miss]
            byte_map, stats = _concat_stage_bytes(
                mo, 0, config, read_window_sw
            )
            n_packets_total += stats.n_packets
            pair_keys = ms * n + mo
            uniq_pairs, pair_counts = np.unique(pair_keys,
                                                return_counts=True)
            owner_totals = {
                int(d): cnt
                for d, cnt in zip(*np.unique(mo, return_counts=True))
            }
            for key, cnt in zip(uniq_pairs.tolist(), pair_counts.tolist()):
                s, d = divmod(key, n)
                share = byte_map[d] * cnt / owner_totals[d]
                _route_fabric(s, d, share)
                down_bytes[d] += share
            miss_records.append({"src": ms, "pos": mp, "idx": mi,
                                 "owner": mo})

    if miss_records:
        all_src = np.concatenate([r["src"] for r in miss_records])
        all_pos = np.concatenate([r["pos"] for r in miss_records])
        all_owner = np.concatenate([r["owner"] for r in miss_records])
    else:
        all_src = all_pos = all_owner = np.zeros(0, dtype=np.int64)
    resp_window_sw = w_sw if feats.concat_switch else 1
    owner_rack = rack_of[all_owner]
    for rack, members in racks:
        sel = owner_rack == rack
        if not sel.any():
            continue
        r_src, r_pos, r_owner = all_src[sel], all_pos[sel], all_owner[sel]
        order = np.lexsort((r_owner, r_pos))
        r_src, r_pos, r_owner = r_src[order], r_pos[order], r_owner[order]
        oorder = np.argsort(r_owner, kind="stable")
        ro = r_owner[oorder]
        rs = r_src[oorder]
        lo_b = np.searchsorted(ro, members, side="left")
        hi_b = np.searchsorted(ro, members, side="right")
        for owner, lo, hi in zip(members, lo_b.tolist(), hi_b.tolist()):
            if hi <= lo:
                continue
            served_per_node[owner] += hi - lo
            nbytes, npkts = _concat_stage_totals(rs[lo:hi], payload, config,
                                                 w_nic)
            up_bytes[owner] += nbytes
            if not feats.concat_switch:
                n_packets_total += npkts
        byte_map, stats = _concat_stage_bytes(r_src, payload, config,
                                              resp_window_sw)
        n_packets_total += stats.n_packets
        pair_keys = r_owner * n + r_src
        uniq_pairs, pair_counts = np.unique(pair_keys, return_counts=True)
        dest_totals = {
            int(d): cnt
            for d, cnt in zip(*np.unique(r_src, return_counts=True))
        }
        for key, cnt in zip(uniq_pairs.tolist(), pair_counts.tolist()):
            o, s = divmod(key, n)
            share = byte_map[s] * cnt / dest_totals[s]
            _route_fabric(o, s, share)
            down_bytes[s] += share

    return model._Traffic(
        up_bytes=up_bytes,
        down_bytes=down_bytes,
        fabric_loads=fabric_loads,
        served_per_node=served_per_node,
        n_packets=n_packets_total,
    )


def _trace_selections_reference(idxs, node, col_starts, owner_from):
    """A node trace's selections as first defined: look up every idx's
    owner, call the idxs owned by another node remote, and count
    distinct values with ``np.unique``.

    ``owner_from`` picks the original lookup of either storage tier:
    ``"gather"`` indexes a per-column owner array (the dense tier),
    ``"searchsorted"`` bisects ``col_starts`` (the windowed tier).
    """
    idxs = np.asarray(idxs)
    if owner_from == "gather":
        col_owner = np.repeat(
            np.arange(col_starts.size - 1, dtype=np.int32),
            np.diff(col_starts))
        owner = col_owner[idxs]
    else:
        owner = (np.searchsorted(col_starts, idxs, side="right")
                 - 1).astype(np.int32)
    remote = owner != node
    remote_idxs = idxs[remote]
    return {
        "owner": owner,
        "remote": remote,
        "remote_pos": np.nonzero(remote)[0],
        "remote_idxs": remote_idxs,
        "remote_owners": owner[remote],
        "remote_unique": np.unique(remote_idxs),
        "remote_count": int(remote.sum()),
        "unique_remote_count": int(np.unique(remote_idxs).size),
        "unique_count": int(np.unique(idxs).size),
    }
