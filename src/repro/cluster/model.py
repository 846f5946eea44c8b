"""The NetSparse cluster model: exact trace semantics + rate-limit timing.

For one kernel iteration on an N-node cluster this model:

1. 1D-partitions the matrix and builds every node's idx scan trace.
2. Applies RIG batching + Idx-Filter/Pending-Table semantics exactly
   (:func:`repro.core.filtering.anchored_drops`, the anchor-reusing
   form of :func:`~repro.core.filtering.filter_and_coalesce`) to decide
   which remote idxs become wire PRs.
3. Runs each rack's merged PR stream through an exact LRU Property
   Cache with delayed insertion (a missing property only becomes
   cacheable after its response returns).
4. Concatenates PR streams with the window model
   (:mod:`repro.core.concat`) at the NIC and again at the ToR switch
   (cross-node), producing per-flow wire bytes for reads and
   responses.
5. Derives time from the interacting rate limits: RIG command
   dispatch/pipelining, concatenation-SRAM occupancy, host injection
   and ejection ports, and fabric link drains — the same
   throughput-bound idealization the paper applies to its baselines —
   plus a zero-load RTT term.

Scale note: window and in-flight parameters are expressed as fractions
of the per-node stream so the behaviour is invariant under the matrix
downscaling documented in DESIGN.md.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.config import NetSparseConfig
from repro.core import reusedist
from repro.core.concat import window_concat_dest_bytes, window_concat_totals
from repro.core.filtering import anchored_drops, first_occurrence_positions
from repro.core.pcache import n_sets_for
from repro.core.pcache_fast import delayed_cache_hits
from repro.core.rig import rig_generation_time
from repro.results import CommResult
from repro.network.topology import Dragonfly, HyperX, LeafSpine, Topology
from repro.partition import BlockPartition, cached_partition
from repro.partition.oned import span_distinct_count

__all__ = [
    "batch_stats",
    "build_cluster_topology",
    "reset_batch_state",
    "simulate_netsparse",
    "NetSparseKnobs",
]


# -- logical memos -------------------------------------------------------
#
# Sweep evaluation is single-pass: the stage outputs a knob sweep
# would otherwise rebuild per point — filter anchors, issued node
# streams, and merged rack streams with their hit mask per cache
# geometry and their reuse-distance profile — are memoized under
# logical keys (which partition, which per-node clamped batch size and
# unit count), so the planner's fused groups and sequential probe
# loops like the autotune ladder stop replaying identical stages.
# Repeated whole jobs are answered upstream by the engine's digest
# memo and the ResultCache.  Keys never hash array content: a
# partition's never-reused ``token`` stands in for its traces, and a
# rack merge is keyed on its member nodes, not on the fabric, so a
# call that builds a fresh topology shares every entry.  Everything
# here is bit-exact: a memo hit returns the same arrays the miss path
# computed.  All state lives in the byte-bounded memos, so nothing
# grows with the call count.

_MEMO_LOCK = threading.RLock()


class _BoundedMemo:
    """FIFO-bounded memo with approximate byte accounting."""

    def __init__(self, budget_bytes: int):
        self.budget = int(budget_bytes)
        self.data: "OrderedDict" = OrderedDict()
        self.bytes = 0
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with _MEMO_LOCK:
            entry = self.data.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            return entry[0]

    def put(self, key, value, nbytes: int) -> None:
        nbytes = max(int(nbytes), 1)
        if nbytes > self.budget:
            return
        with _MEMO_LOCK:
            if key in self.data:
                return
            while self.bytes + nbytes > self.budget and self.data:
                _, (_, old_bytes) = self.data.popitem(last=False)
                self.bytes -= old_bytes
            self.data[key] = (value, nbytes)
            self.bytes += nbytes

    def charge(self, key, value, nbytes: int) -> None:
        """Add ``nbytes`` to the stored entry ``value``, which grew in
        place, evicting the oldest entries (possibly this one) while
        over budget.  Ignored unless ``key`` holds ``value`` itself."""
        with _MEMO_LOCK:
            entry = self.data.get(key)
            if entry is None or entry[0] is not value:
                return
            self.data[key] = (entry[0], entry[1] + int(nbytes))
            self.bytes += int(nbytes)
            while self.bytes > self.budget and self.data:
                _, (_, old_bytes) = self.data.popitem(last=False)
                self.bytes -= old_bytes

    def clear(self) -> None:
        with _MEMO_LOCK:
            self.data.clear()
            self.bytes = 0
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict:
        return {"entries": len(self.data), "bytes": self.bytes,
                "hits": self.hits, "misses": self.misses}


_B = 256 * (1 << 20) // 8           # budget unit: an eighth of 256 MiB
_FBASE = _BoundedMemo(_B)         # (part, node, window) -> anchor + drops
_MASKS = _BoundedMemo(_B)         # + clamped batch, units -> node stream
_MERGES = _BoundedMemo(4 * _B)    # rack merge + its masks and profile
_ALL_MEMOS = {"fbase": _FBASE, "masks": _MASKS, "merges": _MERGES}


@dataclass(eq=False)
class _MergeEntry:
    """A ``_MERGES`` value: one rack's merged stream, its hit mask per
    cache geometry and, from the second geometry on, its distinct count
    and (once a geometry can hold that many) its reuse profile.  The
    masks and the profile grow the entry in place and are charged to
    the memo as they are added, so they are dropped with the stream."""

    merged: Dict[str, np.ndarray]
    masks: Dict[Tuple[int, int, int], np.ndarray] = field(
        default_factory=dict)
    distinct: Optional[int] = None
    profile: Optional[reusedist.StreamProfile] = None


def reset_batch_state() -> None:
    """Drop every logical memo (tests, benchmarks and profiling)."""
    for memo in _ALL_MEMOS.values():
        memo.clear()
    reusedist.reset_profile_stats()


def batch_stats() -> dict:
    """Memo + profile counters for telemetry and the bench block."""
    out = {name: memo.stats() for name, memo in _ALL_MEMOS.items()}
    out["profile"] = reusedist.profile_stats()
    return out


def build_cluster_topology(config: NetSparseConfig) -> Topology:
    """The Table 5 / §9.6 cluster fabrics by name."""
    if config.topology == "leafspine":
        return LeafSpine(
            n_racks=config.n_racks,
            nodes_per_rack=config.nodes_per_rack,
            n_spines=8,
            link_bandwidth=config.link_bandwidth,
        )
    if config.topology == "hyperx":
        return HyperX(shape=(4, 4, 2), hosts_per_switch=4, width=4,
                      link_bandwidth=config.link_bandwidth)
    if config.topology == "dragonfly":
        return Dragonfly(n_groups=4, switches_per_group=8, hosts_per_switch=4,
                         global_link_count=4,
                         link_bandwidth=config.link_bandwidth)
    raise ValueError(f"unknown topology {config.topology!r}")


@dataclass(frozen=True)
class NetSparseKnobs:
    """Scale-invariant model knobs (fractions of per-node streams).

    ``inflight_frac`` — how far (as a fraction of a node's remote-idx
    stream) a PR stays outstanding before its response lands; governs
    filtering vs coalescing.  ``cache_inflight_frac`` — the same for
    the switch cache's delayed inserts.
    """

    inflight_frac: float = 0.03
    cache_inflight_frac: float = 0.03


@dataclass
class _Filtered:
    """Stage 1 output: each node's issued PR stream and the counts."""

    streams: List[Tuple[np.ndarray, ...]]    # (pos, idx, owner) per node
    # Canonical per-node (batch, unit count): the memo key of a stream,
    # ``None`` where no RIG filter ran.
    bkeys: List[Optional[Tuple[int, int]]]
    node_nnz: np.ndarray
    useful_payload: np.ndarray
    n_candidates: int
    n_issued: int
    n_filtered: int
    n_coalesced: int


def _filter(part: BlockPartition, config: NetSparseConfig,
            knobs: NetSparseKnobs, rig_batch: int, payload: int) -> _Filtered:
    """Stage 1: per-node RIG batching + filtering/coalescing.

    A node's anchor and batch-invariant drop masks are memoized in
    ``_FBASE``, its issued stream per canonical (batch, unit count) in
    ``_MASKS``, both under the partition's token and the node id.
    """
    feats = config.features
    n = part.n_nodes
    streams, bkeys = [], []
    node_nnz = np.zeros(n, dtype=np.int64)
    useful_payload = np.zeros(n)
    n_candidates = n_issued = n_filtered = n_coalesced = 0
    for node, tr in enumerate(part.node_traces()):
        # A trace without counts has no ``_MASKS`` entry yet, so its
        # window is pinned here: that one read makes the counts too.
        n_remote = (tr.remote_count() if tr.counted
                    else int(tr.remote_idxs.size))
        useful_payload[node] = tr.unique_remote_count() * payload
        n_candidates += n_remote
        bkey = None
        if feats.rig_offload and n_remote:
            remote_frac = n_remote / max(tr.n_nonzeros, 1)
            batch_remote = max(int(rig_batch * remote_frac), 1)
            window = max(int(knobs.inflight_frac * n_remote), 1)
            # Batches >= the stream put every idx in unit 0, so the
            # clamped value is this node's canonical batch identity.
            batch = min(batch_remote, n_remote)
            # Coalescing compares the units of positions less than
            # ``window`` apart, whose batches differ by at most
            # ``reach``: every unit count above it drops the same.
            reach = min(-(-n_remote // batch) - 1, (window - 1) // batch + 1)
            bkey = (batch, min(config.n_client_units, reach + 1))
            mask_key = ("mask", part.token, node, feats.filtering,
                        feats.coalescing, knobs.inflight_frac, bkey)
            cached = _MASKS.get(mask_key)
            if cached is None:
                # The anchor and the batch-invariant drop masks are
                # memoized per node, so a batch sweep recomputes two
                # vectorized compares instead of the whole filter.
                # Memoized positions, idxs and anchors are int32 (the
                # partition checks they fit).
                remote_idx = tr.remote_idxs
                base_key = ("fbase", part.token, node, knobs.inflight_frac,
                            feats.filtering, feats.coalescing)
                entry = _FBASE.get(base_key)
                if entry is None:
                    fp = first_occurrence_positions(remote_idx).astype(
                        np.int32)
                    base = None
                else:
                    fp, base = entry
                drop_filter, drop_coalesce, base = anchored_drops(
                    fp, config.n_client_units, batch_remote, window,
                    feats.filtering, feats.coalescing, base=base,
                )
                if entry is None:
                    _FBASE.put(base_key, (fp, base),
                               drop_filter.nbytes * 2 + fp.nbytes)
                mask = ~(drop_filter | drop_coalesce)
                cached = (
                    tr.remote_pos[mask].astype(np.int32),
                    remote_idx[mask].astype(np.int32),
                    tr.remote_owners[mask], int(drop_filter.sum()),
                    int(drop_coalesce.sum()), int(mask.sum()),
                )
                _MASKS.put(mask_key, cached,
                           sum(a.nbytes for a in cached[:3]) + 24)
            stream = cached[:3]
            n_filtered += cached[3]
            n_coalesced += cached[4]
            n_issued += cached[5]
        else:
            stream = (tr.remote_pos.astype(np.int32),
                      tr.remote_idxs.astype(np.int32),
                      tr.remote_owners.copy())
            n_issued += n_remote
        bkeys.append(bkey)
        streams.append(stream)
        node_nnz[node] = tr.n_nonzeros
        # Windowed (sharded) traces drop their materialized windows
        # once their selections are copied out, keeping the resident
        # set bounded by one node's trace.
        release = getattr(tr, "release", None)
        if release is not None:
            release()
    return _Filtered(streams, bkeys, node_nnz, useful_payload,
                     n_candidates, n_issued, n_filtered, n_coalesced)


def _merge_rack_streams(
    per_node: List[Tuple[np.ndarray, ...]], nodes: List[int]
) -> Dict[str, np.ndarray]:
    """Interleave node streams by per-node position (concurrent scan)."""
    src = np.concatenate([np.full(stream[0].size, node, dtype=np.int32)
                          for node, stream in zip(nodes, per_node)])
    pos, idx, owner = (np.concatenate(arrays) for arrays in zip(*per_node))
    order = np.lexsort((src, pos))
    return {"src": src[order], "pos": pos[order],
            "idx": idx[order], "owner": owner[order]}


@dataclass
class _Cached:
    """Stage 2 output: each rack's merged stream and its hit mask."""

    merged: List[Dict[str, np.ndarray]]
    hits: List[np.ndarray]
    lookups: int
    n_hits: int


def _merge_and_cache(part: BlockPartition, racks: List[Tuple[int, List[int]]],
                     filtered: _Filtered, config: NetSparseConfig,
                     knobs: NetSparseKnobs, pcache_bytes: int,
                     payload: int) -> _Cached:
    """Stage 2: per-rack stream merge + Property Cache.

    A merge depends only on its members' streams, so ``_MERGES`` keys
    it on the partition token, the member ids and their stream keys.
    """
    feats = config.features
    # Property Cache at the ToR middle pipes.  A geometry (sets, ways,
    # delay) already scored on a memoized stream reuses its held mask.
    # The profile route starts at the second *distinct* geometry asked
    # of a memoized stream (a single-geometry workload, e.g. the
    # autotune ladder, never amortizes the unique-sort), and only for
    # a geometry whose capacity (sets x ways) holds the stream's
    # distinct values.  Below that, nearly every element sits in a
    # contended set, so the profile would replay almost the whole
    # stream anyway; those go straight to the replay kernel.  Both
    # routes are bit-identical (golden-tested).
    if feats.property_cache:
        n_sets = n_sets_for(pcache_bytes, config.pcache_ways, max(payload, 1),
                            config.pcache_segments, config.pcache_min_line)
    merged, rack_hits = [], []
    lookups = n_hits = 0
    for _, members in racks:
        key = ("merge", part.token, tuple(members), feats.rig_offload,
               feats.filtering, feats.coalescing, knobs.inflight_frac,
               tuple(filtered.bkeys[m] for m in members))
        entry = _MERGES.get(key)
        if entry is None:
            entry = _MergeEntry(_merge_rack_streams(
                [filtered.streams[m] for m in members], members))
            _MERGES.put(key, entry,
                        sum(a.nbytes for a in entry.merged.values()))
        merged.append(entry.merged)
        m_idx = entry.merged["idx"]
        if not feats.property_cache or m_idx.size == 0:
            rack_hits.append(np.zeros(m_idx.size, dtype=bool))
            continue
        geometry = (n_sets, config.pcache_ways,
                    max(int(knobs.cache_inflight_frac * m_idx.size), 1))
        hits = entry.masks.get(geometry)
        if hits is None:
            if entry.masks and entry.distinct is None:
                entry.distinct = span_distinct_count(m_idx)
            profiled = bool(entry.masks) and (
                geometry[0] * geometry[1] >= entry.distinct)
            if profiled and entry.profile is None:
                prof = reusedist.build_profile(m_idx)
                # Only the first profile stored (a racing thread may
                # have stored one too) is charged.
                with _MEMO_LOCK:
                    if entry.profile is None:
                        entry.profile = prof
                        _MERGES.charge(key, entry, prof.nbytes)
            if profiled:
                hits = entry.profile.score(*geometry, "lru")
            else:
                hits = delayed_cache_hits(m_idx, *geometry, policy="lru")[0]
            # Likewise only the first mask stored for a geometry.
            if entry.masks.setdefault(geometry, hits) is hits:
                _MERGES.charge(key, entry, hits.nbytes)
        lookups += int(m_idx.size)
        n_hits += int(hits.sum())
        rack_hits.append(hits)
    return _Cached(merged, rack_hits, lookups, n_hits)


def _pr_rate(config: NetSparseConfig, payload: int, issue_frac: float) -> float:
    """Aggregate PR rate through one node's concatenation point."""
    scan = config.n_client_units * config.snic_freq * max(issue_frac, 1e-3)
    resp_drain = config.link_bandwidth / (config.header_pr + payload)
    return min(scan, resp_drain)


def _concat_windows(
    config: NetSparseConfig, payload: int, issue_frac: float
) -> Tuple[int, int]:
    """(NIC, switch) window sizes in PRs for the delay-queue model."""
    rate = _pr_rate(config, payload, issue_frac)
    nic_delay = config.concat_delay_cycles_nic / config.snic_freq
    sw_delay = config.concat_delay_cycles_switch / config.switch_freq
    w_nic = max(int(nic_delay * rate), 1)
    # The switch sees the merged streams of the whole rack.
    w_sw = max(int(sw_delay * rate * config.nodes_per_rack), 1)
    return w_nic, w_sw


def _concat_sram_rate_cap(
    config: NetSparseConfig, payload: int
) -> float:
    """PRs/s one concatenation point can hold without exhausting its
    SRAM while PRs wait out the delay (the Figure 17 falloff)."""
    delay_s = config.concat_delay_cycles_nic / config.snic_freq
    if delay_s <= 0:
        return float("inf")
    per_pr = config.header_pr + payload
    return config.concat_sram_bytes / (delay_s * per_pr)


@dataclass
class _Traffic:
    """Wire accounting of one call's reads and responses."""

    up_bytes: np.ndarray          # host -> ToR wire bytes per node
    down_bytes: np.ndarray        # ToR -> host wire bytes per node
    fabric_loads: np.ndarray      # wire bytes per link, host links excluded
    served_per_node: np.ndarray   # reads each owner answers
    n_packets: int


def _traffic(
    topo: Topology,
    config: NetSparseConfig,
    payload: int,
    rack_of: np.ndarray,
    racks: List[Tuple[int, List[int]]],
    node_streams: List[Tuple[np.ndarray, ...]],
    merged_list: List[Dict[str, np.ndarray]],
    rack_hits: List[np.ndarray],
    w_nic: int,
    w_sw: int,
) -> _Traffic:
    """Bytes and packets of the read and response stages.

    Reads leave each node through its NIC's concatenation point; at the
    ToR, cache hits are answered in-rack and misses go on to their
    owners (switch-stage concat).  Responses come back the same way
    from each owner rack.  Each rack makes a fixed handful of array
    calls: one segmented NIC-stage ``window_concat_totals`` over its
    nodes, one switch-stage concat per direction and one histogram of
    its (src, dst) flows, whose byte shares become arrays.

    Flow bytes reach ``down_bytes`` and the fabric links in the order a
    per-flow loop adds them (racks in order, flows by pair key, links
    in route order), so one ``bincount`` each reproduces that loop's
    float sums bit for bit (the loop is kept in ``tests/oracles.py``).
    """
    n = rack_of.size
    n_hosts = topo.n_nodes
    if n_hosts < n:
        raise ValueError("topology has fewer hosts than the config's nodes")
    feats = config.features
    switch_window = w_sw if feats.concat_switch else 1
    headers = dict(
        header_upper=config.header_upper,
        header_concat=config.header_concat,
        header_concat_solo=config.header_concat_solo,
        header_pr=config.header_pr,
    )
    read_maxp = config.max_prs_per_packet(0)
    resp_maxp = config.max_prs_per_packet(payload)

    up_bytes = np.zeros(n)
    served = np.zeros(n, dtype=np.int64)
    n_packets = 0
    down_parts = []               # (node ids, bytes), in loop order
    flow_parts = []               # (src * n_hosts + dst, bytes), ditto

    def nic_stage(dests, lengths, maxp, pr_payload, members):
        """Each member's NIC-stage bytes: one segment per member."""
        nonlocal n_packets
        nbytes, npkts = window_concat_totals(
            dests, maxp, w_nic, pr_payload, lengths=lengths, **headers
        )
        up_bytes[members] += nbytes
        if not feats.concat_switch:
            n_packets += int(npkts.sum())

    def flows(src, dst, dst_bytes):
        """Split each destination's switch-stage bytes over its
        ``src -> dst`` flows by PR share."""
        counts = np.bincount(src * n_hosts + dst, minlength=n_hosts ** 2)
        pairs = np.flatnonzero(counts)
        counts = counts[pairs]
        ends = pairs % n_hosts
        share = dst_bytes[ends] * counts / np.bincount(dst, minlength=n)[ends]
        flow_parts.append((pairs, share))
        down_parts.append((ends, share))

    # Misses grouped by owner rack: per owner rack, (src, pos, owner)
    # runs in request-rack order, each in stream order.
    rack_ids = np.array([rack for rack, _ in racks])
    rack_key = np.min_scalar_type(rack_ids.max())
    responses = {rack: [] for rack, _ in racks}
    for (_, members), merged, hits in zip(racks, merged_list, rack_hits):
        streams = [node_streams[m][2] for m in members]
        nic_stage(np.concatenate(streams), [s.size for s in streams],
                  read_maxp, 0, members)
        m_src = merged["src"]
        if hits.any():
            dest_bytes, npkts = window_concat_dest_bytes(
                m_src[hits], resp_maxp, switch_window, payload, **headers
            )
            n_packets += npkts
            dest = np.flatnonzero(dest_bytes)
            down_parts.append((dest, dest_bytes[dest]))
        miss = ~hits
        if miss.any():
            ms, mo = m_src[miss], merged["owner"][miss]
            owner_bytes, npkts = window_concat_dest_bytes(
                mo, read_maxp, switch_window, 0, **headers
            )
            n_packets += npkts
            flows(ms, mo, owner_bytes)
            # A stable sort by owner rack (a radix sort on 8- or 16-bit
            # keys) keeps each owner rack's misses in stream order.
            owner_rack = rack_of[mo]
            order = np.argsort(owner_rack.astype(rack_key), kind="stable")
            run = (ms[order], merged["pos"][miss][order], mo[order])
            ends = np.searchsorted(owner_rack[order], rack_ids, side="right")
            starts = np.concatenate(([0], ends[:-1]))
            for rack, lo, hi in zip(rack_ids.tolist(), starts.tolist(),
                                    ends.tolist()):
                if hi > lo:
                    responses[rack].append(tuple(a[lo:hi] for a in run))

    for rack, members in racks:
        # Responses produced by owners in this rack, merged at its ToR.
        if not responses[rack]:
            continue
        r_src, r_pos, r_owner = (
            np.concatenate(a) for a in zip(*responses.pop(rack))
        )
        # Stream order: by position, then owner (a stable sort on one
        # combined int64 key).
        order = np.argsort(r_pos * np.int64(n) + r_owner, kind="stable")
        r_src, r_owner = r_src[order], r_owner[order]
        # A stable owner sort makes each owner's responses one segment
        # that keeps their stream order (and hence every byte count);
        # on 8- or 16-bit keys numpy's stable sort is a radix sort.
        by_owner = np.argsort(r_owner.astype(np.min_scalar_type(n)),
                              kind="stable")
        served_here = np.bincount(r_owner, minlength=n)[members]
        served[members] += served_here
        nic_stage(r_src[by_owner], served_here, resp_maxp, payload, members)
        src_bytes, npkts = window_concat_dest_bytes(
            r_src, resp_maxp, switch_window, payload, **headers
        )
        n_packets += npkts
        flows(r_owner, r_src, src_bytes)

    def joined(parts):
        if not parts:
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        ids, nbytes = zip(*parts)
        return np.concatenate(ids), np.concatenate(nbytes)

    down_ids, down_w = joined(down_parts)
    pairs, shares = joined(flow_parts)
    return _Traffic(
        up_bytes=up_bytes,
        down_bytes=np.bincount(down_ids, weights=down_w,
                               minlength=n).astype(float, copy=False),
        # The per-node port terms charge the two host links.
        fabric_loads=topo.flow_loads(pairs, shares, fabric_only=True),
        served_per_node=served,
        n_packets=n_packets,
    )


@dataclass
class _Timing:
    """Stage 4 output: the rate limits and the one that binds."""

    stage_times: Dict[str, np.ndarray]   # per-node seconds by limit
    per_node_time: np.ndarray
    fabric_time: float
    total_time: float
    binding: Dict[str, object]


def _timing(topo: Topology, config: NetSparseConfig, payload: int,
            scale: float, rig_batch: int, filtered: _Filtered,
            traffic: _Traffic) -> _Timing:
    """Stage 4: time from the interacting rate limits.

    A node's time is the slowest of its ``stage_times``; the call's is
    the slower of that maximum and the busiest fabric link, plus the
    zero-load RTT and the concatenation drain.  ``binding`` names the
    limit that sets the maximum: a ``stage_times`` key and its node,
    or ``"fabric"`` and node -1 when a fabric link is strictly slower.
    """
    n = config.n_nodes
    # Timing uses the real unit count: one max-plus scan for all nodes.
    pr_gen_time = rig_generation_time(
        filtered.node_nnz, config.n_client_units, rig_batch,
        freq=config.snic_freq, cmd_overhead=config.rig_cmd_overhead * scale,
    )
    if config.features.concat_nic:
        per_node_prs = np.array([s[0].size for s in filtered.streams],
                                dtype=np.float64)
        t_concat = per_node_prs / _concat_sram_rate_cap(config, payload)
        drain = config.concat_delay_cycles_nic / config.snic_freq
    else:
        t_concat = np.zeros(n)
        drain = 0.0
    stage_times = {
        "pr_gen": pr_gen_time,
        "up": traffic.up_bytes / config.link_bandwidth,
        "down": traffic.down_bytes / config.link_bandwidth,
        "pcie": traffic.down_bytes / config.pcie_bandwidth,
        "server": traffic.served_per_node / (
            (config.n_rig_units - config.n_client_units) * config.snic_freq
        ),
        "concat": t_concat,
    }
    per_node_time = np.maximum.reduce(list(stage_times.values()))
    link_bw = np.array([ln.bandwidth for ln in topo.links])
    fabric_time = (
        float((traffic.fabric_loads / link_bw).max()) if topo.n_links else 0.0
    )
    node = int(per_node_time.argmax())
    node_time = float(per_node_time[node])
    if fabric_time > node_time:
        binding = {"limit": "fabric", "node": -1}
    else:
        limit = next(name for name, t in stage_times.items()
                     if t[node] == node_time)
        binding = {"limit": limit, "node": node}
    # Fixed latencies scale with the matrix downscaling like every
    # other absolute time constant (DESIGN.md §5) — at paper scale
    # they are negligible against millisecond totals, and must stay
    # negligible.
    rtt = topo.rtt(0, n - 1) * scale
    total_time = max(node_time, fabric_time) + rtt + drain * scale
    return _Timing(stage_times, per_node_time, fabric_time, total_time,
                   binding)


def simulate_netsparse(
    matrix,
    k: int,
    config: Optional[NetSparseConfig] = None,
    topology: Optional[Topology] = None,
    rig_batch: Optional[int] = None,
    scale: float = 1.0,
    knobs: NetSparseKnobs = NetSparseKnobs(),
    partition: Optional[BlockPartition] = None,
) -> CommResult:
    """Simulate one iteration's communication under NetSparse.

    ``rig_batch`` is in *paper-scale* nonzeros (the 8k/32k of §8.2);
    ``scale`` is this matrix's nnz over the paper matrix's nnz (see
    DESIGN.md).  Scale multiplies the quantities tied to absolute
    matrix size — the batch, the per-command host overhead, and the
    Property Cache capacity — so hit rates, batching tradeoffs and
    speedup ratios survive the downscaling.  Scale-free quantities
    (delay windows, link rates, headers) stay physical.

    ``partition`` overrides the default equal-rows 1D partition (e.g.
    :func:`repro.partition.balanced_by_nnz`).

    The four stages run in order, each in its ``cluster.stage.*``
    span: filter, merge/cache, traffic (``respond``) and timing.
    ``extras["binding"]`` names the limit that sets the time.
    """
    config = config or NetSparseConfig()
    topo = topology or build_cluster_topology(config)
    n = config.n_nodes
    payload = config.property_bytes(k)
    part = partition or cached_partition(matrix, n)
    if part.n_nodes != n:
        raise ValueError("partition node count must match the config")
    if not 0.0 < scale:
        raise ValueError("scale must be positive")
    if rig_batch is None:
        rig_batch = config.rig_batch_nonzeros
    rig_batch = max(int(rig_batch * scale), 1)
    label = matrix.name

    with telemetry.span("cluster.stage.filter", matrix=label, k=k):
        filtered = _filter(part, config, knobs, rig_batch, payload)
    telemetry.count("cluster.filter.candidates", filtered.n_candidates,
                    matrix=label)
    telemetry.count("cluster.filter.drops", filtered.n_filtered, matrix=label)
    telemetry.count("cluster.filter.coalesced", filtered.n_coalesced,
                    matrix=label)
    telemetry.count("cluster.filter.issued", filtered.n_issued, matrix=label)

    rack_of = np.array([topo.rack_of(i) for i in range(n)])
    members: Dict[int, List[int]] = {}
    for node in range(n):
        members.setdefault(int(rack_of[node]), []).append(node)
    racks = sorted(members.items())
    with telemetry.span("cluster.stage.cache", matrix=label, k=k):
        cached = _merge_and_cache(part, racks, filtered, config, knobs,
                                  int(config.pcache_bytes * scale), payload)
    telemetry.count("pcache.lookups", cached.lookups, matrix=label)
    telemetry.count("pcache.hits", cached.n_hits, matrix=label)

    issue_frac = filtered.n_issued / max(filtered.n_candidates, 1)
    w_nic, w_sw = _concat_windows(config, payload, issue_frac)
    if not config.features.concat_nic:
        w_nic = 1
    with telemetry.span("cluster.stage.respond", matrix=label, k=k):
        traffic = _traffic(topo, config, payload, rack_of, racks,
                           filtered.streams, cached.merged, cached.hits,
                           w_nic, w_sw)

    with telemetry.span("cluster.stage.timing", matrix=label, k=k):
        timing = _timing(topo, config, payload, scale, rig_batch, filtered,
                         traffic)

    telemetry.count("concat.packets", traffic.n_packets, matrix=label)
    if traffic.n_packets:
        telemetry.observe("concat.prs_per_packet",
                          filtered.n_issued / traffic.n_packets, matrix=label)

    return CommResult(
        scheme="netsparse",
        matrix_name=label,
        k=k,
        n_nodes=n,
        total_time=timing.total_time,
        per_node_time=timing.per_node_time,
        recv_wire_bytes=traffic.down_bytes,
        sent_wire_bytes=traffic.up_bytes,
        useful_payload_bytes=filtered.useful_payload,
        link_bandwidth=config.link_bandwidth,
        n_pr_candidates=filtered.n_candidates,
        n_prs_issued=filtered.n_issued,
        n_filtered=filtered.n_filtered,
        n_coalesced=filtered.n_coalesced,
        n_packets=traffic.n_packets,
        cache_lookups=cached.lookups,
        cache_hits=cached.n_hits,
        pr_gen_time=timing.stage_times["pr_gen"],
        extras={
            "fabric_time": timing.fabric_time,
            "rig_batch": rig_batch,
            "window_nic": w_nic,
            "window_switch": w_sw,
            # Per-node seconds of each rate limit, and the one that
            # sets the time.
            "stage_times": timing.stage_times,
            "binding": timing.binding,
        },
    )
