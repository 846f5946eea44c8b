"""Reuse-distance profiles: score many cache geometries from one pass.

A sweep replays the *same* merged rack PR stream through the Property
Cache once per knob point (capacity, ways, line geometry), even though
the stream never changes.  A :class:`StreamProfile` extracts what the
delayed-insert cache model actually consumes from the stream — the
sorted unique values, each element's first-occurrence position, and the
per-set occupancy under any geometry — once, then scores each knob
point from the profile instead of an independent LRU replay.

Exactness, not approximation
----------------------------

The delayed-insert LRU violates stack inclusion across geometries (a
miss alters the pending-insert schedule), so no classical Mattson
single-pass algorithm applies.  The profile instead exploits two exact
structural facts:

- **Eviction-free geometries.**  If every cache set receives at most
  ``ways`` distinct values over the whole stream, nothing is ever
  evicted and presence is monotone: position ``i`` hits iff
  ``i >= first_pos + max(delay, 1)``.  This is a fully vectorized
  closed form — it answers the "infinite cache" sweep points without
  a replay.
- **Per-set independence.**  Under LRU and FIFO a cache set changes
  only through its own lookups and inserts, each due at its global
  stream position, so every set replays alone.  The replay kernel,
  :func:`repro.core.pcache_fast.delayed_cache_hits`, is built on this
  (it walks one set at a time), and the profile uses it one level up:
  evictions only happen in *contended* sets (those receiving more than
  ``ways`` distinct values), so replaying only the contended sets'
  subsequence — given its global positions through ``positions=``, so
  the delayed-insert due times are preserved — is bit-identical to the
  full replay, while the uncontended elements score through the closed
  form.

Both routes are pinned against :class:`repro.core.pcache.PropertyCache`
driven by the reference front-end in ``tests/test_reusedist.py``
(seeds x set geometries x ways x capacities x segmented line sizes).

The cluster model (:mod:`repro.cluster.model`) chooses the route
before it pays for a profile.  The first geometry asked of a memoized
rack stream goes to ``delayed_cache_hits`` directly.  From the second
on, it counts the stream's distinct values once, and builds (then
reuses) the stream's profile only for a geometry whose capacity
``n_sets * ways`` is at least that count: a smaller cache leaves nearly
every element in a contended set, so the hybrid route would replay
almost the whole stream after paying for the unique-sort.  Such
geometries go to ``delayed_cache_hits`` directly too.  The hit masks
are identical on every route.  The batch planner
(:mod:`repro.parallel.batch`) only orders jobs so that a sweep's
geometries meet the same held stream.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

import numpy as np

from repro.core.pcache_fast import check_policy, delayed_cache_hits

__all__ = ["StreamProfile", "build_profile", "profile_stats",
           "reset_profile_stats"]

#: Module counters surfaced as ``perf.batch.*`` telemetry and in the
#: ``batch`` BENCH block.
_STATS = {
    "profiles_built": 0,
    "scores": 0,
    "closed_form": 0,        # scores fully answered by the closed form
    "hybrid": 0,             # contended-subset replays
    "build_seconds": 0.0,
    "score_seconds": 0.0,
}


def profile_stats() -> Dict[str, float]:
    """Snapshot of the profile build/score counters."""
    return dict(_STATS)


def reset_profile_stats() -> None:
    for key in _STATS:
        _STATS[key] = 0.0 if key.endswith("seconds") else 0


class StreamProfile:
    """One stream's reuse structure, reusable across cache geometries.

    Holds the stream itself (for the contended replay), its sorted
    unique values, and each element's first-occurrence position.
    Scoring a geometry never mutates the profile, so one profile safely
    serves a whole knob grid.
    """

    __slots__ = ("idxs", "size", "uniq", "inverse", "first_pos")

    def __init__(self, idxs: np.ndarray):
        t0 = time.perf_counter()
        self.idxs = np.asarray(idxs)
        self.size = int(self.idxs.size)
        if self.size:
            uniq, first_index, inverse = np.unique(
                self.idxs, return_index=True, return_inverse=True
            )
            self.uniq = uniq
            self.inverse = inverse
            self.first_pos = first_index[inverse]
        else:
            self.uniq = np.zeros(0, dtype=self.idxs.dtype)
            self.inverse = np.zeros(0, dtype=np.int64)
            self.first_pos = np.zeros(0, dtype=np.int64)
        _STATS["profiles_built"] += 1
        _STATS["build_seconds"] += time.perf_counter() - t0

    # -- structure queries --------------------------------------------

    def n_unique(self) -> int:
        return int(self.uniq.size)

    @property
    def nbytes(self) -> int:
        """Bytes the profile holds beyond the stream it was built from."""
        return self.uniq.nbytes + self.inverse.nbytes + self.first_pos.nbytes

    def _set_partition(
        self, n_sets: int, ways: int
    ) -> Tuple[int, np.ndarray]:
        """(max per-set occupancy, per-element contended mask)."""
        uniq_sets = self.uniq % n_sets
        occupied, counts = np.unique(uniq_sets, return_counts=True)
        occ_max = int(counts.max()) if counts.size else 0
        if occ_max <= ways:
            return occ_max, np.zeros(0, dtype=bool)
        contended = occupied[counts > ways]
        elem_mask = np.isin(uniq_sets, contended)[self.inverse]
        return occ_max, elem_mask

    # -- scoring -------------------------------------------------------

    def score(self, n_sets: int, ways: int, delay: int,
              policy: str = "lru") -> np.ndarray:
        """Exact hit mask under one geometry (bit-identical to
        :func:`~repro.core.pcache_fast.delayed_cache_hits`, which
        rejects the same policies on every route)."""
        check_policy(policy)
        t0 = time.perf_counter()
        try:
            _STATS["scores"] += 1
            n_sets = int(n_sets)
            ways = int(ways)
            delay = max(int(delay), 0)
            if self.size == 0 or n_sets <= 0:
                return np.zeros(self.size, dtype=bool)
            occ_max, elem_mask = self._set_partition(n_sets, ways)
            # In a set that never evicts, presence is monotone from the
            # first occurrence's delayed insert.
            pos = np.arange(self.size, dtype=np.int64)
            hits = (pos - self.first_pos) >= max(delay, 1)
            if occ_max <= ways:
                _STATS["closed_form"] += 1
                return hits
            # The contended sets replay alone, at their global positions.
            _STATS["hybrid"] += 1
            contended = np.flatnonzero(elem_mask)
            hits[contended] = delayed_cache_hits(
                self.idxs[contended], n_sets, ways, delay, policy=policy,
                positions=contended,
            )[0]
            return hits
        finally:
            _STATS["score_seconds"] += time.perf_counter() - t0


def build_profile(idxs: np.ndarray) -> StreamProfile:
    """Profile one stream (counted in ``profile_stats``)."""
    return StreamProfile(idxs)

