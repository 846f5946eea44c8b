"""Redundant-PR elimination: Idx Filter + Pending PR Table (§5.2).

Semantics modelled
------------------

A client RIG Unit about to issue a PR for ``idx`` drops it when either:

- **Filtering** — the Idx Filter bit for ``idx`` is set, i.e. some unit
  on this node already *received* the property.  The filter lives in
  SNIC DRAM and is shared by all units of the node.
- **Coalescing** — this unit's private Pending PR Table holds an
  *outstanding* PR for the same ``idx``.  Only same-unit PRs coalesce
  (the paper avoids cross-unit synchronization).

Both depend on timing: a duplicate is *filtered* only once the first
request completed, and *coalesced* only while it is still in flight and
was issued by the same unit.  The trace model captures this with an
``inflight_window``: the number of subsequently processed idxs during
which the first request is still outstanding (round-trip time times the
node's idx processing rate).

Batches of ``batch_size`` consecutive idxs are dispatched round-robin
to the client units, which fixes each idx's issuing unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["FilterResult", "anchored_drops", "filter_and_coalesce",
           "first_occurrence_positions"]


@dataclass
class FilterResult:
    """Outcome of filter/coalesce over one node's remote idx stream."""

    issued_mask: np.ndarray       # True where a PR actually goes out
    unit_of: np.ndarray           # issuing client unit per position
    n_total: int
    n_issued: int
    n_filtered: int               # dropped via the Idx Filter
    n_coalesced: int              # dropped via the Pending PR Table

    @property
    def fc_rate(self) -> float:
        """Fraction of candidate PRs eliminated (Table 7 'F+C Rate')."""
        if self.n_total == 0:
            return 0.0
        return (self.n_filtered + self.n_coalesced) / self.n_total

    @property
    def n_dropped(self) -> int:
        return self.n_filtered + self.n_coalesced


def first_occurrence_positions(idxs: np.ndarray) -> np.ndarray:
    """Position of the first occurrence of each element's value.

    This is the *filter anchor*: the only part of
    :func:`filter_and_coalesce` that needs the ``np.unique`` sort, and
    it depends on the idx stream alone — not on the batch size, unit
    count or in-flight window.  A sweep over those knobs can therefore
    compute it once per trace and pass it to :func:`anchored_drops`.
    """
    idxs = np.asarray(idxs)
    n = idxs.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    pos = np.arange(n, dtype=np.int64)
    uniq, inverse = np.unique(idxs, return_inverse=True)
    first_pos = np.full(uniq.size, n, dtype=np.int64)
    np.minimum.at(first_pos, inverse, pos)
    return first_pos[inverse]


def filter_and_coalesce(
    idxs: np.ndarray,
    n_units: int = 16,
    batch_size: int = 32 * 1024,
    inflight_window: int = 4096,
    enable_filtering: bool = True,
    enable_coalescing: bool = True,
) -> FilterResult:
    """Apply Idx-Filter + Pending-PR-Table semantics to an idx stream.

    ``idxs`` is one node's remote property indices in processing order.
    Returns which of them turn into wire PRs.

    The model anchors each duplicate to the *first* occurrence of its
    idx: the duplicate is filtered if the first request has completed
    (``first_pos <= pos - inflight_window``), coalesced if it is still
    outstanding and was issued by the same unit.  Duplicates of PRs
    that are simultaneously in flight from *other* units escape both
    structures — exactly the cross-unit redundancy the paper accepts to
    avoid synchronization.  The rule itself is :func:`anchored_drops`
    over :func:`first_occurrence_positions`.
    """
    idxs = np.asarray(idxs)
    n = idxs.size
    if n_units < 1 or batch_size < 1:
        raise ValueError("n_units and batch_size must be positive")
    if inflight_window < 0:
        raise ValueError("inflight_window must be nonnegative")
    drop_filter, drop_coalesce, _ = anchored_drops(
        first_occurrence_positions(idxs), n_units, batch_size,
        inflight_window, enable_filtering, enable_coalescing,
    )
    dropped = drop_filter | drop_coalesce
    return FilterResult(
        issued_mask=~dropped,
        unit_of=(np.arange(n, dtype=np.int64) // batch_size) % n_units,
        n_total=n,
        n_issued=int((~dropped).sum()),
        n_filtered=int(drop_filter.sum()),
        n_coalesced=int(drop_coalesce.sum()),
    )


def anchored_drops(
    first_pos: np.ndarray,
    n_units: int,
    batch_size: int,
    inflight_window: int,
    enable_filtering: bool = True,
    enable_coalescing: bool = True,
    base: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """``(drop_filter, drop_coalesce, base)`` from a filter anchor.

    The drop masks of :func:`filter_and_coalesce` for the stream whose
    :func:`first_occurrence_positions` is ``first_pos``:
    ``~(drop_filter | drop_coalesce)`` is its ``issued_mask``.  Only
    coalescing depends on the batch size (via the issuing unit); the
    filter drops and the coalesce-eligible positions are batch-invariant
    and come back as ``base``.  Passing ``base`` to a call that differs
    only in ``batch_size`` skips them, so a batch sweep costs two
    vectorized compares per point instead of the whole filter.
    """
    n = first_pos.size
    pos = np.arange(n, dtype=np.int64)
    if base is None:
        is_dup = pos != first_pos
        completed = first_pos <= pos - inflight_window
        drop_filter = (
            is_dup & completed if enable_filtering else np.zeros(n, bool)
        )
        eligible = (
            is_dup & ~completed if enable_coalescing else np.zeros(n, bool)
        )
        base = (drop_filter, eligible)
    drop_filter, eligible = base
    unit_of = (pos // batch_size) % n_units
    drop_coalesce = eligible & (unit_of == unit_of[first_pos])
    return drop_filter, drop_coalesce, base
