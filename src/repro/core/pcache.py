"""The in-switch Property Cache (§6.2).

A set-associative, LRU, *segmented* hardware cache living in the middle
pipes of NetSparse ToR switches.  Read PRs heading out of the rack look
it up (a hit turns the read into a response at the switch); response
PRs returning into the rack insert their property if absent.

Segmentation (§6.2.2, Figure 9): the data array is split into 32
segments of ``min_line`` bytes each per line-slot, and a property
occupies ``ceil(property_bytes / min_line)`` adjacent segments, so the
whole capacity is usable for any configured property size between
``min_line`` and ``max_line``.  Functionally that means the number of
line slots is ``capacity / slot_bytes`` where ``slot_bytes`` is the
property size rounded up to a ``min_line`` multiple; the
:class:`SegmentSelector` models the enable-mask hardware itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["PropertyCache", "SegmentSelector", "CacheStats",
           "slot_bytes_for", "n_sets_for"]


def slot_bytes_for(property_bytes: int, n_segments: int = 32,
                   segment_bytes: int = 16) -> int:
    """Bytes one line slot occupies for a configured property size.

    The single source of truth shared by :meth:`PropertyCache.configure`
    and the cluster model's cache stage (through :func:`n_sets_for`) —
    a property is rounded up to a power-of-two number of segments, and
    properties larger than the maximum line are tiled across whole
    lines (§6.2.2).
    """
    if property_bytes < 1:
        raise ValueError("property size must be positive")
    max_line = n_segments * segment_bytes
    if property_bytes > max_line:
        return max_line * (-(-property_bytes // max_line))
    needed = -(-property_bytes // segment_bytes)
    segs = 1
    while segs < needed:
        segs *= 2
    return segs * segment_bytes


def n_sets_for(capacity_bytes: int, ways: int, property_bytes: int,
               n_segments: int = 32, segment_bytes: int = 16) -> int:
    """Number of cache sets a :class:`PropertyCache` will have once
    configured for ``property_bytes`` — without allocating one."""
    slot = slot_bytes_for(property_bytes, n_segments, segment_bytes)
    return max((capacity_bytes // slot) // ways, 0)


@dataclass
class CacheStats:
    lookups: int = 0
    hits: int = 0
    insertions: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class SegmentSelector:
    """The Mode + Segment-bits → Enable-bitmask logic of Figure 9."""

    def __init__(self, n_segments: int = 32, segment_bytes: int = 16):
        if n_segments < 1 or n_segments & (n_segments - 1):
            raise ValueError("n_segments must be a power of two")
        self.n_segments = n_segments
        self.segment_bytes = segment_bytes
        self._mode_segments = 1

    def configure(self, property_bytes: int) -> None:
        """Set the Mode for a kernel's property size."""
        if property_bytes < 1:
            raise ValueError("property size must be positive")
        needed = -(-property_bytes // self.segment_bytes)  # ceil division
        # Round up to a power of two so enables stay aligned.
        segs = 1
        while segs < needed:
            segs *= 2
        if segs > self.n_segments:
            raise ValueError(
                f"property of {property_bytes} B exceeds the cache's maximum "
                f"line of {self.n_segments * self.segment_bytes} B"
            )
        self._mode_segments = segs

    @property
    def segments_per_property(self) -> int:
        return self._mode_segments

    def enable_mask(self, segment_bits: int) -> int:
        """Bitmask of enabled segments for an access.

        In 16 B mode one bit is set; in 32 B mode two adjacent bits; in
        full-line mode all bits (the paper's 1110X example: the LSBs of
        the segment bits are ignored in wider modes).
        """
        if not 0 <= segment_bits < self.n_segments:
            raise ValueError("segment bits out of range")
        group = segment_bits // self._mode_segments
        base = group * self._mode_segments
        mask = 0
        for s in range(base, base + self._mode_segments):
            mask |= 1 << s
        return mask


class PropertyCache:
    """Exact set-associative LRU cache over property indices.

    The functional behaviour the cluster model needs: which PRs hit.
    ``configure(property_bytes)`` must be called before a kernel (the
    control plane's job in the paper); it also invalidates all data.
    """

    #: Supported replacement policies.  The paper's design uses LRU
    #: (Table 5); FIFO and a deterministic pseudo-random policy are
    #: provided for the replacement-policy ablation.
    POLICIES = ("lru", "fifo", "random")

    def __init__(
        self,
        capacity_bytes: int = 32 * 1024 * 1024,
        ways: int = 16,
        n_segments: int = 32,
        segment_bytes: int = 16,
        policy: str = "lru",
    ):
        if capacity_bytes < 0:
            raise ValueError("capacity must be nonnegative")
        if ways < 1:
            raise ValueError("ways must be >= 1")
        if policy not in self.POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choose from {self.POLICIES}"
            )
        self.capacity_bytes = capacity_bytes
        self.ways = ways
        self.policy = policy
        self.selector = SegmentSelector(n_segments, segment_bytes)
        self.stats = CacheStats()
        self._sets: Optional[list] = None
        self.n_sets = 0
        self.slot_bytes = 0
        self._tick = 0   # deterministic counter for the random policy

    def configure(self, property_bytes: int) -> None:
        """Size the line slots for this kernel and invalidate the cache.

        Properties larger than the maximum line (all segments) are
        *tiled* across multiple line slots (§6.2.2: "the input property
        array can be tiled into chunks"), so capacity in properties
        shrinks proportionally but hits remain property-granular.
        """
        if property_bytes < 1:
            raise ValueError("property size must be positive")
        max_line = self.selector.n_segments * self.selector.segment_bytes
        self.selector.configure(min(property_bytes, max_line))
        self.slot_bytes = slot_bytes_for(
            property_bytes, self.selector.n_segments,
            self.selector.segment_bytes,
        )
        self.n_sets = n_sets_for(
            self.capacity_bytes, self.ways, property_bytes,
            self.selector.n_segments, self.selector.segment_bytes,
        )
        # One OrderedDict-like plain dict per set: insertion order is
        # LRU order (move-to-end on touch).  Python dicts preserve
        # insertion order, so this is an exact, fast LRU.
        self._sets = [dict() for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def _check_ready(self) -> None:
        if self._sets is None:
            raise RuntimeError("PropertyCache.configure() must be called first")

    @property
    def n_slots(self) -> int:
        return self.n_sets * self.ways

    def lookup(self, idx: int) -> bool:
        """Read-PR path: hit check + LRU touch.  No insertion on miss."""
        self._check_ready()
        self.stats.lookups += 1
        if self.n_sets == 0:
            return False
        s = self._sets[idx % self.n_sets]
        if idx in s:
            self.stats.hits += 1
            if self.policy == "lru":
                del s[idx]
                s[idx] = True  # move to MRU position
            return True
        return False

    def insert(self, idx: int) -> None:
        """Response-PR path: insert if absent, evicting the LRU line."""
        self._check_ready()
        if self.n_sets == 0:
            return
        s = self._sets[idx % self.n_sets]
        if idx in s:
            return  # §6.2.1: present already — no action
        if len(s) >= self.ways:
            if self.policy == "random":
                # Deterministic pseudo-random victim (reproducible runs).
                self._tick = (self._tick * 1103515245 + 12345) & 0x7FFFFFFF
                victim = list(s)[self._tick % len(s)]
            else:
                # Insertion order is LRU order under "lru" (touches
                # re-insert) and arrival order under "fifo".
                victim = next(iter(s))
            del s[victim]
            self.stats.evictions += 1
        s[idx] = True
        self.stats.insertions += 1

    def contains(self, idx: int) -> bool:
        """Non-mutating membership check (no stats, no LRU update)."""
        self._check_ready()
        if self.n_sets == 0:
            return False
        return idx in self._sets[idx % self.n_sets]
