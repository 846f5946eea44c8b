"""System configuration: the paper's Table 5 parameters in one place.

Every experiment builds a :class:`NetSparseConfig` (defaults reproduce
the paper's 128-node leaf-spine system) and toggles the feature flags
for ablations (Table 8) or overrides single fields for sensitivity
sweeps (Figures 15-18).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

__all__ = ["NetSparseConfig", "FeatureFlags"]


@dataclass(frozen=True)
class FeatureFlags:
    """Which NetSparse mechanisms are active (Table 8 ablation axes).

    The rows of Table 8 correspond to cumulative settings:

    - ``RIG``       — rig_offload only
    - ``Filter``    — + filtering
    - ``Coalesce``  — + coalescing
    - ``ConcNIC``   — + concat_nic
    - ``Switch``    — + concat_switch + property_cache
    """

    rig_offload: bool = True
    filtering: bool = True
    coalescing: bool = True
    concat_nic: bool = True
    concat_switch: bool = True
    property_cache: bool = True

    @staticmethod
    def ablation_level(level: str) -> "FeatureFlags":
        """Cumulative feature sets named as in Table 8."""
        levels = ["rig", "filter", "coalesce", "conc_nic", "switch"]
        if level not in levels:
            raise ValueError(f"unknown ablation level {level!r}; use {levels}")
        i = levels.index(level)
        return FeatureFlags(
            rig_offload=True,
            filtering=i >= 1,
            coalescing=i >= 2,
            concat_nic=i >= 3,
            concat_switch=i >= 4,
            property_cache=i >= 4,
        )


@dataclass(frozen=True)
class NetSparseConfig:
    """Table 5 system parameters (sizes in bytes, rates in bytes/s or Hz)."""

    # -- cluster -------------------------------------------------------
    n_nodes: int = 128
    n_racks: int = 8
    nodes_per_rack: int = 16
    topology: str = "leafspine"          # leafspine | hyperx | dragonfly

    # -- node ----------------------------------------------------------
    host_cores: int = 64
    host_freq: float = 2.2e9
    pcie_bandwidth: float = 256e9        # Gen6, bytes/s
    pcie_latency: float = 200e-9         # one-way

    # -- network -------------------------------------------------------
    link_bandwidth: float = 400e9 / 8    # 400 Gbps in bytes/s
    mtu: int = 1500
    #: Header bytes: upper layers (RDMA etc.), concat layer with #PRs
    #: field, solo concat layer (no #PRs), per-PR layer (Figure 6).
    header_upper: int = 50
    header_concat: int = 14
    header_concat_solo: int = 10
    header_pr: int = 18

    # -- SNIC ----------------------------------------------------------
    snic_freq: float = 2.2e9
    snic_dram_bandwidth: float = 64e9
    n_rig_units: int = 32                # half client, half server threads
    rig_batch_nonzeros: int = 32 * 1024  # paper-scale batch (§8.2)
    pending_pr_entries: int = 256
    lsq_entries: int = 64
    rig_cmd_overhead: float = 1.0e-6     # host-side cost to launch one RIG cmd

    # -- concatenation --------------------------------------------------
    concat_delay_cycles_nic: int = 500
    concat_delay_cycles_switch: int = 125
    concat_sram_bytes: int = 512 * 1024

    # -- property cache --------------------------------------------------
    pcache_bytes: int = 32 * 1024 * 1024
    pcache_ways: int = 16
    pcache_segments: int = 32
    pcache_min_line: int = 16
    pcache_max_line: int = 512
    pcache_latency_cycles: int = 16
    switch_freq: float = 2.0e9

    # -- software (baselines, §8.1 calibration) -------------------------
    #: Per-PR CPU cost on one core: fixed part plus per-payload-byte part.
    #: Calibrated so 64 cores reach the paper's measured SA goodput
    #: (~10% of line rate at K=16, Figure 10 / Table 7).
    sw_pr_cost_fixed: float = 700e-9
    sw_pr_cost_per_byte: float = 1.8e-9

    # -- mechanisms active ------------------------------------------------
    features: FeatureFlags = field(default_factory=FeatureFlags)

    # -- derived -----------------------------------------------------------

    @property
    def n_client_units(self) -> int:
        return self.n_rig_units // 2

    @property
    def vanilla_pr_header(self) -> int:
        """Header of one PR sent alone: upper + solo-concat + PR layers.

        §6.1.1: 50 + 10 + 18 = 78 bytes.
        """
        return self.header_upper + self.header_concat_solo + self.header_pr

    def property_bytes(self, k: int) -> int:
        """Payload bytes of one property with K single-precision elements."""
        if k < 1:
            raise ValueError("K must be >= 1")
        return 4 * k

    def max_prs_per_packet(self, pr_payload: int) -> int:
        """How many PRs of a given payload size fit in one MTU packet."""
        room = self.mtu - self.header_upper - self.header_concat
        per_pr = self.header_pr + pr_payload
        return max(room // per_pr, 1)

    def concat_packet_bytes(self, n_prs: int, pr_payload: int) -> int:
        """Wire bytes of a packet carrying ``n_prs`` concatenated PRs."""
        if n_prs < 1:
            raise ValueError("a packet carries at least one PR")
        if n_prs == 1:
            return self.vanilla_pr_header + pr_payload
        return (
            self.header_upper
            + self.header_concat
            + n_prs * (self.header_pr + pr_payload)
        )

    def with_features(self, **kw) -> "NetSparseConfig":
        return replace(self, features=replace(self.features, **kw))

    # -- canonical identity -------------------------------------------

    def canonical_dict(self) -> dict:
        """Every field (feature flags nested), suitable for stable JSON."""
        return asdict(self)

    def canonical_json(self) -> str:
        """Key-sorted, whitespace-free JSON — the same config always
        serializes to the same bytes (floats via ``repr``, which py3
        guarantees round-trips exactly)."""
        return json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        """Stable content hash of this configuration.

        Used (with matrix identity, scheme and the source-hash salt) to
        key the on-disk simulation result cache — any changed field,
        including a single feature flag, changes the digest.
        """
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def sw_pr_cost(self, payload_bytes: int) -> float:
        """Per-PR software handling cost on one core (seconds)."""
        return self.sw_pr_cost_fixed + self.sw_pr_cost_per_byte * payload_bytes

    def idx_filter_bytes(self, n_cols: int) -> int:
        """SNIC DRAM the Idx Filter needs: one bit per matrix column
        (§5.2 — 16 GB of SNIC DRAM covers ~10^11 columns)."""
        if n_cols < 0:
            raise ValueError("n_cols must be nonnegative")
        return -(-n_cols // 8)

    def idx_filter_max_columns(self) -> int:
        """Largest column count the SNIC DRAM's filter can cover."""
        dram_bytes = 16 * 1024**3     # Table 5: 16 GB SNIC DDR
        return dram_bytes * 8
