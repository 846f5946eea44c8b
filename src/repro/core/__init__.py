"""The paper's primary contribution: NetSparse hardware mechanisms.

- :mod:`repro.core.protocol`  — the two-layer NetSparse packet format
  and header-overhead math (§6.1.1, Figure 6, Table 3).
- :mod:`repro.core.filtering` — Idx-Filter + Pending-PR-Table semantics
  (filtering and coalescing, §5.2), vectorized over idx traces.
- :mod:`repro.core.concat`    — PR concatenation: delay-queue DES
  components and the vectorized window model (§6.1.2).
- :mod:`repro.core.pcache`    — the segmented set-associative in-switch
  Property Cache (§6.2.2).
- :mod:`repro.core.rig`       — RIG Units: DES client/server models and
  the batch-scheduling timing math (§5.1, §5.3).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.protocol": ("header_traffic_fraction",
                            "sa_pair_header_bytes"),
    "repro.core.filtering": ("FilterResult", "filter_and_coalesce"),
    "repro.core.concat": ("ConcatStats", "DelayQueueConcatenator",
                          "window_concat"),
    "repro.core.pcache": ("PropertyCache",),
})
