"""Unified instrumentation: one process-wide metrics registry.

:mod:`repro.telemetry.registry` holds the :class:`MetricsRegistry`
(counters and histograms under stable dotted names) and the
zero-overhead-when-disabled module-level recording API
(``telemetry.count(...)``, ``telemetry.observe(...)``).

Telemetry is disabled by default and every simulator's results are
bit-identical whether it is enabled or not — recording never feeds
back.  Enable it per scope::

    from repro import telemetry
    with telemetry.telemetry_scope() as reg:
        run_experiment("table7", scale="tiny")
        print(reg.counters["cluster.filter.drops"].value)

Per-layer time comes from ``bench/traced_child.py``, which wraps
functions from outside and never enables telemetry.

Metric name catalogue: see ``docs/api.md`` (telemetry section).
"""

from repro.telemetry.registry import (
    Counter,
    Histogram,
    MetricsRegistry,
    active,
    count,
    disable,
    enable,
    enabled,
    observe,
    telemetry_scope,
)

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "active",
    "count",
    "disable",
    "enable",
    "enabled",
    "observe",
    "telemetry_scope",
]
