"""Process-wide metrics registry: counters and histograms.

Telemetry is **disabled by default** and the instrumentation sites
scattered through the simulators are written so the disabled path costs
one module-global ``None`` check (no allocation, no branching inside
hot loops beyond the guard).  Enabling telemetry installs a
:class:`MetricsRegistry` as the process-wide active registry; every
instrumented component then records into it:

- **Counters** — monotonically increasing integers under stable dotted
  names (``cluster.filter.drops``, ``pcache.hits``).  Optional labels
  additionally increment a labelled sibling (``pcache.hits{matrix=arabic}``)
  so per-matrix attribution never changes the base name.
- **Histograms** — sample collections with percentile summaries
  (``concat.prs_per_packet``, ``dessim.pr.latency``).

Where a run's time goes is measured from outside the program, by
``bench/traced_child.py``, which wraps functions and never enables
telemetry, so timing it does not change which code runs.

Nothing in this module imports numpy or any simulator code: importing
telemetry must stay cheap because every instrumented module imports it.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

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

#: Stable dotted metric names: ``segment(.segment)*`` of word characters.
_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+(\.[A-Za-z0-9_-]+)*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"invalid metric name {name!r}; expected dotted segments of "
            "[A-Za-z0-9_-]"
        )
    return name


def _labelled(name: str, labels: Dict[str, Any]) -> str:
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


@dataclass
class Counter:
    """A monotonically increasing integer metric."""

    name: str
    value: int = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only increase")
        self.value += int(n)


class Histogram:
    """A sample collection with percentile summaries."""

    def __init__(self, name: str):
        self.name = name
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        self.samples.append(float(value))

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def sum(self) -> float:
        return math.fsum(self.samples)

    @property
    def mean(self) -> float:
        return self.sum / len(self.samples) if self.samples else 0.0

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile, ``q`` in [0, 100]."""
        if not self.samples:
            return 0.0
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile q must be in [0, 100]")
        s = sorted(self.samples)
        pos = (len(s) - 1) * q / 100.0
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)

    def summary(self) -> Dict[str, float]:
        if not self.samples:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.sum,
            "min": min(self.samples),
            "max": max(self.samples),
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """The counters and histograms of one telemetry scope.

    Metric accessors are get-or-create: the first ``counter("a.b")``
    defines the counter, later calls return the same object.
    """

    def __init__(self):
        self.counters: Dict[str, Counter] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- metric accessors ----------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = _labelled(_check_name(name), labels) if labels else _check_name(name)
        c = self.counters.get(key)
        if c is None:
            c = self.counters[key] = Counter(key)
        return c

    def histogram(self, name: str, **labels) -> Histogram:
        key = _labelled(_check_name(name), labels) if labels else _check_name(name)
        h = self.histograms.get(key)
        if h is None:
            h = self.histograms[key] = Histogram(key)
        return h

    # -- recording shorthands ------------------------------------------

    def count(self, name: str, n: int = 1, **labels) -> None:
        """Increment ``name`` (and its labelled sibling, if labelled)."""
        self.counter(name).inc(n)
        if labels:
            self.counter(name, **labels).inc(n)

    def observe(self, name: str, value: float, **labels) -> None:
        self.histogram(name).observe(value)
        if labels:
            self.histogram(name, **labels).observe(value)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view of every metric."""
        return {
            "counters": {k: c.value for k, c in sorted(self.counters.items())},
            "histograms": {
                k: h.summary() for k, h in sorted(self.histograms.items())
            },
        }


# -- the process-wide active registry ----------------------------------

_active: Optional[MetricsRegistry] = None


def active() -> Optional[MetricsRegistry]:
    """The installed registry, or ``None`` when telemetry is disabled."""
    return _active


def enabled() -> bool:
    return _active is not None


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install ``registry`` (or a fresh one) as the active registry."""
    global _active
    _active = registry if registry is not None else MetricsRegistry()
    return _active


def disable() -> Optional[MetricsRegistry]:
    """Deactivate telemetry, returning the registry that was active."""
    global _active
    previous = _active
    _active = None
    return previous


@contextmanager
def telemetry_scope(registry: Optional[MetricsRegistry] = None):
    """Temporarily enable telemetry, restoring the previous state."""
    global _active
    previous = _active
    reg = enable(registry)
    try:
        yield reg
    finally:
        _active = previous


# -- zero-overhead module-level recording API --------------------------
#
# Instrumentation sites call these; each is one global read + None
# check when telemetry is disabled.


def count(name: str, n: int = 1, **labels) -> None:
    reg = _active
    if reg is not None:
        reg.count(name, n, **labels)


def observe(name: str, value: float, **labels) -> None:
    reg = _active
    if reg is not None:
        reg.observe(name, value, **labels)
