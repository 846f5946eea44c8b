"""Experiment profiling: run one experiment under full telemetry.

``netsparse profile <experiment>`` lands here.  Profiling runs the
experiment on a **fresh serial, uncached** execution engine, with the
cluster model's memos reset — cached, memoized or pooled jobs would
skip (or hide, in worker processes) the instrumented code paths — and
a :class:`MetricsRegistry` active, then writes three
artifacts next to each other::

    profile_<exp>_<scale>.json         metrics dump (counters/histograms/spans)
    profile_<exp>_<scale>.trace.json   Chrome trace_event file (Perfetto)
    profile_<exp>_<scale>.csv          flat metric table

The profiled experiment's tables are bit-identical to an unprofiled
run: telemetry only *records*, it never feeds back into a simulator.
"""

from __future__ import annotations

import inspect
import os
from dataclasses import dataclass
from typing import List, Optional

from repro.telemetry.export import (
    write_chrome_trace,
    write_metrics_csv,
    write_metrics_json,
)
from repro.telemetry.registry import MetricsRegistry, telemetry_scope

__all__ = ["ProfileResult", "breakdown_lines", "breakdown_rows",
           "profile_experiment"]

#: Counters the breakdown always surfaces (in this order), when present.
KEY_COUNTERS = [
    "cluster.filter.candidates",
    "cluster.filter.drops",
    "cluster.filter.coalesced",
    "cluster.filter.issued",
    "pcache.lookups",
    "pcache.hits",
    "concat.packets",
    "engine.jobs",
    "engine.executed",
    "dessim.prs.issued",
    "faults.watchdog.attempts",
    "faults.watchdog.timeouts",
]


@dataclass
class ProfileResult:
    """One profiled experiment run and where its artifacts went."""

    exp_id: str
    scale: str
    table: object                      # the experiment's ExpTable
    registry: MetricsRegistry
    json_path: str
    trace_path: str
    csv_path: str


def profile_experiment(
    exp_id: str,
    scale: str = "small",
    out_dir: str = ".",
    registry: Optional[MetricsRegistry] = None,
) -> ProfileResult:
    """Run ``exp_id`` instrumented and write the three artifacts."""
    # Imported lazily: profile is reachable from the CLI before the
    # (heavier) experiment registry is needed.
    from repro.cluster import reset_batch_state
    from repro.experiments import EXPERIMENTS, list_experiments
    from repro.parallel import ExecutionEngine, engine_scope

    fn = EXPERIMENTS.get(exp_id)
    if fn is None:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {list_experiments()}"
        )
    reg = registry if registry is not None else MetricsRegistry()
    # Cold cluster-model memos, like the uncached engine, so the stage
    # spans time a cold run rather than one warmed by earlier calls.
    reset_batch_state()
    with engine_scope(ExecutionEngine(jobs=1, cache=None)):
        with telemetry_scope(reg):
            with reg.span(f"profile.{exp_id}", scale=scale):
                if "scale" in inspect.signature(fn).parameters:
                    table = fn(scale=scale)
                else:
                    table = fn()

    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, f"profile_{exp_id}_{scale}")
    meta = {"experiment": exp_id, "scale": scale}
    return ProfileResult(
        exp_id=exp_id,
        scale=scale,
        table=table,
        registry=reg,
        json_path=write_metrics_json(reg, base + ".json", meta=meta),
        trace_path=write_chrome_trace(reg, base + ".trace.json"),
        csv_path=write_metrics_csv(reg, base + ".csv"),
    )


def breakdown_rows(registry: MetricsRegistry) -> List[List]:
    """Per-stage rows: ``[span, clock, count, total_s, share %]``.

    Share is within the span's clock, over the leaf stage spans (the
    all-enclosing ``profile.*`` span is excluded from the denominator).
    """
    rows: List[List] = []
    for clock in ("wall", "sim"):
        totals = registry.span_totals(clock)
        stage_total = sum(
            tot for name, (_, tot) in totals.items()
            if not name.startswith(("profile.", "engine.job", "sim."))
        )
        for name in sorted(totals):
            n, tot = totals[name]
            share = 100.0 * tot / stage_total if stage_total > 0 else 0.0
            in_denominator = not name.startswith(
                ("profile.", "engine.job", "sim.")
            )
            rows.append([
                name, clock, n, round(tot, 6),
                round(share, 1) if in_denominator else "-",
            ])
    return rows


def breakdown_lines(registry: MetricsRegistry) -> List[str]:
    """Human-readable per-stage breakdown + key counters."""
    lines = ["-- span breakdown (per clock) --"]
    for name, clock, n, tot, share in breakdown_rows(registry):
        pct = f"{share:5.1f}%" if share != "-" else "     -"
        lines.append(f"  {name:<28s} [{clock}] n={n:<5d} {tot:>10.4f}s {pct}")
    counters = {k: c.value for k, c in registry.counters.items()}
    shown = [k for k in KEY_COUNTERS if k in counters]
    if shown:
        lines.append("-- key counters --")
        for k in shown:
            lines.append(f"  {k:<28s} {counters[k]}")
    hists = registry.histograms
    if hists:
        lines.append("-- histograms --")
        for k in sorted(hists):
            if "{" in k:               # labelled siblings stay in the JSON
                continue
            s = hists[k].summary()
            if s["count"]:
                lines.append(
                    f"  {k:<28s} n={s['count']} mean={s['mean']:.4g} "
                    f"p50={s['p50']:.4g} p99={s['p99']:.4g}"
                )
    return lines
