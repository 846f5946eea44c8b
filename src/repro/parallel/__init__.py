"""Parallel, cache-aware execution of simulation jobs.

The experiment harness decomposes its work into independent
:class:`~repro.parallel.jobs.SimJob` records — one deterministic
``(matrix, K, scheme, config)`` communication simulation each — and
runs them through an :class:`~repro.parallel.engine.ExecutionEngine`
that fans jobs out across worker processes and memoizes every result
in a content-addressed cache (a SQLite :mod:`repro.store`).  Because
the simulators are fully deterministic (ties broken by explicit
priority and sequence number), a cache hit is bit-identical to
recomputation.

Typical use::

    from repro.parallel import configure_engine, simulate

    configure_engine(jobs=4, cache_dir="~/.cache/netsparse")
    result = simulate("netsparse", "arabic", k=16, scale_name="tiny")

The CLI (``netsparse run/report --jobs N [--cache-dir D | --no-cache]``)
configures the process-global default engine; library callers that do
nothing get the historical behavior (serial, uncached).
"""

from repro.parallel.batch import BatchPlan, plan_batches
from repro.parallel.cache import ResultCache, default_cache_dir
from repro.parallel.engine import (
    EngineStats,
    ExecutionEngine,
    configure_engine,
    engine_scope,
    get_engine,
    set_engine,
    simulate,
    simulate_many,
)
from repro.parallel.jobs import SimJob, execute_job

__all__ = [
    "BatchPlan",
    "EngineStats",
    "ExecutionEngine",
    "ResultCache",
    "SimJob",
    "configure_engine",
    "default_cache_dir",
    "engine_scope",
    "execute_job",
    "get_engine",
    "plan_batches",
    "set_engine",
    "simulate",
    "simulate_many",
]
