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

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.parallel.batch": ("BatchPlan", "plan_batches"),
    "repro.parallel.cache": ("ResultCache", "default_cache_dir"),
    "repro.parallel.engine": ("EngineStats", "ExecutionEngine",
                              "configure_engine", "engine_scope",
                              "get_engine", "set_engine", "simulate",
                              "simulate_many"),
    "repro.parallel.jobs": ("SimJob", "execute_job"),
})
