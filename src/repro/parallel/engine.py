"""The execution engine: fan jobs out, memoize every result.

Three layers answer a :class:`~repro.parallel.jobs.SimJob`:

1. an in-process memo (duplicate jobs inside one run, across every
   experiment),
2. the content-addressed :class:`ResultCache` (repeat runs),
3. real execution of the batch planner's groups — serial, or mapped
   over a ``ProcessPoolExecutor`` when the engine was configured with
   ``jobs > 1``.

Parallel and serial execution are bit-identical: every simulator is
deterministic, and results are reassembled by content digest in the
caller's submission order.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro import telemetry
from repro.config import NetSparseConfig
from repro.core import reusedist
from repro.parallel.batch import execute_group, plan_batches
from repro.parallel.cache import ResultCache
from repro.parallel.jobs import SimJob, timed_execute

__all__ = [
    "EngineStats",
    "ExecutionEngine",
    "configure_engine",
    "engine_scope",
    "get_engine",
    "set_engine",
    "simulate",
    "simulate_many",
]


@dataclass
class EngineStats:
    """Hit/miss/timing counters surfaced by the CLI and the report."""

    jobs: int = 0            # jobs requested
    memo_hits: int = 0       # answered from the in-process memo
    cache_hits: int = 0      # answered from the on-disk cache
    executed: int = 0        # actually simulated (cache misses)
    batched: int = 0         # executed as a fused-group rider
    sim_seconds: float = 0.0    # compute spent executing jobs
    saved_seconds: float = 0.0  # recorded compute answered from cache

    @property
    def hit_rate(self) -> float:
        if self.jobs == 0:
            return 0.0
        return (self.memo_hits + self.cache_hits) / self.jobs

    def summary(self) -> str:
        return (
            f"jobs={self.jobs} memo-hits={self.memo_hits} "
            f"cache-hits={self.cache_hits} executed={self.executed} "
            f"batched={self.batched} hit-rate={self.hit_rate:.0%} "
            f"sim={self.sim_seconds:.1f}s saved={self.saved_seconds:.1f}s"
        )

    def as_dict(self) -> dict:
        """JSON-ready view of the counters."""
        return {
            "jobs": self.jobs,
            "memo_hits": self.memo_hits,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "batched": self.batched,
            "hit_rate": round(self.hit_rate, 4),
            "sim_seconds": round(self.sim_seconds, 4),
            "saved_seconds": round(self.saved_seconds, 4),
        }


def _pool_context():
    # fork shares the parent's already-generated matrices for free;
    # fall back to the platform default (spawn) where unavailable.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


class ExecutionEngine:
    """Runs batches of :class:`SimJob` with memoization and fan-out."""

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None):
        self.jobs = max(int(jobs), 1)
        self.cache = cache
        #: Ambient attribution for the run ledger (``experiment`` is the
        #: CLI's experiment id).
        self.context: Dict[str, str] = {}
        self.stats = EngineStats()
        self._memo: Dict[str, object] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()

    # -- execution -----------------------------------------------------

    def run_jobs(self, jobs: Sequence[SimJob]) -> List[object]:
        """Results for ``jobs``, in order; each distinct job runs once."""
        jobs = list(jobs)
        digests = [job.digest() for job in jobs]
        pending: Dict[str, SimJob] = {}
        answered: List = []            # (job, digest, source) for the ledger
        with self._lock:
            for digest, job in zip(digests, jobs):
                self.stats.jobs += 1
                telemetry.count("engine.jobs")
                if digest in self._memo or digest in pending:
                    self.stats.memo_hits += 1
                    telemetry.count("engine.memo_hits")
                    answered.append((job, digest, "memo"))
                    continue
                entry = self.cache.get(digest) if self.cache else None
                if entry is not None:
                    self._memo[digest] = entry.result
                    self.stats.cache_hits += 1
                    self.stats.saved_seconds += entry.elapsed
                    telemetry.count("engine.cache_hits")
                    answered.append((job, digest, "cache"))
                else:
                    pending[digest] = job
        for job, digest, source in answered:
            self._record_run(job, digest, source)
        if pending:
            self._execute(pending)
        with self._lock:
            return [self._memo[digest] for digest in digests]

    # -- run ledger ----------------------------------------------------

    def _store(self):
        """The cache's store, or ``None`` (uncached, or unusable)."""
        return self.cache.store if self.cache is not None else None

    def _record_run(self, job: SimJob, digest: str, source: str,
                    elapsed: float = 0.0) -> None:
        """Append one row to the store's run ledger (best-effort: the
        ledger is an audit trail, never a point of failure)."""
        store = self._store()
        if store is None:
            return
        try:
            store.record_run(digest, source=source, elapsed=elapsed,
                             meta=job.describe(),
                             experiment=self.context.get("experiment"))
        except Exception:
            telemetry.count("store.errors", op="ledger")

    def run_job(self, job: SimJob):
        return self.run_jobs([job])[0]

    def _execute(self, pending: Dict[str, SimJob]) -> None:
        """Evaluate the planner's fused groups.

        Each group's members run back-to-back — in one pool worker, or
        consecutively on the serial path — so the cluster model's
        logical memos fold their shared stages.  Results are identical
        to evaluating each job alone; only attribution
        (``source="batched"`` for group riders) and wall time differ.
        Worker processes carry their own (disabled) telemetry, so a
        pooled job's simulator counters (``cluster.filter.*``,
        ``pcache.*``) never reach the parent's registry.
        """
        digest_of = {job: digest for digest, job in pending.items()}
        plan = plan_batches(list(pending.values()))
        telemetry.count("perf.batch.groups", plan.n_groups)
        telemetry.count("perf.batch.folded", plan.n_folded)
        prof0 = reusedist.profile_stats()
        pool = None
        if self.jobs > 1 and plan.n_groups > 1:
            if self._pool is None:
                self._prewarm_traces(list(pending.values()))
            pool = self._ensure_pool()
            group_outcomes = pool.map(execute_group, plan.groups,
                                      chunksize=1)
        else:
            group_outcomes = (
                [timed_execute(job) for job in group]
                for group in plan.groups
            )
        try:
            for group, outcomes in zip(plan.groups, group_outcomes):
                for rank, (job, (result, elapsed)) in enumerate(
                        zip(group, outcomes)):
                    source = ("batched" if rank and len(group) > 1
                              else "executed")
                    self._note_executed(digest_of[job], job, result,
                                        elapsed, source=source)
        except BrokenProcessPool:
            # A dead worker breaks the executor for good.  Detach it, as
            # close() does, so the next batch forks a fresh pool; the
            # groups not yet noted left nothing in the memo or cache.
            with self._lock:
                if self._pool is pool:
                    self._pool = None
            pool.shutdown(wait=True, cancel_futures=True)
            raise
        prof1 = reusedist.profile_stats()
        build = prof1["build_seconds"] - prof0["build_seconds"]
        score = prof1["score_seconds"] - prof0["score_seconds"]
        if build or score:
            telemetry.observe("perf.batch.profile.build_seconds", build)
            telemetry.observe("perf.batch.profile.score_seconds", score)

    def _note_executed(self, digest: str, job: SimJob, result,
                       elapsed: float, source: str = "executed") -> None:
        with self._lock:
            self._memo[digest] = result
            self.stats.executed += 1
            self.stats.sim_seconds += elapsed
            if source == "batched":
                self.stats.batched += 1
        telemetry.count("engine.executed")
        telemetry.observe("engine.job.seconds", elapsed, scheme=job.scheme)
        if self.cache is not None:
            self.cache.put(digest, result, meta=job.describe(),
                           elapsed=elapsed)
        self._record_run(job, digest, source, elapsed=elapsed)

    @staticmethod
    def _trace_key(job: SimJob) -> tuple:
        """The (partition, trace) identity a job draws from the
        :class:`~repro.partition.tracecache.TraceCache`."""
        kind = (
            "nnz"
            if job.scheme == "netsparse" and job.partition == "nnz"
            else "rows"
        )
        return (job.matrix, job.scale_name, job.seed,
                job.config.n_nodes, kind)

    @staticmethod
    def _prewarm_traces(jobs: Sequence[SimJob]) -> None:
        """Build the batch's distinct partitions + traces in the parent
        *before* the pool forks, so workers inherit the TraceCache
        entries copy-on-write instead of each rebuilding them.  Only
        worth doing for the fork that creates the pool; bounded by the
        cache size so prewarming never evicts what it just built."""
        from repro.partition import get_trace_cache
        from repro.sparse.suite import load_benchmark

        trace_cache = get_trace_cache()
        seen = set()
        for job in jobs:
            key = ExecutionEngine._trace_key(job)
            if key in seen:
                continue
            if len(seen) >= trace_cache.max_entries:
                break
            seen.add(key)
            mat = load_benchmark(job.matrix, job.scale_name, seed=job.seed)
            trace_cache.get_partition(mat, job.config.n_nodes, kind=key[-1])
            telemetry.count("perf.trace_cache.prewarmed")

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs, mp_context=_pool_context()
                )
            return self._pool

    def close(self) -> None:
        """Release the process pool.  Idempotent and safe to call from
        several threads at once: the pool is detached under the lock (so
        only one caller shuts it down) and later calls are no-ops.  A
        closed engine still answers ``run_jobs``; a batch that needs the
        pool opens a new one."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- process-global default engine ------------------------------------

_default_engine: Optional[ExecutionEngine] = None
_engine_lock = threading.Lock()


def get_engine() -> ExecutionEngine:
    """The process default: serial and uncached until configured."""
    global _default_engine
    if _default_engine is None:
        with _engine_lock:
            if _default_engine is None:
                _default_engine = ExecutionEngine()
    return _default_engine


def configure_engine(jobs: int = 1, cache_dir=None,
                     use_cache: bool = True) -> ExecutionEngine:
    """Install (and return) a new default engine — the CLI entry point.

    The replacement is built *before* the previous default is touched,
    so a failing :class:`ResultCache` constructor (bad ``cache_dir``)
    leaves the old engine installed and its pools open.
    """
    global _default_engine
    cache = ResultCache(cache_dir) if use_cache else None
    engine = ExecutionEngine(jobs=jobs, cache=cache)
    with _engine_lock:
        previous = _default_engine
        _default_engine = engine
    if previous is not None:
        previous.close()
    return engine


def set_engine(engine: Optional[ExecutionEngine]) -> Optional[ExecutionEngine]:
    """Swap the default engine, returning the previous one (tests).

    The swap itself is atomic under a module lock, so two threads
    swapping concurrently always see a consistent previous engine —
    nesting :func:`engine_scope` across *different* threads still
    needs external coordination, but can no longer tear the global."""
    global _default_engine
    with _engine_lock:
        previous = _default_engine
        _default_engine = engine
        return previous


@contextmanager
def engine_scope(engine: ExecutionEngine):
    """Temporarily make ``engine`` the default, restoring on exit."""
    previous = set_engine(engine)
    try:
        yield engine
    finally:
        set_engine(previous)


# -- convenience front door -------------------------------------------


def simulate(scheme: str, matrix: str, k: int, *, config=None,
             scale_name: str = "small", seed: int = 7,
             rig_batch: Optional[int] = None, scale: Optional[float] = None,
             topology=None, partition: str = "rows"):
    """One simulation through the default engine (memo + cache aware)."""
    job = SimJob(scheme=scheme, matrix=matrix, k=k,
                 config=config or NetSparseConfig(), scale_name=scale_name,
                 seed=seed, rig_batch=rig_batch, scale=scale,
                 topology=topology, partition=partition)
    return get_engine().run_job(job)


def simulate_many(jobs: Sequence[SimJob]) -> List[object]:
    """A batch of simulations through the default engine."""
    return get_engine().run_jobs(jobs)
