"""Batch planner: fuse compatible jobs into single-pass groups.

A sweep submits dozens of :class:`~repro.parallel.jobs.SimJob` records
that differ only along *profile-compatible* knob axes — Property-Cache
geometry (capacity / ways / line geometry / cache on-off), the RIG
batch size, and the kernel width ``k``.  Jobs in such a group share
their partition trace and the three logical memos the cluster model
keeps (:mod:`repro.cluster.model`): filter anchors, issued node
streams, and merged rack streams, each holding its hit masks and its
reuse-distance profile (:mod:`repro.core.reusedist`).  Evaluating the
group's members *consecutively in one process* is therefore a single
pass over the trace plus one cheap scoring step per knob point — the
planner's whole job is to guarantee that adjacency; it scores nothing
itself.

:func:`plan_batches` groups jobs by their **residual key**: the job's
canonical identity (:meth:`SimJob.key_dict`) with the batchable axes
deleted.  Jobs whose residual keys match land in one
:class:`BatchPlan` group; axes the profile machinery cannot fold —
concatenation-delay sweeps, unit counts, topology —
stay in the residual key, so such jobs transparently fall back to
per-job evaluation (a group of one).  Grouping never changes results:
every job still executes through :func:`timed_execute`, and the
memos it may hit are bit-exact by construction (golden-tested in
``tests/test_reusedist.py`` / ``tests/test_batch_planner.py``).

The engine (:meth:`ExecutionEngine._execute`) executes every batch of
pending jobs through the planner: groups become the unit of fan-out
(one worker evaluates a whole group so its members share the worker's
memos), folded jobs are attributed ``source="batched"`` in the run
ledger, and ``perf.batch.*`` telemetry reports groups formed, jobs
folded and profile build/score seconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.parallel.jobs import SimJob, timed_execute

__all__ = ["BatchPlan", "execute_group", "group_key", "plan_batches"]

#: Top-level ``key_dict`` axes a group may vary along.
_JOB_AXES = ("k", "rig_batch")

#: ``config`` axes a group may vary along (the pcache knob grid).
_CONFIG_AXES = ("pcache_bytes", "pcache_ways", "pcache_segments",
                "pcache_min_line")

#: ``features`` axes a group may vary along (cache on/off points of the
#: capacity sweeps).
_FEATURE_AXES = ("property_cache",)


def group_key(job: SimJob) -> str:
    """The job's residual identity: everything that must coincide for
    two jobs to share a fused single-pass group.

    Starts from the canonical :meth:`SimJob.key_dict` and deletes the
    batchable axes, so any *new* job field or config knob is
    conservatively part of the residual key until explicitly declared
    batchable — unknown axes can only split groups, never corrupt one.
    A ``compute`` job shares no stage with anything: its key is its
    digest, a group of one.
    """
    if job.scheme == "compute":
        return job.digest()
    kd = job.key_dict()
    for axis in _JOB_AXES:
        kd.pop(axis, None)
    cfg = dict(kd.get("config") or {})
    for axis in _CONFIG_AXES:
        cfg.pop(axis, None)
    feats = dict(cfg.get("features") or {})
    for axis in _FEATURE_AXES:
        feats.pop(axis, None)
    cfg["features"] = feats
    kd["config"] = cfg
    return json.dumps(kd, sort_keys=True, separators=(",", ":"))


@dataclass
class BatchPlan:
    """The planner's output: jobs fused into evaluation groups.

    ``groups`` holds every submitted job exactly once; groups appear in
    first-submission order and members keep their submission order, so
    serial evaluation of the plan visits jobs in a deterministic,
    reproducible sequence.
    """

    groups: List[List[SimJob]]

    @property
    def n_jobs(self) -> int:
        return sum(len(g) for g in self.groups)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def n_folded(self) -> int:
        """Jobs that ride along in a multi-job group (beyond each
        group's first member) — the sweep points evaluated by scoring
        instead of an independent full pass."""
        return sum(len(g) - 1 for g in self.groups if len(g) > 1)

    def describe(self) -> dict:
        """JSON-ready summary for telemetry and the bench block."""
        return {
            "jobs": self.n_jobs,
            "groups": self.n_groups,
            "folded": self.n_folded,
            "group_sizes": [len(g) for g in self.groups],
        }


def plan_batches(jobs: Sequence[SimJob]) -> BatchPlan:
    """Group ``jobs`` by residual key (see :func:`group_key`)."""
    groups: Dict[str, List[SimJob]] = {}
    order: List[str] = []
    for job in jobs:
        key = group_key(job)
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = [job]
            order.append(key)
        else:
            bucket.append(job)
    return BatchPlan(groups=[groups[key] for key in order])


def execute_group(jobs: Sequence[SimJob]) -> List[Tuple[object, float]]:
    """Evaluate one fused group; returns ``(result, elapsed)`` pairs in
    member order.

    Module-level and import-light so a process pool can map it: the
    worker that receives a group runs its members back-to-back, which
    is exactly what lets the cluster model's batch memos fold the
    shared stages.  Bit-identical to mapping :func:`timed_execute` over
    the members individually.
    """
    return [timed_execute(job) for job in jobs]
