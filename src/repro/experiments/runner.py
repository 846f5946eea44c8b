"""Experiment registry, result tables, and shared scheme runners."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.config import NetSparseConfig
from repro.parallel import SimJob, get_engine
from repro.sparse.suite import BENCHMARKS, load_benchmark, scale_factor

__all__ = [
    "EXPERIMENTS",
    "ExpTable",
    "compute_job",
    "experiment",
    "list_experiments",
    "run_experiment",
    "run_schemes",
]

EXPERIMENTS: Dict[str, Callable[..., "ExpTable"]] = {}


@dataclass
class ExpTable:
    """One regenerated table or figure as tabular data."""

    exp_id: str
    title: str
    columns: List[str]
    rows: List[List]
    paper_note: str = ""
    notes: List[str] = field(default_factory=list)

    def format(self, float_fmt: str = "{:.3g}") -> str:
        def cell(v) -> str:
            if isinstance(v, float):
                return float_fmt.format(v)
            return str(v)

        table = [self.columns] + [[cell(v) for v in row] for row in self.rows]
        widths = [
            max(len(r[c]) for r in table) for c in range(len(self.columns))
        ]
        lines = [f"== {self.exp_id}: {self.title} =="]
        for i, row in enumerate(table):
            lines.append(
                "  ".join(v.rjust(w) for v, w in zip(row, widths))
            )
            if i == 0:
                lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
        if self.paper_note:
            lines.append(f"[paper] {self.paper_note}")
        for note in self.notes:
            lines.append(f"[note]  {note}")
        return "\n".join(lines)

    def column(self, name: str) -> List:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def row_by(self, key_col: str, key) -> List:
        idx = self.columns.index(key_col)
        for row in self.rows:
            if row[idx] == key:
                return row
        raise KeyError(f"no row with {key_col}={key!r}")


def experiment(exp_id: str):
    """Register an experiment runner under its paper id."""

    def deco(fn):
        if exp_id in EXPERIMENTS:
            raise ValueError(f"duplicate experiment id {exp_id!r}")
        EXPERIMENTS[exp_id] = fn
        fn.exp_id = exp_id
        return fn

    return deco


def list_experiments() -> List[str]:
    return sorted(EXPERIMENTS)


def run_experiment(exp_id: str, **kwargs) -> ExpTable:
    try:
        fn = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {list_experiments()}"
        ) from None
    return fn(**kwargs)


# -- shared runners ------------------------------------------------------


def compute_job(name: str, scale_name: str = "small", seed: int = 7) -> SimJob:
    """The engine job whose result is the end-to-end compute model's
    :class:`~repro.cluster.endtoend.ComputeInputs` for one matrix.

    ``k`` is fixed and the config is the default, so every end-to-end
    figure shares one cached result per (matrix, scale, seed) and a
    fully cached figure loads no matrix."""
    return SimJob(scheme="compute", matrix=name, k=1,
                  config=NetSparseConfig(), scale_name=scale_name, seed=seed)


def run_schemes(
    name: str,
    k: int,
    config: Optional[NetSparseConfig] = None,
    scale_name: str = "small",
    schemes: Sequence[str] = ("netsparse", "saopt", "suopt"),
    topology=None,
    rig_batch: Optional[int] = None,
    seed: int = 7,
):
    """Run the requested communication schemes for one (matrix, K).

    Returns ``{scheme: CommResult}`` only: callers that need the matrix
    load it themselves, so a fully cached run generates none.  The work
    decomposes into one independent job per scheme and runs through
    the process-global execution engine (parallel fan-out and result
    memoization, see :mod:`repro.parallel`).  Passing an explicit
    ``topology`` object bypasses the engine (arbitrary fabrics are not
    content-addressable) and loads the matrix in this process.
    """
    config = config or NetSparseConfig()
    if rig_batch is None:
        rig_batch = BENCHMARKS[name].default_rig_batch
    out = {}
    if topology is not None:
        from repro.baselines.saopt import simulate_saopt
        from repro.baselines.su import simulate_suopt
        from repro.cluster.model import simulate_netsparse

        mat = load_benchmark(name, scale_name, seed=seed)
        sc = scale_factor(name, mat)
        if "netsparse" in schemes:
            out["netsparse"] = simulate_netsparse(
                mat, k, config, topology, rig_batch=rig_batch, scale=sc
            )
        if "saopt" in schemes:
            out["saopt"] = simulate_saopt(mat, k, config, scale=sc)
        if "suopt" in schemes:
            out["suopt"] = simulate_suopt(mat, k, config)
    else:
        jobs = [
            SimJob(scheme=s, matrix=name, k=k, config=config,
                   scale_name=scale_name, seed=seed,
                   rig_batch=rig_batch if s == "netsparse" else None)
            for s in schemes
        ]
        out.update(zip(schemes, get_engine().run_jobs(jobs)))
    return out
