"""Other-settings studies: Figures 21 and 22 (§9.6)."""

from __future__ import annotations

import numpy as np

from repro.config import NetSparseConfig
from repro.experiments.runner import ExpTable, compute_job, experiment
from repro.parallel import SimJob, simulate_many
from repro.sparse.suite import BENCHMARKS, MATRIX_NAMES


def _gmean(values) -> float:
    values = np.asarray(list(values), dtype=np.float64)
    return float(np.exp(np.log(values).mean()))


@experiment("fig21")
def run_fig21(scale: str = "small", k: int = 128) -> ExpTable:
    """Figure 21: end-to-end speedup with CPU compute (DDR and HBM).

    The communication results and the compute model's inputs are
    CPU-independent, so one engine batch covers them once; only the
    end-to-end composition differs per CPU.
    """
    from repro.accel import SPR_DDR, SPR_HBM
    from repro.cluster.endtoend import end_to_end_time

    cfg = NetSparseConfig()
    jobs, keys = [], []
    for name in MATRIX_NAMES:
        jobs.append(compute_job(name, scale))
        keys.append((name, "compute"))
        batch = BENCHMARKS[name].default_rig_batch
        for scheme in ("suopt", "saopt", "netsparse"):
            jobs.append(SimJob(
                scheme=scheme, matrix=name, k=k, config=cfg,
                scale_name=scale,
                rig_batch=batch if scheme == "netsparse" else None,
            ))
            keys.append((name, scheme))
    results = dict(zip(keys, simulate_many(jobs)))
    rows = []
    agg = {}
    for cpu in (SPR_DDR, SPR_HBM):
        accel = cpu.as_roofline()
        for name in MATRIX_NAMES:
            inp = results[(name, "compute")]
            comm = {
                scheme: results[(name, scheme)]
                for scheme in ("suopt", "saopt", "netsparse")
            }
            row = [cpu.name, name]
            for scheme in ("suopt", "saopt", "netsparse"):
                e2e = end_to_end_time(inp, k, comm[scheme], accel=accel)
                row.append(round(e2e.speedup_over_single_node, 2))
                agg.setdefault((cpu.name, scheme), []).append(
                    e2e.speedup_over_single_node
                )
            ideal = end_to_end_time(inp, k, comm["netsparse"],
                                    accel=accel).ideal_speedup
            row.append(round(ideal, 1))
            rows.append(row)
    for cpu_name in (SPR_DDR.name, SPR_HBM.name):
        rows.append([
            cpu_name, "gmean",
            round(_gmean(agg[(cpu_name, "suopt")]), 2),
            round(_gmean(agg[(cpu_name, "saopt")]), 2),
            round(_gmean(agg[(cpu_name, "netsparse")]), 1),
            "-",
        ])
    return ExpTable(
        exp_id="fig21",
        title="End-to-end speedup over one node, CPU compute, K=128",
        columns=["cpu", "matrix", "SUOpt", "SAOpt", "NetSparse", "ideal"],
        rows=rows,
        paper_note="Paper averages (K=128 and K=16): DDR 2.6/13/53x and "
                   "HBM 1.4/7/42x for SUOpt/SAOpt/NetSparse — faster local "
                   "compute (HBM) exposes communication more.",
    )


@experiment("fig22")
def run_fig22(scale: str = "small", k: int = 16) -> ExpTable:
    """Figure 22: NetSparse speedup over SUOpt across fabric topologies."""
    topo_names = ("leafspine", "hyperx", "dragonfly")
    jobs, keys = [], []
    for topo_name in topo_names:
        cfg = NetSparseConfig(topology=topo_name)
        for name in MATRIX_NAMES:
            batch = BENCHMARKS[name].default_rig_batch
            jobs.append(SimJob(scheme="netsparse", matrix=name, k=k,
                               config=cfg, scale_name=scale,
                               rig_batch=batch))
            keys.append((topo_name, name, "netsparse"))
            jobs.append(SimJob(scheme="suopt", matrix=name, k=k,
                               config=cfg, scale_name=scale))
            keys.append((topo_name, name, "suopt"))
    results = dict(zip(keys, simulate_many(jobs)))
    rows = []
    for topo_name in topo_names:
        for name in MATRIX_NAMES:
            ns = results[(topo_name, name, "netsparse")]
            su = results[(topo_name, name, "suopt")]
            rows.append([topo_name, name,
                         round(su.total_time / ns.total_time, 1)])
    return ExpTable(
        exp_id="fig22",
        title="NetSparse speedup over SUOpt per topology (K=16)",
        columns=["topology", "matrix", "NetSparse/SUOpt"],
        rows=rows,
        paper_note="Performance stays high on all three fabrics; the "
                   "higher-diameter HyperX hurts stokes most.",
    )
