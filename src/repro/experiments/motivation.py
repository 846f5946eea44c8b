"""Motivation-section experiments: Tables 1-4 and Figure 10 (§3, §8.1)."""

from __future__ import annotations

import numpy as np

from repro.config import NetSparseConfig
from repro.experiments.runner import ExpTable, experiment
from repro.sparse.suite import MATRIX_NAMES, load_benchmark

PAPER_TABLE1_SU = {"arabic": 1947, "europe": 582, "queen": 74,
                   "stokes": 32, "uk": 966}
PAPER_TABLE1_SA = {"arabic": 27, "europe": 0.02, "queen": 25,
                   "stokes": 3.6, "uk": 4.5}
PAPER_TABLE4 = {"arabic": 2.51, "europe": 7.43, "queen": 1.00,
                "stokes": 1.85, "uk": 5.61}


@experiment("table1")
def run_table1(scale: str = "small", n_nodes: int = 128) -> ExpTable:
    """Table 1: useful-to-redundant property-transfer ratio, SU and SA."""
    from repro.partition import cached_partition

    rows = []
    for name in MATRIX_NAMES:
        mat = load_benchmark(name, scale)
        part = cached_partition(mat, n_nodes)
        traces = part.node_traces()
        remote = sum(t.remote_count() for t in traces)
        useful = sum(t.unique_remote_count() for t in traces)
        su_recv = sum(
            int(mat.n_cols - (part.col_starts[p + 1] - part.col_starts[p]))
            for p in range(n_nodes)
        )
        su_red = (su_recv - useful) / max(useful, 1)
        sa_red = (remote - useful) / max(useful, 1)
        rows.append([name, round(su_red, 2), round(sa_red, 2),
                     PAPER_TABLE1_SU[name], PAPER_TABLE1_SA[name]])
    return ExpTable(
        exp_id="table1",
        title="Redundant transfers per useful one (1:X), 128 nodes",
        columns=["matrix", "SU 1:X", "SA 1:X", "paper SU", "paper SA"],
        rows=rows,
        paper_note="SU averages ~720 redundant transfers per useful one.",
        notes=[
            "Absolute SU ratios shrink with the matrix downscaling "
            "(they scale with total columns / unique-needed); the "
            "cross-matrix ordering is the reproduced claim."
        ],
    )


@experiment("table2")
def run_table2(scale: str = "small") -> ExpTable:
    """Table 2: vanilla-SA transfer rate / line util / goodput, 2 nodes.

    The paper measured K=32 on Delta (Slingshot, 200 Gbps); the model
    uses the calibrated per-PR software cost on our 400 Gbps config, so
    utilization percentages are what carry over.
    """
    from repro.baselines.vanilla import vanilla_sa_transfer

    paper = {"arabic": (0.5, 0.26, 0.11), "europe": (0.2, 0.09, 0.04),
             "queen": (0.7, 0.36, 0.16), "uk": (0.5, 0.25, 0.11)}
    rows = []
    for name in ("arabic", "europe", "queen", "uk"):
        mat = load_benchmark(name, scale)
        res = vanilla_sa_transfer(mat, k=32, n_nodes=2)
        p = paper[name]
        rows.append([
            name,
            round(res.transfer_rate_gbps, 2),
            round(res.line_utilization * 100, 2),
            round(res.goodput * 100, 2),
            p[0], p[1], p[2],
        ])
    return ExpTable(
        exp_id="table2",
        title="Vanilla SA transfer metrics, 2 nodes, K=32",
        columns=["matrix", "rate Gbps", "line util %", "goodput %",
                 "paper Gbps", "paper util %", "paper gput %"],
        rows=rows,
        paper_note="Average measured line utilization was 0.24%.",
    )


@experiment("table3")
def run_table3() -> ExpTable:
    """Table 3: packet-header share of SA traffic vs property size K."""
    from repro.core.protocol import header_traffic_fraction

    paper = {1: 97.6, 2: 95.2, 4: 90.9, 8: 83.3, 16: 71.4,
             32: 55.6, 64: 38.5, 128: 23.8, 256: 13.5}
    rows = [
        [k, round(header_traffic_fraction(k) * 100, 1), paper[k]]
        for k in sorted(paper)
    ]
    return ExpTable(
        exp_id="table3",
        title="Header contribution to total SA traffic (%)",
        columns=["K", "header %", "paper %"],
        rows=rows,
        paper_note="78 B of header per direction per PR pair.",
    )


@experiment("table4")
def run_table4(scale: str = "small", n_nodes: int = 128) -> ExpTable:
    """Table 4: unique destination nodes in 64 consecutive PRs."""
    from repro.partition import cached_partition

    rows = []
    for name in MATRIX_NAMES:
        mat = load_benchmark(name, scale)
        part = cached_partition(mat, n_nodes)
        uniq = []
        for tr in part.node_traces():
            d = tr.remote_owners
            for s in range(0, d.size - 64, 64):
                uniq.append(np.unique(d[s:s + 64]).size)
        avg = float(np.mean(uniq)) if uniq else 0.0
        rows.append([name, round(avg, 2), PAPER_TABLE4[name]])
    return ExpTable(
        exp_id="table4",
        title="Unique remote destinations per 64 consecutive PRs",
        columns=["matrix", "unique dests", "paper"],
        rows=rows,
        paper_note="queen is perfectly local (1.00); europe spreads most.",
    )


@experiment("fig10")
def run_fig10() -> ExpTable:
    """Figure 10: ideal SAOpt goodput (% of line rate) vs core count."""
    from repro.baselines.software import saopt_goodput_curve

    config = NetSparseConfig()
    cores = [1, 2, 4, 8, 16, 32, 64]
    rows = []
    for k in (16, 128):
        for n_cores, goodput in saopt_goodput_curve(cores, k, config):
            rows.append([k, n_cores, round(goodput * 100, 2)])
    return ExpTable(
        exp_id="fig10",
        title="Ideal SAOpt goodput vs cores in a node",
        columns=["K", "cores", "goodput %"],
        rows=rows,
        paper_note="Scales ~linearly with cores; far below 100% even at "
                   "64 high-performance cores (~10% at K=16).",
    )
