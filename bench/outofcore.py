"""The ``outofcore-large`` op: a SimJob grid on sharded matrices.

Usage::

    python bench/outofcore.py --setup --scale large --seed 7
    python bench/outofcore.py --scale large --seed 7 --cache-dir DIR

The scale must be one that loads sharded (``large`` does; the smoke run
adds ``tiny`` through ``REPRO_SHARDED_SCALES``).  ``--setup`` only
generates the shard stores under ``$REPRO_SHARD_DIR``.
Without it, the grid {queen, europe} x K {16, 128} x {suopt, saopt,
netsparse} runs through ``repro.parallel.simulate_many`` on a fresh
engine, then ``end_to_end_time`` for each NetSparse result.  Traces are
held in a ``TraceCache`` with a resident budget, so the spill tier is
live.  Stdout has one line per result with every scalar at full
precision and a hash of the per-node arrays; the benchmark digests it.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

from repro.cluster import end_to_end_time
from repro.config import NetSparseConfig
from repro.parallel import SimJob, configure_engine, simulate_many
from repro.partition import TraceCache, set_trace_cache
from repro.sparse.suite import load_benchmark, sharded_scales

MATRICES = ("queen", "europe")
KS = (16, 128)
SCHEMES = ("suopt", "saopt", "netsparse")

#: Resident trace budget (idx elements) for the grid's TraceCache.
SPILL_NNZ = 8 * 1024 * 1024

_ARRAYS = ("per_node_time", "recv_wire_bytes", "sent_wire_bytes",
           "useful_payload_bytes", "pr_gen_time")
_SCALARS = ("total_time", "n_pr_candidates", "n_prs_issued", "n_filtered",
            "n_coalesced", "n_packets", "cache_lookups", "cache_hits")


def result_line(job, comm, e2e=None) -> str:
    """One result as text: scalars by ``repr`` and a sha256 over the
    per-node arrays, so any changed bit changes the line."""
    h = hashlib.sha256()
    for name in _ARRAYS:
        h.update(np.ascontiguousarray(getattr(comm, name),
                                      dtype=np.float64).tobytes())
    fields = [f"{job.matrix}/{job.scheme}/k={job.k}"]
    fields += [f"{name}={getattr(comm, name)!r}" for name in _SCALARS]
    if e2e is not None:
        fields += [f"e2e_total={e2e.total_time!r}",
                   f"e2e_compute={e2e.compute_time!r}",
                   f"e2e_single={e2e.single_node_time!r}"]
    fields.append(f"arrays={h.hexdigest()[:32]}")
    return " ".join(fields)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", default="large")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--cache-dir", default=None)
    ap.add_argument("--setup", action="store_true")
    args = ap.parse_args(argv)
    if args.scale not in sharded_scales():
        ap.error(f"scale {args.scale!r} does not load sharded")

    if args.setup:
        for name in MATRICES:
            mat = load_benchmark(name, args.scale, seed=args.seed)
            print(f"{name}: {mat.nnz} nnz")
        return 0

    set_trace_cache(TraceCache(max_resident_nnz=SPILL_NNZ))
    configure_engine(jobs=1, cache_dir=args.cache_dir,
                     use_cache=args.cache_dir is not None)
    mats = {name: load_benchmark(name, args.scale, seed=args.seed)
            for name in MATRICES}
    cfg = NetSparseConfig()
    jobs = [SimJob(scheme=scheme, matrix=name, k=k, config=cfg,
                   scale_name=args.scale, seed=args.seed)
            for name in MATRICES for k in KS for scheme in SCHEMES]
    for job, comm in zip(jobs, simulate_many(jobs)):
        e2e = (end_to_end_time(mats[job.matrix], job.k, comm)
               if job.scheme == "netsparse" else None)
        print(result_line(job, comm, e2e))
    return 0


if __name__ == "__main__":
    sys.exit(main())
