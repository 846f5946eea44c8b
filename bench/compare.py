"""Compare two benchmark results: ``python bench/compare.py A.json B.json``.

``A`` is the parent, ``B`` the change; both are ``bench/run.py --out``
files.  For every (end-to-end metric, workload) it prints one verdict,
using the bounds in ``BENCHMARK.json``:

- ``unresolved``: either side's IQR is wider than the bound, unless
  every run of B reads better than every run of A;
- ``regressed``: B's median is worse than A's by more than the bound;
- ``improved``: B wins at least nine tenths of at least ten paired runs
  (pass i of A against pass i of B, so use ``--passes 10``) and the
  medians differ by more than A's IQR; the same with fewer pairs reads
  ``unresolved``;
- ``unchanged``: otherwise.

Failed ops compare absolutely: any rise in the failed fraction counts
as a regression.  Per-layer ``self_s`` deltas follow when both files
hold a traced pass.  Exits 1 on any regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Paired runs a gain needs before it is claimed.
MIN_PAIRS = 10


def _worse(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    rel = (b - a) / abs(a)
    return rel if better == "lower" else -rel


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    """Verdict for one metric; ``a`` and ``b`` are ``bench/run.py``
    summaries (``median``, ``iqr``, ``samples``)."""
    sign = 1.0 if better == "lower" else -1.0
    a_runs = [sign * v for v in a["samples"]]
    b_runs = [sign * v for v in b["samples"]]
    spread = max(a["iqr"] / abs(a["median"]) if a["median"] else 0.0,
                 b["iqr"] / abs(b["median"]) if b["median"] else 0.0)
    if spread > bound:
        return "improved" if max(b_runs) < min(a_runs) else "unresolved"
    if _worse(a["median"], b["median"], better) > bound:
        return "regressed"
    pairs = list(zip(a_runs, b_runs))
    wins = sum(bv < av for av, bv in pairs)
    if (pairs and wins >= 0.9 * len(pairs)
            and sign * (a["median"] - b["median"]) > a["iqr"]):
        return "improved" if len(pairs) >= MIN_PAIRS else "unresolved"
    return "unchanged"


def _failed_frac(res: dict) -> float:
    return res["failed"] / res["attempted"] if res["attempted"] else 0.0


def compare(a: dict, b: dict, contract: dict) -> int:
    """Print the verdicts; returns the number of regressions."""
    regressions = 0
    print(f"{'workload':<16} {'metric':<12} {'A median':>10} {'B median':>10} "
          f"{'change':>8} {'bound':>6}  verdict")
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        for m in contract["end_to_end"]:
            sa, sb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            v = verdict(sa, sb, m["bound"], m["better"])
            regressions += v == "regressed"
            change = _worse(sa["median"], sb["median"], "lower")
            print(f"{name:<16} {m['name']:<12} {sa['median']:>10.4f} "
                  f"{sb['median']:>10.4f} {change:>+8.1%} "
                  f"{m['bound']:>6.0%}  {v}")
        fa, fb = _failed_frac(wa), _failed_frac(wb)
        v = "regressed" if fb > fa else "unchanged"
        regressions += v == "regressed"
        print(f"{name:<16} {'failed_frac':<12} {fa:>10.4f} {fb:>10.4f} "
              f"{'':>8} {'+0':>6}  {v}")
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        la = a["workloads"][name].get("per_layer")
        lb = b["workloads"][name].get("per_layer")
        if not (la and lb):
            continue
        keys = [k for k in set(la) & set(lb)
                if k.endswith(".self_s") and (la[k] or lb[k])]
        keys.sort(key=lambda k: -abs(lb[k] - la[k]))
        print(f"\n-- {name}: per-layer self time (traced pass), A -> B")
        for k in keys:
            print(f"{k:<44} {la[k]:>9.3f} {lb[k]:>9.3f} "
                  f"{lb[k] - la[k]:>+9.3f}")
    return regressions


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return 1 if compare(a, b, contract) else 0


if __name__ == "__main__":
    sys.exit(main())
