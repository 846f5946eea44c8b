#!/usr/bin/env python3
"""Compare the two most recent ``BENCH_*.json`` perf snapshots.

The benchmark session (``benchmarks/conftest.py``) appends one
machine-readable snapshot per run; this script diffs the newest against
the previous one, prints a per-test wall-time table, and flags
regressions above a threshold (default 20%).

Intended uses:

- CI (non-blocking): collects snapshots from the checkout *and* the
  fresh ``bench-artifacts/`` output, emitting GitHub ``::warning``
  annotations for regressions while always exiting 0 unless
  ``--strict`` is given.
- Locally: ``python scripts/bench_compare.py`` after a benchmark run
  shows what this change did to the perf trajectory.
- Against the result store: ``--from-store <dsn>`` (or the value of
  ``$REPRO_STORE_DSN``) diffs the two newest ``bench``-kind artifacts
  the benchmark session uploaded, so machines that never share a
  filesystem can still compare trajectories.

Wall time is compared per test; the session-wide peak RSS (the
``memory.peak_rss_mb`` block written since the sharded-trace work) is
compared per snapshot under its own, looser threshold — memory is
noisier than wall time, but a paper-scale sweep that silently doubles
its resident set is exactly the regression the shard/spill tier exists
to prevent.  Tests present in one snapshot but not the other are
reported informationally.  Snapshots at different
``REPRO_BENCH_SCALE`` settings are never compared (neither walls nor
peak RSS are commensurable across scales).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Dict, List, Tuple

DEFAULT_THRESHOLD = 0.20
DEFAULT_MEM_THRESHOLD = 0.25


def collect_snapshots(locations: List[str]) -> List[str]:
    """All BENCH_*.json files under the given files/directories."""
    paths = []
    for loc in locations:
        if os.path.isdir(loc):
            paths.extend(glob.glob(os.path.join(loc, "BENCH_*.json")))
        elif os.path.isfile(loc):
            paths.append(loc)
    # De-duplicate, then order oldest -> newest.  The snapshot's own
    # timestamp outranks mtime (checkouts reset mtimes).
    uniq = sorted(set(os.path.abspath(p) for p in paths))

    def sort_key(path: str) -> Tuple[str, float]:
        try:
            with open(path) as fh:
                stamp = json.load(fh).get("timestamp", "")
        except (OSError, json.JSONDecodeError):
            stamp = ""
        return (stamp, os.path.getmtime(path))

    return sorted(uniq, key=sort_key)


def load_walls(path: str) -> Tuple[dict, Dict[str, float]]:
    with open(path) as fh:
        data = json.load(fh)
    walls = {
        rec["test"]: float(rec["wall_s"])
        for rec in data.get("results", [])
        if "test" in rec and "wall_s" in rec
    }
    return data, walls


def short_name(test: str) -> str:
    return test.split("::")[-1]


def compare_memory(base_meta: dict, new_meta: dict, threshold: float,
                   annotate: bool) -> List[str]:
    """Diff session-wide peak RSS; returns ["memory"] on regression.

    Old snapshots predate the ``memory`` block — a missing side just
    skips the comparison instead of failing it.
    """
    base_mb = (base_meta.get("memory") or {}).get("peak_rss_mb")
    new_mb = (new_meta.get("memory") or {}).get("peak_rss_mb")
    if not base_mb or not new_mb:
        print("peak RSS: not recorded on both sides -- skipping")
        return []
    delta = (new_mb - base_mb) / base_mb
    marker = ""
    if delta > threshold:
        marker = "  << MEMORY REGRESSION"
        if annotate:
            print(f"::warning title=bench memory regression::peak RSS "
                  f"{base_mb:.0f}MiB -> {new_mb:.0f}MiB (+{delta:.0%})")
    elif delta < -threshold:
        marker = "  (improved)"
    print(f"peak RSS: {base_mb:.0f}MiB -> {new_mb:.0f}MiB "
          f"({delta:+.0%}){marker}")
    return ["memory"] if delta > threshold else []


def compare(base_path: str, new_path: str, threshold: float,
            annotate: bool,
            mem_threshold: float = DEFAULT_MEM_THRESHOLD) -> List[str]:
    """Print the diff table; return the list of regressed test names."""
    base_meta, base = load_walls(base_path)
    new_meta, new = load_walls(new_path)
    print(f"base: {base_path}  ({base_meta.get('timestamp', '?')}, "
          f"scale={base_meta.get('scale', '?')})")
    print(f"new:  {new_path}  ({new_meta.get('timestamp', '?')}, "
          f"scale={new_meta.get('scale', '?')})")
    if base_meta.get("scale") != new_meta.get("scale"):
        print("scales differ -- refusing to compare wall times")
        return []

    regressions = []
    shared = sorted(set(base) & set(new))
    if not shared:
        print("no tests in common")
        return compare_memory(base_meta, new_meta, mem_threshold, annotate)
    width = max(len(short_name(t)) for t in shared)
    print(f"{'test':<{width}}  {'base s':>8}  {'new s':>8}  {'delta':>7}")
    for test in shared:
        b, n = base[test], new[test]
        delta = (n - b) / b if b > 0 else 0.0
        marker = ""
        if b > 0 and delta > threshold:
            marker = "  << REGRESSION"
            regressions.append(test)
            if annotate:
                print(f"::warning title=bench regression::{test} "
                      f"wall {b:.2f}s -> {n:.2f}s (+{delta:.0%})")
        elif b > 0 and delta < -threshold:
            marker = "  (improved)"
        print(f"{short_name(test):<{width}}  {b:>8.3f}  {n:>8.3f}  "
              f"{delta:>+6.0%}{marker}")
    for test in sorted(set(new) - set(base)):
        print(f"{short_name(test):<{width}}  {'-':>8}  "
              f"{new[test]:>8.3f}     new")
    for test in sorted(set(base) - set(new)):
        print(f"{short_name(test):<{width}}  {base[test]:>8.3f}  "
              f"{'-':>8}     gone")
    regressions += compare_memory(base_meta, new_meta, mem_threshold,
                                  annotate)
    return regressions


def snapshots_from_store(dsn: str) -> List[str]:
    """Materialize the two newest ``bench`` artifacts as temp files.

    Returns their paths oldest-first (the order ``compare`` expects),
    or fewer than two when the store holds no baseline yet.
    """
    import tempfile

    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    from repro.store import open_store

    store = open_store(dsn)
    artifacts = store.latest_artifacts("bench", limit=2)
    paths = []
    for art in reversed(artifacts):  # newest-first -> oldest-first
        fd, path = tempfile.mkstemp(
            prefix="BENCH_store_", suffix=".json")
        with os.fdopen(fd, "wb") as fh:
            fh.write(art["content"])
        print(f"fetched {art['name']} ({art['sha256'][:12]}) -> {path}")
        paths.append(path)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="diff the two most recent BENCH_*.json snapshots"
    )
    parser.add_argument(
        "locations", nargs="*", default=None, metavar="PATH",
        help="files or directories to search (default: repo root "
             "and bench-artifacts/)",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="relative wall-time increase flagged as a regression "
             "(default 0.20)",
    )
    parser.add_argument(
        "--mem-threshold", type=float, default=DEFAULT_MEM_THRESHOLD,
        help="relative session peak-RSS increase flagged as a memory "
             "regression (default 0.25)",
    )
    parser.add_argument(
        "--github", action="store_true",
        help="emit ::warning annotations for regressions",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 when regressions are found (default: always 0, "
             "for non-blocking CI)",
    )
    parser.add_argument(
        "--from-store", nargs="?", const="", default=None, metavar="DSN",
        help="diff the two newest 'bench' artifacts from the result "
             "store instead of local files (DSN defaults to "
             "$REPRO_STORE_DSN)",
    )
    args = parser.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if args.from_store is not None:
        dsn = args.from_store or os.environ.get("REPRO_STORE_DSN")
        if not dsn:
            print("--from-store needs a DSN argument or $REPRO_STORE_DSN",
                  file=sys.stderr)
            return 2
        locations = [f"store:{dsn}"]
        snapshots = snapshots_from_store(dsn)
    else:
        locations = args.locations or [root,
                                       os.path.join(root, "bench-artifacts")]
        snapshots = collect_snapshots(locations)
    if len(snapshots) < 2:
        # First run of a fresh checkout (or a cleared artifacts dir):
        # there is no baseline yet, which is a normal state, not an
        # error — succeed quietly so CI stays green, and leave a
        # ::notice so the run explains itself.
        what = ("no benchmark snapshots" if not snapshots
                else f"only one snapshot ({snapshots[0]})")
        msg = (f"{what} under {locations}; no baseline to compare "
               "against -- skipping (the next run will diff against "
               "this one)")
        print(msg)
        if args.github:
            print(f"::notice title=bench compare::no baseline: {msg}")
        return 0
    regressions = compare(snapshots[-2], snapshots[-1], args.threshold,
                          annotate=args.github,
                          mem_threshold=args.mem_threshold)
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{args.threshold:.0%}")
        return 1 if args.strict else 0
    print("\nno regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
