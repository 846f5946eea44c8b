"""Full-report generation: run every experiment, emit one markdown file.

``netsparse report --scale small -o report.md`` regenerates the entire
evaluation in one command — the reproduction-package equivalent of the
paper's results section.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro.experiments.runner import EXPERIMENTS, ExpTable, list_experiments
from repro.cli import _run_with_scale
from repro.parallel import get_engine

__all__ = ["generate_report"]

#: Presentation order: motivation, headline, ablation, sensitivity,
#: hardware, other settings, extensions.
_ORDER = [
    "table1", "table2", "table3", "table4", "fig10",
    "fig12", "table7", "fig13", "fig14", "fig19",
    "table8",
    "fig15", "fig16", "fig17", "fig18",
    "fig20", "table9", "switch_overheads",
    "fig21", "fig22",
    "sharing", "des_validation", "concat_virtualization", "autotune",
    "spgemm_preview", "iterative",
]


def _ordered_ids(subset: Optional[Sequence[str]]) -> List[str]:
    known = [e for e in _ORDER if e in EXPERIMENTS]
    known += [e for e in list_experiments() if e not in known]
    if subset is None:
        return known
    bad = set(subset) - set(EXPERIMENTS)
    if bad:
        raise KeyError(f"unknown experiments: {sorted(bad)}")
    return [e for e in known if e in set(subset)]


def _markdown_table(table: ExpTable) -> str:
    def cell(v):
        return f"{v:.3g}" if isinstance(v, float) else str(v)

    lines = [
        "| " + " | ".join(table.columns) + " |",
        "|" + "|".join("---" for _ in table.columns) + "|",
    ]
    for row in table.rows:
        lines.append("| " + " | ".join(cell(v) for v in row) + " |")
    return "\n".join(lines)


def generate_report(
    scale: str = "small",
    experiments: Optional[Sequence[str]] = None,
    progress=None,
) -> str:
    """Run the experiment suite and return a markdown report."""
    sections = [
        "# NetSparse reproduction report",
        "",
        f"Matrix scale: `{scale}`.  Regenerate any section with "
        f"`python -m repro.cli run <exp-id> --scale {scale}`.",
        "",
    ]
    for exp_id in _ordered_ids(experiments):
        t0 = time.time()
        table = _run_with_scale(exp_id, scale)
        elapsed = time.time() - t0
        if progress is not None:
            progress(exp_id, elapsed)
        sections.append(f"## {exp_id}: {table.title}")
        sections.append("")
        sections.append(_markdown_table(table))
        sections.append("")
        if table.paper_note:
            sections.append(f"*Paper:* {table.paper_note}")
        for note in table.notes:
            sections.append(f"*Note:* {note}")
        sections.append(f"*({elapsed:.1f}s)*")
        sections.append("")
    stats = get_engine().stats
    sections += [
        "## Execution stats",
        "",
        "| jobs | memo hits | cache hits | executed | hit rate | "
        "sim time | saved |",
        "|---|---|---|---|---|---|---|",
        f"| {stats.jobs} | {stats.memo_hits} | {stats.cache_hits} "
        f"| {stats.executed} | {stats.hit_rate * 100:.1f}% "
        f"| {stats.sim_seconds:.1f}s | {stats.saved_seconds:.1f}s |",
        "",
        "Jobs are independent simulations routed through the execution "
        "engine (`--jobs N` to parallelize); hits replay memoized "
        "results from the content-addressed cache (`netsparse cache "
        "info`).",
        "",
    ]
    return "\n".join(sections)
