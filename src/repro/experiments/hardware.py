"""Hardware overheads: Figure 20 and Table 9 (§9.5)."""

from __future__ import annotations

from repro.experiments.runner import ExpTable, experiment

PAPER_TABLE9 = {"Idx Buffer": 12, "Pend. PR Table": 53, "Prop. Buffer": 12,
                "LSQ": 10, "Rest": 13}


@experiment("fig20")
def run_fig20() -> ExpTable:
    """Figure 20: per-structure power and area of the SNIC extensions."""
    from repro.hw.snic import snic_overheads, snic_storage_bytes, snic_totals

    parts = snic_overheads()
    rows = []
    for name, cost in parts.items():
        rows.append([
            name,
            round(cost.area_mm2, 3),
            round(cost.static_w * 1000, 1),
            round(cost.dynamic_w * 1000, 1),
        ])
    total = snic_totals()
    rows.append(["TOTAL", round(total.area_mm2, 2),
                 round(total.static_w * 1000, 1),
                 round(total.dynamic_w * 1000, 1)])
    return ExpTable(
        exp_id="fig20",
        title="SNIC extension overheads at 10 nm",
        columns=["structure", "area mm^2", "static mW", "dynamic mW"],
        rows=rows,
        paper_note="Paper: combined 1.43 mm^2 / 2.1 W max; L2s dominate "
                   "area and static power, RIG Units dominate dynamic "
                   f"power; total storage ~3.5 MB (ours: "
                   f"{snic_storage_bytes() / 1e6:.2f} MB).",
    )


@experiment("table9")
def run_table9() -> ExpTable:
    """Table 9: contribution of each structure to RIG Unit area."""
    from repro.hw.snic import rig_unit_area_breakdown

    shares = rig_unit_area_breakdown()
    rows = [
        [name, round(share * 100), PAPER_TABLE9[name]]
        for name, share in shares.items()
    ]
    return ExpTable(
        exp_id="table9",
        title="RIG Unit area breakdown",
        columns=["structure", "area %", "paper %"],
        rows=rows,
        paper_note="The Pending PR Table CAM dominates.",
    )


@experiment("switch_overheads")
def run_switch_overheads() -> ExpTable:
    """§9.5 item 2: ToR switch extension overheads (text, not a figure)."""
    from repro.hw.switch import (crossbar_area_range_mm2, switch_overheads,
                                 switch_totals)

    parts = switch_overheads()
    rows = [
        [name, round(c.area_mm2, 1), round(c.total_power_w, 2)]
        for name, c in parts.items()
    ]
    total = switch_totals()
    rows.append(["TOTAL", round(total.area_mm2, 1),
                 round(total.total_power_w, 2)])
    lo, hi = crossbar_area_range_mm2()
    return ExpTable(
        exp_id="switch_overheads",
        title="ToR switch extension overheads at 10 nm",
        columns=["structure", "area mm^2", "power W"],
        rows=rows,
        paper_note=f"Paper: caches 21.3 mm^2 + concatenators 1.5 mm^2, "
                   f"~10 W (4% of a Tofino2); second crossbar bounded at "
                   f"{lo:.0f}-{hi:.0f} mm^2 (1-15%).",
    )
