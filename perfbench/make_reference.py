"""Record the reference outcome of every profile grid cell in reference.json.

Usage, from the root of a source checkout:

    python3 perfbench/make_reference.py

For each cell of the sweep15 and deep_tail grids it stores the sweep row's
status and tail constant ``d`` (with its rigorous bound), and for a cell
that ends in an error, the exception class that ``build_profile`` raises.
The benchmark checks later runs against these values: ``d`` must agree
within the run's own bound, and only a cell recorded as an error may fail.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from diagcoag import pipeline  # noqa: E402
from diagcoag.params import params_from_rho  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402


def reference_cell(cell: inputs.Cell) -> dict:
    row = pipeline.sweep_row(cell.gamma, cell.rho)
    entry = {
        "gamma": cell.gamma,
        "frac": cell.frac,
        "rho": cell.rho,
        "status": row["status"],
        "d": row.get("d_estimate"),
        "d_error_bound": row.get("d_error_bound"),
        "error_class": None,
    }
    if row["status"] == "error":
        try:
            pipeline.build_profile(params_from_rho(cell.gamma, cell.rho))
        except Exception as exc:  # recorded, not handled
            entry["error_class"] = type(exc).__name__
    return entry


def main() -> None:
    cells = {}
    for workload in ("sweep15", "deep_tail"):
        for cell in inputs.grid_cells(workload):
            cells[cell.key] = reference_cell(cell)
    doc = {
        "about": "Reference outcome per grid cell, keyed gamma/frac; see make_reference.py.",
        "cells": cells,
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
