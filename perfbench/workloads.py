"""What each workload item runs, how its outputs are checked, and what is traced.

Items call only the layers' public functions, looked up on their modules at
call time so that the traced run sees them:

* ``sweep15`` / ``deep_tail``: ``pipeline.sweep_row`` for one grid cell.
* ``roundtrip``: ``profile.write_profile_csv`` -> ``profile.read_profile_csv``
  -> ``tail.build_tail_report`` on a profile built during set-up.
* ``collapse``: ``dynamics.simulate_collapse`` from the canonical profile,
  unperturbed or with a seeded bump.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

import diagcoag.dynamics as dynamics
import diagcoag.expansion as expansion
import diagcoag.mu as mu
import diagcoag.pipeline as pipeline
import diagcoag.profile as profile_mod
import diagcoag.tail as tail
from diagcoag.errors import DiagcoagError
from diagcoag.params import make_params, params_from_rho

import inputs

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Output gates.  The residual gate is the pipeline's own; the collapse gates
# are acceptance criterion 10's oracles.
RESIDUAL_GATE = 1e-6
MASS_BALANCE_GATE = 1e-8
COLLAPSE_D_GATE = 0.05


@dataclasses.dataclass
class Outcome:
    """Verdict on one item.  ``failed`` says why it failed; None when it passed.

    ``expected`` marks a failure that the reference records for the cell (a
    known defect of the program, not a wrong output).
    """

    item: str
    failed: str | None = None
    expected: bool = False
    error_class: str | None = None
    error_typed: bool | None = None
    bound_failure: bool = False
    residual: float = 0.0
    d_err_over_bound: float = 0.0
    mass_balance_err: float = 0.0
    d_end: float | None = None

    @property
    def correct(self) -> bool:
        return self.failed is None or self.expected


@dataclasses.dataclass
class State:
    workload: str
    work_dir: Path
    reference: dict
    profiles: dict = dataclasses.field(default_factory=dict)
    canonical: object = None


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())["cells"]


def prepare(workload: str, work_dir: Path) -> State:
    """The untimed preparation of a workload (part of ``setup_s``)."""
    state = State(workload, Path(work_dir), load_reference())
    if workload == "roundtrip":
        state.work_dir.mkdir(parents=True, exist_ok=True)
        for cell in inputs.grid_cells("sweep15"):
            params = params_from_rho(cell.gamma, cell.rho)
            state.profiles[cell.key] = pipeline.build_profile(params)
    elif workload == "collapse":
        params = make_params(inputs.COLLAPSE_GAMMA, inputs.COLLAPSE_BETA)
        state.canonical = pipeline.build_profile(params)
    return state


def run_item(state: State, item) -> Outcome:
    """Run one item and check its outputs; exceptions become failed outcomes."""
    try:
        if state.workload == "collapse":
            return _collapse_item(state, item)
        if state.workload == "roundtrip":
            return _roundtrip_item(state, item)
        return _sweep_item(state, item)
    except Exception as exc:  # an item failure, recorded with its class
        return Outcome(
            item.key,
            failed=f"{type(exc).__name__}: {exc}",
            error_class=type(exc).__name__,
            error_typed=isinstance(exc, DiagcoagError),
        )


def _check_tail(out: Outcome, residual: float, d: float, d_bound: float, ref: dict) -> None:
    out.residual = residual
    if ref["d"] is not None:
        out.d_err_over_bound = abs(d - ref["d"]) / d_bound
    if residual > RESIDUAL_GATE:
        out.failed = f"max_residual_sss4b {residual:.3g} > {RESIDUAL_GATE:g}"
    elif out.d_err_over_bound > 1.0:
        out.failed = f"d = {d!r} differs from the reference {ref['d']!r} by more than {d_bound:.3g}"


def _sweep_item(state: State, cell: inputs.Cell) -> Outcome:
    row = pipeline.sweep_row(cell.gamma, cell.rho)
    ref = state.reference[cell.key]
    out = Outcome(cell.key)
    if row["status"] not in ("ok", "bound_failure"):
        out.failed = f"{row['status']}: {row.get('error', '')}"
        out.expected = ref["status"] == row["status"]
        return out
    _check_tail(out, row["max_residual_sss4b"], row["d_estimate"], row["d_error_bound"], ref)
    # Bound verdicts that fail by design (criteria 05 and 07) are counted, not failed.
    out.bound_failure = out.failed is None and row["status"] == "bound_failure"
    return out


def _roundtrip_item(state: State, cell: inputs.Cell) -> Outcome:
    written = state.profiles[cell.key]
    path = state.work_dir / (cell.key.replace("/", "_") + ".csv")
    profile_mod.write_profile_csv(written, path)
    back = profile_mod.read_profile_csv(path)
    out = Outcome(cell.key)
    if not (
        np.array_equal(back.h_values, written.h_values)
        and np.array_equal(back.dh_values, written.dh_values)
    ):
        out.failed = "h/dh not read back bit-identical"
        return out
    report, _ = tail.build_tail_report(back)
    _check_tail(
        out, report.max_residual_sss4b, report.d_estimate, report.d_error_bound,
        state.reference[cell.key],
    )
    return out


def _collapse_item(state: State, pert: inputs.Perturbation) -> Outcome:
    reference = state.canonical
    field = dynamics.field_from_profile(reference, nodes_per_octave=inputs.COLLAPSE_MD)
    if pert.a != 0.0:
        bump = 1.0 + pert.a * np.exp(-((np.log(field.xi_grid) - pert.c) ** 2))
        field = dataclasses.replace(field, f_values=field.f_values * bump)
    report, fields = dynamics.simulate_collapse(
        field, reference, reference.params.beta, inputs.COLLAPSE_T_END,
        n_outputs=inputs.COLLAPSE_OUTPUTS, collect_fields=True,
    )
    counts = [dynamics.moments(f)[0] for f in fields]
    mass0 = dynamics.moments(fields[0])[1]
    mass_end = dynamics.moments(fields[-1])[1]
    out = Outcome(pert.key)
    out.mass_balance_err = abs(mass_end + fields[-1].escaped_mass - mass0) / mass0
    if out.mass_balance_err > MASS_BALANCE_GATE:
        out.failed = f"mass balance {out.mass_balance_err:.3g} > {MASS_BALANCE_GATE:g}"
    elif any(later > earlier for earlier, later in zip(counts, counts[1:])):
        out.failed = "cluster number N increased between outputs"
    elif pert.a == 0.0:
        out.d_end = report.distances[-1]
        if max(report.distances) >= COLLAPSE_D_GATE:
            out.failed = f"unperturbed max D {max(report.distances):.3g} >= {COLLAPSE_D_GATE:g}"
    return out


# ---------------------------------------------------------------------------
# Tracing: where the layers' public functions are looked up by their callers.


def _nodes(args, result, exc) -> dict:
    return {} if result is None else {"nodes": len(result.h_values)}


def _integrate_steps(args, result, exc) -> dict:
    """RK steps of one integrate call: nodes added, or reached before it raised."""
    seed = args[0]
    if result is not None:
        return {"steps": len(result.h_values) - len(seed.h_values)}
    x = getattr(exc, "x", None)
    if x is None:
        return {"steps": 0}
    tau_last = seed.tau0 + seed.dtau * (len(seed.h_values) - 1)
    return {"steps": max(0, round((math.log(x) - tau_last) / seed.dtau))}


def _csv_bytes(args, result, exc) -> dict:
    if exc is not None:
        return {}
    path = Path(args[1])
    return {"bytes": path.stat().st_size + profile_mod.sidecar_path(path).stat().st_size}


# (module, attribute, span or counter name, kind[, attrs hook])
TRACE_POINTS = (
    (pipeline, "build_profile", "pipeline.build_profile", "span", _nodes),
    (pipeline, "default_z", "expansion.default_z", "span"),
    (pipeline, "fixed_point", "expansion.fixed_point", "span"),
    (pipeline, "h_from_expansion", "expansion.h_from_expansion", "span"),
    (pipeline, "integrate", "profile.integrate", "span", _integrate_steps),
    (pipeline, "normalize", "profile.normalize", "span"),
    (expansion, "apply_T", "expansion.apply_T", "count"),
    # make_params imports solve_mu from its module at call time.
    (mu, "solve_mu", "mu.solve_mu", "span"),
    (tail, "build_tail_report", "tail.build_tail_report", "span"),
    (tail, "check_bounds", "tail.check_bounds", "span"),
    (tail, "residual_sss4b", "tail.residual_sss4b", "span"),
    (tail, "estimate_d", "tail.estimate_d", "count"),
    (profile_mod, "write_profile_csv", "profile.write_profile_csv", "span", _csv_bytes),
    (profile_mod, "read_profile_csv", "profile.read_profile_csv", "span"),
    (dynamics, "step", "dynamics.step", "span"),
    (dynamics, "coag_rhs", "dynamics.coag_rhs", "count"),
    (dynamics, "self_similar_distance", "dynamics.self_similar_distance", "span"),
)
