"""End-to-end profile construction: solve mu, fixed point, integrate, normalize.

Also hosts the sweep row used by the CLI: each row runs the full pipeline
for one (gamma, rho) pair and summarizes the tail report.
"""

from __future__ import annotations

import dataclasses
import math

from .errors import ConvergenceError
from .expansion import (
    DEFAULT_NODES_PER_OCTAVE,
    contraction_margin,
    default_z,
    epsilon_of,
    fixed_point,
    h_from_expansion,
)
from .params import SimilarityParams, params_from_rho
from .profile import Profile, integrate, normalize
from . import tail

# Hard cap on the total integration span, as octaves of the stored domain.
MAX_OCTAVES = 600
# Octaves of one extension of the h = 1/2 search.
SEARCH_STEP_OCTAVES = 20

# A sweep row's tail summary, from the tail report and its details, in column order.
TAIL_COLUMNS = (
    "d_estimate", "d_error_bound", "c0", "slope_fit", "slope_err_rel", "upper_margin",
    "lower_margin", "lower_margin_chain", "hineq_margin", "cauchy_max_violation",
    "max_residual_sss4b",
)


def _check_octaves(params: SimilarityParams, octaves: float) -> None:
    """Raise ``ConvergenceError`` when a profile needs more than ``MAX_OCTAVES``."""
    if octaves > MAX_OCTAVES:
        raise ConvergenceError(
            f"profile needs {octaves:.6g} octaves, more than the budget of {MAX_OCTAVES} "
            f"(gamma={params.gamma}, beta={params.beta})"
        )


def build_profile(
    params: SimilarityParams,
    c: float = 1.0,
    z: float | None = None,
    m: int = DEFAULT_NODES_PER_OCTAVE,
    x_max: float | None = None,
) -> Profile:
    """Construct a full profile: seed from the local expansion, march, normalize.

    ``c`` is the bifurcation amplitude (0 selects the constant branch, which
    is not normalized), ``z`` the hand-off point (``default_z`` when None),
    ``m`` the nodes per octave and ``x_max`` the end of the march (when None
    the tail is extended once, to ``tail.target_octaves`` of the estimated d).
    Each stage runs once.  The seed is built at ``z`` as given; an expansion
    that fails there raises its typed error (``ConvergenceError`` or its
    subclass ``IterationLimitError`` from ``fixed_point``,
    ``MonotonicityError`` from ``h_from_expansion``) and is not retried at a
    smaller z.  An invariant violation of the march raises its typed error
    (``MonotonicityError``, ``PositivityError``); pass a larger ``m``.

    A profile that needs more than ``MAX_OCTAVES`` raises ``ConvergenceError``
    as soon as that is known: before the seed when the tail target alone
    exceeds it (beta > ~68), in the h = 1/2 search, or before the extension.
    """
    budgeted = x_max is None and c != 0.0 and not params.degenerate
    # d < 1 (the supersolution bound), so the tail target spans at least
    # this many octaves above x = 1, which lies inside the normalized domain.
    floor = tail.target_octaves(params.beta, 1.0) if budgeted else 0.0
    _check_octaves(params, floor)
    if z is None:
        z = default_z(params, c)
    grid = fixed_point(params, c, z, nodes_per_octave=m)
    seed = h_from_expansion(grid)

    target = x_max if x_max is not None else 2.0**40 * z
    profile = integrate(seed, target)

    if c == 0.0:
        return profile

    # The normalization target 1/2 must be attained inside the stored domain;
    # for slowly bifurcating cases (small mu) the crossing sits far above the
    # default span, so extend before rescaling.
    while profile.h_values[-1] >= 0.45:
        octaves = math.log2(profile.x_max / profile.x_min)
        # While h > 1/2 on the whole stored domain, x = 1 of the normalized
        # gauge lies beyond x_max, so x_min lies that many octaves below it.
        if profile.h_values[-1] > 0.5:
            octaves += floor
        _check_octaves(params, octaves)
        profile = integrate(profile, profile.x_max * 2.0**SEARCH_STEP_OCTAVES)

    profile = normalize(profile)

    if budgeted:
        d, _ = tail.estimate_d(profile)
        need = tail.target_octaves(params.beta, d)
        if math.log2(profile.x_max) < need:
            _check_octaves(params, need - math.log2(profile.x_min))
            profile = integrate(profile, 2.0 ** (need + 1.0))
    return profile


def sweep_row(gamma: float, rho: float) -> dict:
    """One sweep entry: parameters, contraction margin and ``TAIL_COLUMNS`` (NaN
    for a margin the details lack); ``status`` is ``ok`` when ``tail.bounds_hold`` passes."""
    row: dict = {"gamma": gamma, "rho": rho}
    try:
        params = params_from_rho(gamma, rho)
    except Exception as exc:  # boundary rows are recorded, not fatal
        row["status"] = "invalid"
        row["error"] = str(exc)
        return row
    try:
        row["beta"] = params.beta
        row["mu"] = params.mu
        row["kappa"] = contraction_margin(params, epsilon_of(params))
        profile = build_profile(params)
        report, details = tail.build_tail_report(profile)
        values = {**dataclasses.asdict(report), **details}
        row.update((key, values.get(key, math.nan)) for key in TAIL_COLUMNS)
        row["status"] = "ok" if tail.bounds_hold(report, details) else "bound_failure"
    except Exception as exc:
        row["status"] = "error"
        row["error"] = str(exc)
    return row
