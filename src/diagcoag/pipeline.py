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

# Hard cap on the total integration span, as octaves above the hand-off point.
MAX_OCTAVES = 600
# Octaves of one extension of the h = 1/2 search.
SEARCH_STEP_OCTAVES = 20
# Largest extent the h = 1/2 search can store: MAX_OCTAVES plus one
# extension, plus an octave for the step rounding of ``integrate``.
MAX_SEARCH_OCTAVES = MAX_OCTAVES + SEARCH_STEP_OCTAVES + 1

# A sweep row's tail summary, from the tail report and its details, in column order.
TAIL_COLUMNS = (
    "d_estimate", "d_error_bound", "c0", "slope_fit", "slope_err_rel", "upper_margin",
    "lower_margin", "lower_margin_chain", "hineq_margin", "cauchy_max_violation",
    "max_residual_sss4b",
)


def _tail_x_target(beta: float, d_estimate: float) -> float:
    """x_max (normalized gauge) for a converged d and a clean slope window.

    Demands 2*x**(-1/beta) <= 0.1*d at x_max and <= 0.005*d at x_max/1e4
    (the slope window's lower edge), the second being the binding one.
    """
    d = max(d_estimate, 1e-3)
    return max((20.0 / d) ** beta, 1e4 * (400.0 / d) ** beta, 4.0)


def tail_octaves_floor(beta: float) -> float:
    """Lower bound on the octaves the tail target spans above x_min.

    The target exceeds 1e4 * 400**beta because d < 1 (the supersolution
    bound h <= 1/(1 + x**(1/beta)) gives p < 1), and x_min <= 1 because
    x = 1 lies inside the normalized domain.
    """
    return math.log2(1e4) + beta * math.log2(400.0)


def _check_tail_budget(params: SimilarityParams, octaves_below: float) -> None:
    """Raise when the tail target provably exceeds the octave budget.

    ``octaves_below`` is a lower bound on log2(1/x_min) in the normalized
    gauge (0 uses only x_min <= 1).  A profile built with the tail
    extension never stores more than ``MAX_SEARCH_OCTAVES``, so past this
    bound the extension would raise the same error on its first pass, if
    no earlier stage failed first.
    """
    need = tail_octaves_floor(params.beta) + octaves_below
    if need > MAX_SEARCH_OCTAVES:
        raise ConvergenceError(
            f"tail extension would exceed {MAX_OCTAVES} octaves "
            f"(beta={params.beta}, needs more than {int(need)} octaves for any d < 1)"
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
    the tail is extended once, to ``_tail_x_target`` of the estimated d).
    Each stage runs once.  The seed is built at ``z`` as given; an expansion
    that fails there raises its typed error (``ConvergenceError`` or its
    subclass ``IterationLimitError`` from ``fixed_point``,
    ``MonotonicityError`` from ``h_from_expansion``) and is not retried at a
    smaller z.  An invariant violation of the march raises its typed error
    (``MonotonicityError``, ``PositivityError``); pass a larger ``m``.

    When the tail is extended (``x_max`` None, ``c`` != 0, beta > beta_star),
    a tail target that provably exceeds the ``MAX_OCTAVES`` budget raises
    ``ConvergenceError`` before any work (``tail_octaves_floor(beta)`` alone
    exceeds it: beta > ~70, rho - gamma < ~0.014), or during the search for
    h = 1/2, once the octaves stored below that point add enough.
    """
    budgeted = x_max is None and c != 0.0 and not params.degenerate
    if budgeted:
        _check_tail_budget(params, 0.0)
    if z is None:
        z = default_z(params, c)
    grid = fixed_point(params, c, z, nodes_per_octave=m)
    seed = h_from_expansion(grid, m=m)

    target = x_max if x_max is not None else 2.0**40 * z
    profile = integrate(seed, target)

    if c == 0.0:
        return profile

    # The normalization target 1/2 must be attained inside the stored domain;
    # for slowly bifurcating cases (small mu) the crossing sits far above the
    # default span, so extend before rescaling.
    while profile.h_values[-1] >= 0.45:
        octaves = math.log2(profile.x_max / profile.x_min)
        if octaves > MAX_OCTAVES:
            raise ConvergenceError(
                f"h has not reached 1/2 within {MAX_OCTAVES} octaves "
                f"(gamma={params.gamma}, beta={params.beta})"
            )
        # While h > 1/2 on the whole stored domain, x = 1 of the normalized
        # gauge lies beyond x_max, so x_min lies that many octaves below it.
        if budgeted and profile.h_values[-1] > 0.5:
            _check_tail_budget(params, octaves)
        profile = integrate(profile, profile.x_max * 2.0**SEARCH_STEP_OCTAVES)

    profile = normalize(profile)

    if x_max is None and not params.degenerate:
        d, _ = tail.estimate_d(profile)
        need = _tail_x_target(params.beta, d)
        if profile.x_max < need:
            if math.log2(need / profile.x_min) > MAX_OCTAVES:
                raise ConvergenceError(
                    f"tail extension would exceed {MAX_OCTAVES} octaves "
                    f"(beta={params.beta}, d~{d:g})"
                )
            profile = integrate(profile, need * 2.0)
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
