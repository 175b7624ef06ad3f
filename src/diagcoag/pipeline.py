"""End-to-end profile construction: solve mu, fixed point, one march, normalize.

Also hosts the sweep row used by the CLI: each row runs the full pipeline
for one (gamma, rho) pair and summarizes the tail report.
"""

from __future__ import annotations

import dataclasses
import math

from .errors import DiagcoagError, DomainError
from .expansion import (
    DEFAULT_NODES_PER_OCTAVE,
    DEFAULT_OCTAVES,
    check_amplitude,
    contraction_margin,
    default_z,
    fixed_point,
    h_from_expansion,
)
from .params import SimilarityParams, params_from_rho
from .profile import Profile, check_nodes_per_octave, check_octaves, integrate, normalize
from . import tail

# A sweep row's tail summary, from the tail report and its details, in column order.
TAIL_COLUMNS = (
    "d_estimate", "d_error_bound", "c0", "slope_fit", "slope_err_rel", "upper_margin",
    "lower_margin", "lower_margin_chain", "hineq_margin", "cauchy_max_violation",
    "max_residual_sss4b",
)
# The sweep table's header: the keys ``sweep_row`` fills, in column order.
SWEEP_COLUMNS = ("gamma", "rho", "beta", "mu", "kappa", *TAIL_COLUMNS, "status")


def build_profile(
    params: SimilarityParams,
    c: float = 1.0,
    z: float | None = None,
    m: int = DEFAULT_NODES_PER_OCTAVE,
    x_max: float | None = None,
) -> Profile:
    """Construct a full profile: seed from the local expansion, one march, normalize.

    ``c`` is the bifurcation amplitude (0 selects the constant branch, which
    is not normalized), ``z`` the hand-off point (``default_z`` when None),
    ``m`` the nodes per octave (at least 32, checked before the seed) and
    ``x_max`` the end of the march, in the gauge of ``c``; when None the march
    ends at ``integrate``'s stop rule.  Without ``z``, every c > 0 builds the
    c = 1 profile, since c fixes only the gauge that ``normalize`` removes:
    an explicit ``x_max`` moves to that gauge as x_max * c**(1/mu)
    (``DomainError`` when that overflows).  Each stage runs once and nothing is
    retried: the typed errors of the expansion, the march and ``normalize``
    (``RangeError`` for an ``x_max`` short of the h = 1/2 crossing) propagate.
    A fat tail that needs more than ``profile.MAX_OCTAVES`` raises
    ``ConvergenceError`` before the seed when the seed's octaves plus the tail
    target exceed it (beta > ~65.6), else in the march.
    """
    check_amplitude(c)
    check_nodes_per_octave(m)
    if x_max is None and c != 0.0 and not params.degenerate:
        # The march's first budget check, at the seed's end: the seed spans
        # DEFAULT_OCTAVES and h > 1/2 there, so the target at d = 1 is still needed.
        check_octaves(params, DEFAULT_OCTAVES + tail.target_octaves(params.beta, 1.0))
    if z is None and c > 0.0:
        if x_max is not None:
            try:
                x_max *= c ** (1.0 / params.mu)
            except OverflowError:
                raise DomainError(
                    f"x_max = {x_max:g} at c = {c:g} overflows in the gauge c = 1"
                ) from None
        c = 1.0
    if z is None:
        z = default_z(params, c)
    seed = h_from_expansion(fixed_point(params, c, z, nodes_per_octave=m))
    profile = integrate(seed, x_max)
    return profile if c == 0.0 else normalize(profile)


def sweep_row(gamma: float, rho: float) -> dict:
    """One sweep entry keyed by ``SWEEP_COLUMNS`` (NaN for a margin the details lack);
    ``status`` is ``ok`` when ``tail.bounds_hold`` passes; a row ended early holds its ``error``."""
    row: dict = {"gamma": gamma, "rho": rho}
    try:
        params = params_from_rho(gamma, rho)
    except DiagcoagError as exc:  # boundary rows are recorded, not fatal
        row["status"] = "invalid"
        row["error"] = str(exc)
        return row
    try:
        row["beta"] = params.beta
        row["mu"] = params.mu
        row["kappa"] = contraction_margin(params)
        profile = build_profile(params)
        report, details = tail.build_tail_report(profile)
        values = {**dataclasses.asdict(report), **details}
        row.update((key, values.get(key, math.nan)) for key in TAIL_COLUMNS)
        row["status"] = "ok" if tail.bounds_hold(report, details) else "bound_failure"
    except DiagcoagError as exc:  # an untyped exception is a bug, and propagates
        row["status"] = "error"
        row["error"] = str(exc)
    return row
