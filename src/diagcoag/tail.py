"""Fat-tail asymptotics: extraction and verification.

On a normalized profile (h(1) = 1/2) the compensated function
p(x) = x**(1/beta) h(x) has a positive limit d, with the a-priori rate
|p(x) - p(x0)| <= 2 x0**(-1/beta) for x >= x0 >= 2.  The module sets how
far a profile must reach for its tail to be resolved (``target_octaves``:
where that rate is small against d over the slope window), and evaluates d
with that rigorous error bound, the supersolution bound
h <= 1/(1+x**(1/beta)), the lower-bound chain through
Phi(x) = int_0^x s**(-gamma) h ds, and the residual of the integral form of
the profile equation

    beta x**(1-gamma) h(x) = int_{x/2}^x s**(-gamma) h^2 ds
                             + (1-gamma)(beta-beta_star) int_0^x s**(-gamma) h ds.

Both cumulative integrals, Phi and int_0^x s**(-gamma) h^2 ds, come from one
stacked corrected-trapezoid quadrature (``_cumulative``), which
``check_bounds`` and ``residual_sss4b`` each run once per call, the latter
over the grid prefix its samples reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._quad import cumtrapz_corrected, hermite_eval
from .errors import DomainError, RangeError
from .params import check_beta
from .profile import Profile

BOUND_SLACK = 1e-9
# An estimate of d is converged when its error bound is at most this share of d.
D_CONVERGED_SHARE = 0.1
# The slope window's lower edge as a fraction of x_max: four decades down.
SLOPE_WINDOW_FRACTION = 1e-4
# Share of d the error bound may reach at the slope window's lower edge.
SLOPE_EDGE_SHARE = 0.005
# Smallest d the tail target plans for.
TARGET_D_FLOOR = 1e-3


@dataclass(frozen=True)
class TailReport:
    """Summary of the tail checks for one normalized profile."""

    d_estimate: float
    d_error_bound: float
    c0: float
    slope_fit: float
    rho_check: float
    cauchy_max_violation: float
    upper_bound_ok: bool
    lower_bound_ok: bool
    max_residual_sss4b: float


def p_of(profile: Profile) -> np.ndarray:
    """Compensated tail function p = x**(1/beta) h on the profile grid."""
    return profile.x_values ** (1.0 / profile.params.beta) * profile.h_values


def estimate_d(profile: Profile) -> tuple[float, float]:
    """Tail constant estimate p(x_max) with its rigorous error bound.

    The bound 2*x_max**(-1/beta) is theorem-backed for normalized profiles; an
    estimate is converged when the bound is at most ``D_CONVERGED_SHARE`` of it.
    Raises ``RangeError`` when x_max**(1/beta) overflows.
    """
    if not profile.normalized:
        raise DomainError("estimate_d requires a normalized profile (h(1) = 1/2)")
    if profile.x_max < 2.0:
        raise DomainError("estimate_d requires x_max >= 2")
    beta = profile.params.beta
    try:
        d = float(profile.x_max ** (1.0 / beta) * profile.h_values[-1])
    except OverflowError as exc:
        raise RangeError(
            f"x_max = {profile.x_max:g} is out of floating-point range: "
            f"x_max**(1/beta) overflows (beta = {beta:g})"
        ) from exc
    return d, 2.0 * profile.x_max ** (-1.0 / beta)


def target_octaves(beta: float, d: float) -> float:
    """log2 of the x_max (normalized gauge) where ``estimate_d``'s bound is at most
    ``D_CONVERGED_SHARE * d``, and at most ``SLOPE_EDGE_SHARE * d`` at the slope
    window's lower edge (d floored at ``TARGET_D_FLOOR``); falls as d grows."""
    d = max(d, TARGET_D_FLOOR)
    at_top = beta * math.log2(2.0 / (D_CONVERGED_SHARE * d))
    at_edge = beta * math.log2(2.0 / (SLOPE_EDGE_SHARE * d)) - math.log2(SLOPE_WINDOW_FRACTION)
    return max(at_top, at_edge)


def _head_integral(profile: Profile, y: float, weight: float | np.ndarray = 1.0):
    """int_0^y s**(-gamma) weight h ds below the grid, where h sits at 1/(1-theta)."""
    gamma = profile.params.gamma
    limit = 1.0 / (1.0 - profile.params.theta)
    return weight * limit * y ** (1.0 - gamma) / (1.0 - gamma)


def _cumulative(profile: Profile) -> tuple[np.ndarray, np.ndarray]:
    """Rows (Phi, int_0^x s**(-gamma) h^2 ds) at every grid node, and their tau
    derivatives x**(1-gamma) (h, h^2), the integrands of one stacked quadrature."""
    gamma = profile.params.gamma
    h = profile.h_values
    dh = profile.dh_values
    n = len(h)
    # The integrands and their tau derivatives
    # x**(1-gamma) (h, h^2) ((1-gamma) h + (x, 2x) dh/dx), filled in place in
    # an order that holds at most seven node-length arrays at once.
    x = profile.x_values
    dphi = np.empty((2, n))
    np.multiply(x, dh, out=dphi[0])
    np.multiply(x, 2.0, out=dphi[1])
    dphi[1] *= dh
    w = x ** (1.0 - gamma)
    del x
    phi = np.empty((2, n))
    np.multiply(w, h, out=phi[0])
    np.multiply(phi[0], h, out=phi[1])
    cum = np.empty((2, n))
    np.multiply(h, 1.0 - gamma, out=cum[0])  # scratch until the quadrature
    dphi += cum[0]
    dphi[0] *= w
    dphi[1] *= phi[0]
    cumtrapz_corrected(phi, dphi, profile.dtau, cum)
    limit = 1.0 / (1.0 - profile.params.theta)
    cum += _head_integral(profile, profile.x_min, weight=np.array([[1.0], [limit]]))
    return cum, phi


def _phi_at(profile: Profile, cum: np.ndarray, phi: np.ndarray, x: float) -> float:
    """Phi(x) from the rows of ``_cumulative``; cubic Hermite between nodes (Phi' is known)."""
    if not (profile.x_min <= x <= profile.x_max * (1 + 1e-12)):
        raise DomainError(f"x = {x:g} outside the stored domain")
    return float(hermite_eval(math.log(x), profile.tau0, profile.dtau, cum[0], phi[0]))


def phi_of(profile: Profile, x: float) -> float:
    """Dense evaluation of Phi."""
    return _phi_at(profile, *_cumulative(profile), x)


def check_bounds(profile: Profile) -> tuple[bool, bool, dict]:
    """Verify the three tail inequalities at every grid node x >= 1.

    * upper: h(x) <= 1/(1 + x**(1/beta))          (supersolution bound)
    * lower: h(x) >= (c0/beta) * x**(-1/beta)     (lower-bound chain)
    * strict: beta x**(1-gamma) h(x) > (1-gamma)(beta-beta_star) Phi(x)

    All three with slack ``BOUND_SLACK``.  For a degenerate input
    (beta == beta_star) the strict inequality is trivial (right side 0) and
    the lower-bound chain does not apply; both are skipped and flagged.
    ``details["c0"]`` holds c0 = Phi(1) for every input, degenerate or not.
    """
    if not profile.normalized:
        raise DomainError("check_bounds requires a normalized profile (h(1) = 1/2)")
    params = profile.params
    beta = params.beta
    gamma = params.gamma
    degenerate = params.degenerate
    check_beta(gamma, beta)

    # The quadrature runs first, so its temporaries are gone before the
    # x-derived arrays below are built; only the row of Phi is kept.
    cum, phi = _cumulative(profile)
    c0 = _phi_at(profile, cum, phi, 1.0)
    del phi

    # The grid increases, so its nodes x >= 1 are a suffix.
    x = profile.x_values
    start = int(np.searchsorted(x, 1.0))
    xs = x[start:]
    hs = profile.h_values[start:]
    xb = xs ** (1.0 / beta)

    upper_gap = 1.0 / (1.0 + xb) - hs
    upper_margin = float(np.min(upper_gap))
    upper_ok = upper_margin >= -BOUND_SLACK

    details: dict = {
        "degenerate": degenerate,
        "upper_margin": upper_margin,
        "n_nodes_checked": len(xs),
        "c0": c0,
    }

    if degenerate:
        details["hineq_skipped"] = True
        details["lower_skipped"] = True
        return upper_ok, True, details

    lower_gap = hs - (c0 / beta) / xb
    lower_margin = float(np.min(lower_gap))
    lower_ok = lower_margin >= -BOUND_SLACK
    details["lower_margin"] = lower_margin

    # The chain of inequalities actually yields the constant
    # (1-gamma)(beta-beta_star) * c0/beta; the stated bound drops that factor
    # and can fail for beta < 2*beta_star.  Both margins are reported.
    lam = (1.0 - gamma) * (beta - params.beta_star)
    chain_const = lam * c0 / beta
    chain_margin = float(np.min(hs - chain_const / xb))
    details["lower_margin_chain"] = chain_margin
    details["lower_chain_ok"] = chain_margin >= -BOUND_SLACK

    hineq_margin = float(np.min(beta * xs ** (1.0 - gamma) * hs - lam * cum[0, start:]))
    details["hineq_margin"] = hineq_margin
    details["hineq_ok"] = hineq_margin > -BOUND_SLACK

    if not upper_ok:
        details["upper_worst_x"] = float(xs[np.argmin(upper_gap)])
    if not lower_ok:
        details["lower_worst_x"] = float(xs[np.argmin(lower_gap)])
    return upper_ok, lower_ok, details


def residual_sss4b(profile: Profile, samples) -> float:
    """Max relative residual of the integral equation over the samples.

    Samples are snapped to the nearest grid node; both sides are evaluated
    from the stored values by the corrected trapezoid rule (the analytic
    limit h -> 1/(1-theta) covers the part of the cumulative integral below
    the grid).
    """
    params = profile.params
    gamma, beta = params.gamma, params.beta
    m = profile.m

    samples = np.atleast_1d(np.asarray(samples, dtype=float))
    if np.any(samples < profile.x_min) or np.any(samples > profile.x_max * (1 + 1e-12)):
        raise DomainError("residual samples outside the stored domain")
    idx = np.clip(
        np.rint((np.log(samples) - profile.tau0) / profile.dtau).astype(int),
        0,
        len(profile.h_values) - 1,
    )

    # A cumulative integral's prefix does not depend on later nodes, so only
    # the grid prefix the samples reach is integrated.
    n = int(idx.max(initial=0)) + 1
    prefix = replace(profile, h_values=profile.h_values[:n], dh_values=profile.dh_values[:n])
    x = prefix.x_values
    h = prefix.h_values
    cum_phi, cum_sq = _cumulative(prefix)[0]
    limit = 1.0 / (1.0 - params.theta)
    worst = 0.0
    lam = (1.0 - gamma) * (beta - params.beta_star)
    for i in np.unique(idx):
        xi = x[i]
        lhs = beta * xi ** (1.0 - gamma) * h[i]
        if i >= m:
            delayed = cum_sq[i] - cum_sq[i - m]
        else:
            delayed = cum_sq[i] - _head_integral(profile, xi / 2.0, weight=limit)
        rhs_val = delayed + lam * cum_phi[i]
        worst = max(worst, abs(lhs - rhs_val) / abs(lhs))
    return float(worst)


def fit_slope(profile: Profile, x_lo: float, x_hi: float) -> float:
    """Least-squares slope of log h against log x over [x_lo, x_hi]."""
    if x_lo < 1.0:
        raise DomainError("fit window must start at x_lo >= 1")
    if x_hi > profile.x_max * (1 + 1e-12):
        raise DomainError("fit window exceeds the stored domain")
    if x_hi < 100.0 * x_lo:
        raise RangeError("fit window too narrow: need x_hi >= 100*x_lo")
    x = profile.x_values
    sel = (x >= x_lo) & (x <= x_hi)
    lx = np.log(x[sel])
    lh = np.log(profile.h_values[sel])
    slope, _ = np.polyfit(lx, lh, 1)
    return float(slope)


def default_slope_window(profile: Profile) -> tuple[float, float]:
    """[x_max * SLOPE_WINDOW_FRACTION, x_max], clipped to [1, x_max]."""
    hi = profile.x_max
    lo = max(1.0, hi * SLOPE_WINDOW_FRACTION)
    return lo, hi


def cauchy_violation(profile: Profile) -> float:
    """Worst violation of |p(x) - p(x0)| <= 2 x0**(-1/beta) over grid pairs.

    Scans every x0 >= 2 against all x >= x0 using suffix extrema (O(N)).
    Nonpositive return means the bound holds everywhere.
    """
    beta = profile.params.beta
    x = profile.x_values
    p = p_of(profile)
    sel = x >= 2.0
    xs = x[sel]
    ps = p[sel]
    if len(ps) < 2:
        raise DomainError("profile too short for the Cauchy check")
    suff_max = np.maximum.accumulate(ps[::-1])[::-1]
    suff_min = np.minimum.accumulate(ps[::-1])[::-1]
    spread = np.maximum(suff_max - ps, ps - suff_min)
    return float(np.max(spread - 2.0 * xs ** (-1.0 / beta)))


def build_tail_report(profile: Profile) -> tuple[TailReport, dict]:
    """The tail report plus a details dict of scalars: ``check_bounds``' margins and c0
    (the report's c0), ``d_converged`` and ``slope_err_rel = |slope_fit + 1/beta| beta``."""
    d, d_err = estimate_d(profile)
    lo, hi = default_slope_window(profile)
    slope = fit_slope(profile, lo, hi)
    upper_ok, lower_ok, details = check_bounds(profile)
    residual_samples = np.geomspace(
        max(1e-4, profile.x_min * 4.0), min(1e4, profile.x_max / 4.0), 200
    )
    resid = residual_sss4b(profile, residual_samples)
    report = TailReport(
        d_estimate=d,
        d_error_bound=d_err,
        c0=details["c0"],
        slope_fit=slope,
        rho_check=profile.params.gamma - slope,
        cauchy_max_violation=cauchy_violation(profile),
        upper_bound_ok=upper_ok,
        lower_bound_ok=lower_ok,
        max_residual_sss4b=resid,
    )
    details["d_converged"] = d_err <= D_CONVERGED_SHARE * d
    details["slope_err_rel"] = abs(slope + 1.0 / profile.params.beta) * profile.params.beta
    return report, details


def bounds_hold(report: TailReport, details: dict) -> bool:
    """The one verdict of ``verify`` and ``sweep``: the upper, lower, h-inequality and
    Cauchy bounds hold (Cauchy within ``BOUND_SLACK``), residual <= 1e-6, slope within 1%."""
    return (
        report.upper_bound_ok
        and report.lower_bound_ok
        and details.get("hineq_ok", True)
        and report.cauchy_max_violation <= BOUND_SLACK
        and report.max_residual_sss4b <= 1e-6
        and details["slope_err_rel"] <= 0.01
    )
