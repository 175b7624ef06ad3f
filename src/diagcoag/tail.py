"""Fat-tail asymptotics: extraction and verification.

On a normalized profile (h(1) = 1/2) the compensated function
p(x) = x**(1/beta) h(x) has a positive limit d, with the a-priori rate
|p(x) - p(x0)| <= C x0**(-1/beta) for x >= x0 >= 2, C = ``RATE_CONSTANT``.
The module sets how far a profile must reach for its tail to be resolved
(``target_octaves``: where that rate is small against d over the slope
window), and evaluates d with the truncation bound that rate gives, the supersolution
bound h <= 1/(1+x**(1/beta)), the lower-bound chain through
Phi(x) = int_0^x s**(-gamma) h ds, and the residual of the integral form of
the profile equation

    beta x**(1-gamma) h(x) = int_{x/2}^x s**(-gamma) h^2 ds
                             + (1-gamma)(beta-beta_star) int_0^x s**(-gamma) h ds.

Both cumulative integrals, Phi and int_0^x s**(-gamma) h^2 ds, come from one
stacked corrected-trapezoid quadrature (``_cumulative``).  ``build_tail_report``
runs it once and reads its rows for the bound checks and the residual alike;
``check_bounds`` and ``residual_sss4b`` each run their own when called alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._quad import cumtrapz_corrected, hermite_eval
from .errors import DomainError, RangeError
from .params import check_beta

if TYPE_CHECKING:  # annotations only: ``profile`` imports this module
    from .profile import Profile

BOUND_SLACK = 1e-9
# The theorem's rate constant: |p(x) - p(x0)| <= RATE_CONSTANT * x0**(-1/beta).
RATE_CONSTANT = 2.0
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


def compensated(x, h, beta: float):
    """The compensated tail p = x**(1/beta) h, of floats or of arrays alike."""
    return x ** (1.0 / beta) * h


def p_of(profile: Profile) -> np.ndarray:
    """Compensated tail function p = x**(1/beta) h on the profile grid."""
    return compensated(profile.x_values, profile.h_values, profile.params.beta)


def estimate_d(profile: Profile) -> tuple[float, float]:
    """Tail constant estimate p(x_max) with its truncation bound.

    The bound RATE_CONSTANT*x_max**(-1/beta) covers |d - p(x_max)| for the exact
    normalized profile (the theorem's rate), not the march's discretization error
    in p; the estimate is converged when the bound is at most ``D_CONVERGED_SHARE`` of it.
    Raises ``RangeError`` when x_max**(1/beta) overflows.
    """
    if not profile.normalized:
        raise DomainError("estimate_d requires a normalized profile (h(1) = 1/2)")
    if profile.x_max < 2.0:
        raise DomainError("estimate_d requires x_max >= 2")
    beta = profile.params.beta
    try:
        d = float(compensated(profile.x_max, profile.h_values[-1], beta))
    except OverflowError as exc:
        raise RangeError(
            f"x_max = {profile.x_max:g} is out of floating-point range: "
            f"x_max**(1/beta) overflows (beta = {beta:g})"
        ) from exc
    return d, RATE_CONSTANT * profile.x_max ** (-1.0 / beta)


def target_octaves(beta: float, d: float) -> float:
    """log2 of the x_max (normalized gauge) where ``estimate_d``'s bound is at most
    ``SLOPE_EDGE_SHARE * d`` at the slope window's lower edge, and so below
    ``D_CONVERGED_SHARE * d`` at x_max (d floored at ``TARGET_D_FLOOR``); falls as d grows."""
    d = max(d, TARGET_D_FLOOR)
    octaves = beta * math.log2(RATE_CONSTANT / (SLOPE_EDGE_SHARE * d))
    return octaves - math.log2(SLOPE_WINDOW_FRACTION)


def _head_integral(profile: Profile, y: float, weight: float | np.ndarray = 1.0):
    """int_0^y s**(-gamma) weight h ds below the grid, where h sits at 1/(1-theta)."""
    gamma = profile.params.gamma
    return weight * profile.params.limit * y ** (1.0 - gamma) / (1.0 - gamma)


def _cumulative(profile: Profile) -> tuple[np.ndarray, np.ndarray]:
    """Rows (Phi, int_0^x s**(-gamma) h^2 ds) at every grid node, and their tau
    derivatives x**(1-gamma) (h, h^2), the integrands of one stacked quadrature,
    whose end correction forms their tau derivatives from the stored dh/dtau."""
    gamma = profile.params.gamma
    h = profile.h_values
    dh = profile.dh_values
    n = len(h)
    # The integrands and their tau derivatives
    # x**(1-gamma) (h, h^2) ((1-gamma) h + (1, 2) dh/dtau), filled in place in
    # an order that holds at most seven node-length arrays at once.
    dphi = np.empty((2, n))
    dphi[0] = dh
    np.multiply(dh, 2.0, out=dphi[1])
    w = profile.x_values ** (1.0 - gamma)
    phi = np.empty((2, n))
    np.multiply(w, h, out=phi[0])
    np.multiply(phi[0], h, out=phi[1])
    cum = np.empty((2, n))
    np.multiply(h, 1.0 - gamma, out=cum[0])  # scratch until the quadrature
    dphi += cum[0]
    dphi[0] *= w
    dphi[1] *= phi[0]
    cumtrapz_corrected(phi, dphi, profile.dtau, cum)
    weight = np.array([[1.0], [profile.params.limit]])
    cum += _head_integral(profile, profile.x_min, weight=weight)
    return cum, phi


def _phi_at(profile: Profile, cum: np.ndarray, phi: np.ndarray, x: float) -> float:
    """Phi(x) from the rows of ``_cumulative``; cubic Hermite between nodes (Phi' is known)."""
    if not (profile.x_min <= x <= profile.x_max * (1 + 1e-12)):
        raise DomainError(f"x = {x:g} outside the stored domain")
    return float(hermite_eval(math.log(x), profile.tau0, profile.dtau, cum[0], phi[0]))


def _rows(profile: Profile) -> tuple[np.ndarray, float]:
    """``_cumulative``'s rows and c0 = Phi(1), beta >= beta_star checked; integrands dropped."""
    check_beta(profile.params.gamma, profile.params.beta)
    cum, phi = _cumulative(profile)
    return cum, _phi_at(profile, cum, phi, 1.0)


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
    return _bounds(profile, *_rows(profile))


def _bounds(profile: Profile, cum: np.ndarray, c0: float) -> tuple[bool, bool, dict]:
    """``check_bounds`` from the rows of ``_cumulative`` and c0 = Phi(1)."""
    params = profile.params
    gamma, beta = params.gamma, params.beta

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
        "degenerate": params.degenerate,
        "upper_margin": upper_margin,
        "n_nodes_checked": len(xs),
        "c0": c0,
    }

    if params.degenerate:
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
    chain_const = params.lam * c0 / beta
    chain_margin = float(np.min(hs - chain_const / xb))
    details["lower_margin_chain"] = chain_margin
    details["lower_chain_ok"] = chain_margin >= -BOUND_SLACK

    hineq_margin = float(np.min(beta * xs ** (1.0 - gamma) * hs - params.lam * cum[0, start:]))
    details["hineq_margin"] = hineq_margin
    details["hineq_ok"] = hineq_margin > -BOUND_SLACK

    if not upper_ok:
        details["upper_worst_x"] = float(xs[np.argmin(upper_gap)])
    if not lower_ok:
        details["lower_worst_x"] = float(xs[np.argmin(lower_gap)])
    return upper_ok, lower_ok, details


def residual_sss4b(profile: Profile, samples) -> float:
    """Max relative residual of the integral equation over a non-empty sample set.

    Samples are snapped to the nearest grid node; both sides are evaluated
    from the stored values by the corrected trapezoid rule (the analytic
    limit h -> 1/(1-theta) covers the part of the cumulative integral below
    the grid).
    """
    return _residual(profile, _cumulative(profile)[0], samples)


def _residual(profile: Profile, cum: np.ndarray, samples) -> float:
    """``residual_sss4b`` from the rows of ``_cumulative``, at the unique snapped nodes."""
    params = profile.params
    gamma, beta = params.gamma, params.beta
    samples = np.atleast_1d(np.asarray(samples, dtype=float))
    # NaN fails the comparisons, and an empty sample set the size test.
    lo, hi = profile.x_min, profile.x_max * (1 + 1e-12)
    if not (samples.size and lo <= samples.min() <= samples.max() <= hi):
        raise DomainError("residual samples must be a non-empty set inside the stored domain")
    tau = (np.log(samples) - profile.tau0) / profile.dtau
    i = np.unique(np.clip(np.rint(tau).astype(int), 0, len(profile.h_values) - 1))
    # Python-float powers, through an object array: numpy's SIMD array power
    # differs from the scalar power in the last bit on some elements.
    x = profile.x_values[i].astype(object)
    lhs = beta * (x ** (1.0 - gamma)).astype(float) * profile.h_values[i]
    delayed = cum[1, i] - cum[1, np.maximum(i - profile.m, 0)]
    # In the first octave x/2 lies below the grid, where h sits at its limit.
    first = i < profile.m
    head = _head_integral(profile, x[first] / 2.0, weight=params.limit)
    delayed[first] = cum[1, i[first]] - head
    rhs = delayed + params.lam * cum[0, i]
    return float(np.max(np.abs(lhs - rhs) / np.abs(lhs)))


def fit_slope(profile: Profile) -> float:
    """Least-squares slope of log h against log x over ``default_slope_window``;
    ``RangeError`` when that spans less than two decades (x_max < 100)."""
    x_lo, x_hi = default_slope_window(profile)
    if not x_hi >= 100.0 * x_lo:
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
    """Worst violation of |p(x) - p(x0)| <= RATE_CONSTANT x0**(-1/beta) over grid pairs.

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
    return float(np.max(spread - RATE_CONSTANT * xs ** (-1.0 / beta)))


def build_tail_report(profile: Profile) -> tuple[TailReport, dict]:
    """The tail report plus a details dict of scalars: ``check_bounds``' margins and c0
    (the report's c0), ``d_converged`` and ``slope_err_rel = |slope_fit + 1/beta| beta``."""
    d, d_err = estimate_d(profile)
    slope = fit_slope(profile)
    # estimate_d has checked normalization; one quadrature serves both checks.
    cum, c0 = _rows(profile)
    upper_ok, lower_ok, details = _bounds(profile, cum, c0)
    residual_samples = np.geomspace(
        max(1e-4, profile.x_min * 4.0), min(1e4, profile.x_max / 4.0), 200
    )
    resid = _residual(profile, cum, residual_samples)
    del cum  # before the Cauchy scan builds its arrays
    report = TailReport(
        d_estimate=d,
        d_error_bound=d_err,
        c0=c0,
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
