"""Solver for the bifurcation exponent mu.

mu is the unique positive root of

    (1 + beta*mu)/2 = F(mu),   F(mu) = (1 - 2**(gamma-1-mu)) / (1 - theta),

with theta = 2**(gamma-1).  F increases from F(0) = 1 to 1/(1-theta), so the
residual G(mu) = (1+beta*mu)/2 - F(mu) starts at exactly -1/2, is convex
(G' = beta/2 - F' with F' strictly decreasing) and crosses zero once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .params import SimilarityParams, check_beta, theta_of

_LN2 = math.log(2.0)

RESIDUAL_TOL = 1e-13


def _F(gamma: float, mu_arg: float) -> float:
    """F(mu_arg), divided by 1-theta rather than times ``SimilarityParams.limit``:
    the two round differently, and mu, z and d are pinned to this rounding."""
    theta = theta_of(gamma)
    return (1.0 - 2.0 ** (gamma - 1.0 - mu_arg)) / (1.0 - theta)


def _G(gamma: float, beta: float, mu_arg: float) -> float:
    return 0.5 * (1.0 + beta * mu_arg) - _F(gamma, mu_arg)


def _G_prime(gamma: float, beta: float, mu_arg: float) -> float:
    """G'(mu_arg); F' is divided by 1-theta as in ``_F``, for the same reason."""
    theta = theta_of(gamma)
    f_prime = _LN2 * 2.0 ** (gamma - 1.0 - mu_arg) / (1.0 - theta)
    return 0.5 * beta - f_prime


def F_of(params: SimilarityParams, mu_arg: float) -> float:
    """Evaluate F at mu_arg; increasing, F(0) = 1, limit 1/(1-theta)."""
    return _F(params.gamma, mu_arg)


@dataclass(frozen=True)
class MuSolveReport:
    """Result of one mu solve.

    ``bracket`` holds the final sign-changing interval; ``convexity_margin``
    is chord-midpoint minus G at the bracket midpoint, nonnegative for a
    convex residual (sanity sample).
    """

    mu: float
    residual: float
    iterations: int
    bracket: tuple[float, float]
    convexity_margin: float


def solve_mu(gamma: float, beta: float) -> MuSolveReport:
    """Find the unique positive root of the bifurcation equation.

    Strategy: bracket by doubling from [0, 1] (G(0) = -1/2 always), bisect to
    width 1e-6, then polish with safeguarded Newton steps.  The residual of
    the returned root is at most ``RESIDUAL_TOL``.
    """
    if not (math.isfinite(gamma) and math.isfinite(beta)):
        raise DomainError(f"gamma and beta must be finite; got gamma = {gamma:g}, beta = {beta:g}")
    check_beta(gamma, beta)

    lo, hi = 0.0, 1.0
    g_lo = _G(gamma, beta, lo)  # == -1/2 exactly
    g_hi = _G(gamma, beta, hi)
    iterations = 0
    while g_hi <= 0.0:
        lo, g_lo = hi, g_hi
        hi *= 2.0
        g_hi = _G(gamma, beta, hi)
        iterations += 1
        if hi > 2.0**80:
            raise ConvergenceError(
                f"failed to bracket mu for gamma={gamma}, beta={beta}: "
                f"G({hi}) = {g_hi}"
            )

    bracket = (lo, hi)
    mid = 0.5 * (lo + hi)
    convexity_margin = 0.5 * (g_lo + g_hi) - _G(gamma, beta, mid)

    # Bisection down to a narrow interval.
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        g_mid = _G(gamma, beta, mid)
        iterations += 1
        if g_mid > 0.0:
            hi, g_hi = mid, g_mid
        else:
            lo, g_lo = mid, g_mid

    # Newton polish, safeguarded to stay inside the bracket.
    mu = 0.5 * (lo + hi)
    for _ in range(60):
        g = _G(gamma, beta, mu)
        iterations += 1
        if abs(g) <= 0.25 * RESIDUAL_TOL:
            break
        step = g / _G_prime(gamma, beta, mu)
        nxt = mu - step
        if not (lo <= nxt <= hi):
            nxt = 0.5 * (lo + hi)
        if g > 0.0:
            hi = mu
        else:
            lo = mu
        mu = nxt

    residual = abs(_G(gamma, beta, mu))
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(
            f"mu polish stalled for gamma={gamma}, beta={beta}: residual={residual:g}"
        )
    return MuSolveReport(
        mu=mu,
        residual=residual,
        iterations=iterations,
        bracket=bracket,
        convexity_margin=convexity_margin,
    )
