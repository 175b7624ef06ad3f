"""Parameter algebra for the diagonal-kernel coagulation problem.

The kernel merges equal-size clusters only, at rate ``xi**(1+gamma)`` with
homogeneity ``gamma < 1``.  A family member is fixed by gamma and beta, and
everything downstream is controlled by constants derived from them here:

* ``theta = 2**(gamma-1)``, in (0, 1); the constant profile is ``limit = 1/(1-theta)``.
* ``beta_star = 1/(1-gamma)``, the unique similarity exponent compatible with
  mass conservation.
* ``rho = gamma + 1/beta``, the algebraic tail index; fat-tail profiles exist
  for ``beta > beta_star``, equivalently ``rho`` in ``(gamma, 1)``.
* ``lam = (1-gamma)(beta-beta_star)``, the memory coefficient of the integral
  equation, exactly 0 at the degenerate beta == beta_star.
* ``mu``, the positive bifurcation exponent governing the leading correction
  to the constant profile near zero (solved in :mod:`diagcoag.mu`).

The domain rules gamma < 1 and beta >= beta_star live in ``check_gamma`` and ``check_beta``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

# Relative slack for classifying beta == beta_star (degenerate, mass conserving).
_DEGENERATE_RTOL = 1e-12


def same_value(a: float, b: float) -> bool:
    """a == b to the relative slack that classifies beta == beta_star."""
    return abs(a - b) <= _DEGENERATE_RTOL * max(abs(a), abs(b))


def check_gamma(gamma: float) -> None:
    """Raise ``DomainError`` unless the kernel exponent gamma is < 1."""
    if not gamma < 1.0:
        raise DomainError("gamma must be < 1")


def theta_of(gamma: float) -> float:
    """Return theta = 2**(gamma-1) for a kernel exponent gamma < 1."""
    check_gamma(gamma)
    return 2.0 ** (gamma - 1.0)


def beta_star_of(gamma: float) -> float:
    """Mass-conserving exponent 1/(1-gamma)."""
    check_gamma(gamma)
    return 1.0 / (1.0 - gamma)


def check_beta(gamma: float, beta: float) -> float:
    """Return beta_star; raise ``DomainError`` when beta is below it by more than the slack."""
    bstar = beta_star_of(gamma)
    if beta < bstar * (1.0 - _DEGENERATE_RTOL):
        raise DomainError(f"beta must be >= beta_star = 1/(1-gamma) = {bstar}; got {beta}")
    return bstar


def rho_from_beta(gamma: float, beta: float) -> float:
    """Tail index rho = gamma + 1/beta."""
    check_gamma(gamma)
    if not beta > 0.0:
        raise DomainError("beta must be positive")
    return gamma + 1.0 / beta


def beta_from_rho(gamma: float, rho: float) -> float:
    """Invert rho = gamma + 1/beta; requires rho in the open interval (gamma, 1)."""
    check_gamma(gamma)
    if not (gamma < rho < 1.0):
        raise DomainError(
            f"rho must lie in (gamma, 1) = ({gamma}, 1); got {rho}"
        )
    return 1.0 / (rho - gamma)


@dataclass(frozen=True)
class SimilarityParams:
    """One self-similar solution family member: gamma, beta and its mu.

    theta, beta_star, rho, limit and lam derive from gamma and beta.  Immutable; share freely.
    """

    gamma: float
    beta: float
    mu: float

    @property
    def theta(self) -> float:
        return theta_of(self.gamma)

    @property
    def beta_star(self) -> float:
        return beta_star_of(self.gamma)

    @property
    def rho(self) -> float:
        return rho_from_beta(self.gamma, self.beta)

    @property
    def limit(self) -> float:
        """The constant profile 1/(1-theta), the limit of h at x = 0."""
        return 1.0 / (1.0 - self.theta)

    @property
    def lam(self) -> float:
        """The memory coefficient (1-gamma)(beta-beta_star); 0.0 when degenerate."""
        return (1.0 - self.gamma) * (self.beta - self.beta_star)

    @property
    def degenerate(self) -> bool:
        """True when beta == beta_star (mass-conserving boundary case, snapped by make_params)."""
        return self.beta == self.beta_star


def make_params(gamma: float, beta: float) -> SimilarityParams:
    """Build the validated parameter set, solving for the bifurcation exponent.

    Accepts beta == beta_star (flagged degenerate via the ``degenerate``
    property, not an error); beta < beta_star is rejected.
    """
    gamma, beta = float(gamma), float(beta)
    bstar = check_beta(gamma, beta)
    # Snap values within rounding of the degenerate boundary onto it.
    if abs(beta - bstar) <= _DEGENERATE_RTOL * bstar:
        beta = bstar

    from .mu import solve_mu  # deferred: mu solver reuses this module

    return SimilarityParams(gamma=gamma, beta=beta, mu=solve_mu(gamma, beta).mu)


def params_from_rho(gamma: float, rho: float) -> SimilarityParams:
    """Convenience constructor from the tail index instead of beta."""
    return make_params(gamma, beta_from_rho(gamma, rho))
