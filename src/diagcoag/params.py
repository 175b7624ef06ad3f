"""Parameter algebra for the diagonal-kernel coagulation problem.

The kernel merges equal-size clusters only, at rate ``xi**(1+gamma)`` with
homogeneity ``gamma < 1``.  Everything downstream is controlled by a handful
of derived constants collected here:

* ``theta = 2**(gamma-1)``, in (0, 1); the constant profile is ``1/(1-theta)``.
* ``beta_star = 1/(1-gamma)``, the unique similarity exponent compatible with
  mass conservation.
* ``rho = gamma + 1/beta``, the algebraic tail index; fat-tail profiles exist
  for ``beta > beta_star``, equivalently ``rho`` in ``(gamma, 1)``.
* ``mu``, the positive bifurcation exponent governing the leading correction
  to the constant profile near zero (solved in :mod:`diagcoag.mu`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

# Relative slack for classifying beta == beta_star (degenerate, mass conserving).
_DEGENERATE_RTOL = 1e-12


def same_value(a: float, b: float) -> bool:
    """a == b to the relative slack that classifies beta == beta_star."""
    return abs(a - b) <= _DEGENERATE_RTOL * max(abs(a), abs(b))


def theta_of(gamma: float) -> float:
    """Return theta = 2**(gamma-1) for a kernel exponent gamma < 1."""
    if not gamma < 1.0:
        raise DomainError("gamma must be < 1")
    return 2.0 ** (gamma - 1.0)


@dataclass(frozen=True)
class KernelParams:
    """Kernel exponent and its derived constant theta = 2**(gamma-1)."""

    gamma: float
    theta: float

    @classmethod
    def from_gamma(cls, gamma: float) -> "KernelParams":
        return cls(gamma=float(gamma), theta=theta_of(gamma))


@dataclass(frozen=True)
class SimilarityParams:
    """Full parameter set of one self-similar solution family member.

    Immutable after construction; safe to share freely across tasks.
    """

    kernel: KernelParams
    beta: float
    beta_star: float
    rho: float
    mu: float

    @property
    def gamma(self) -> float:
        return self.kernel.gamma

    @property
    def theta(self) -> float:
        return self.kernel.theta

    @property
    def degenerate(self) -> bool:
        """True when beta == beta_star (mass-conserving boundary case)."""
        return abs(self.beta - self.beta_star) <= _DEGENERATE_RTOL * self.beta_star

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "beta": self.beta,
            "beta_star": self.beta_star,
            "theta": self.theta,
            "rho": self.rho,
            "mu": self.mu,
        }


def beta_star_of(gamma: float) -> float:
    """Mass-conserving exponent 1/(1-gamma)."""
    if not gamma < 1.0:
        raise DomainError("gamma must be < 1")
    return 1.0 / (1.0 - gamma)


def rho_from_beta(gamma: float, beta: float) -> float:
    """Tail index rho = gamma + 1/beta."""
    if not gamma < 1.0:
        raise DomainError("gamma must be < 1")
    if not beta > 0.0:
        raise DomainError("beta must be positive")
    return gamma + 1.0 / beta

def beta_from_rho(gamma: float, rho: float) -> float:
    """Invert rho = gamma + 1/beta; requires rho in the open interval (gamma, 1)."""
    if not gamma < 1.0:
        raise DomainError("gamma must be < 1")
    if not (gamma < rho < 1.0):
        raise DomainError(
            f"rho must lie in (gamma, 1) = ({gamma}, 1); got {rho}"
        )
    return 1.0 / (rho - gamma)


def make_params(gamma: float, beta: float) -> SimilarityParams:
    """Build the validated parameter set, solving for the bifurcation exponent.

    Accepts beta == beta_star (flagged degenerate via the ``degenerate``
    property, not an error); beta < beta_star is rejected.
    """
    gamma = float(gamma)
    beta = float(beta)
    if not gamma < 1.0:
        raise DomainError("gamma must be < 1")
    bstar = beta_star_of(gamma)
    if beta < bstar * (1.0 - _DEGENERATE_RTOL):
        raise DomainError(
            f"beta must be >= beta_star = 1/(1-gamma) = {bstar}; got {beta}"
        )
    # Snap values within rounding of the degenerate boundary onto it.
    if abs(beta - bstar) <= _DEGENERATE_RTOL * bstar:
        beta = bstar

    from .mu import solve_mu  # deferred: mu solver reuses this module

    report = solve_mu(gamma, beta)
    return SimilarityParams(
        kernel=KernelParams.from_gamma(gamma),
        beta=beta,
        beta_star=bstar,
        rho=rho_from_beta(gamma, beta),
        mu=report.mu,
    )


def params_from_rho(gamma: float, rho: float) -> SimilarityParams:
    """Convenience constructor from the tail index instead of beta."""
    return make_params(gamma, beta_from_rho(gamma, rho))
