"""Local construction of the profile near x = 0 by fixed-point iteration.

Near the origin the profile bifurcates off the constant 1/(1-theta):

    h(x) = 1/(1-theta) + x**mu * (-c + j(x)),

where the correction j solves j = T[j] with

    T[j](x) = (1/beta) * x**(-(1-gamma+mu)) * (
        int_{x/2}^{x} s**(-gamma+mu) * 2/(1-theta) * j(s) ds
      + int_{x/2}^{x} s**(-gamma+2mu) * (-c + j(s))**2 ds
      + (1-gamma)*(beta-beta_star) * int_0^x s**(-gamma+mu) * j(s) ds ).

T contracts on a ball of the weighted space ||f|| = sup x**(-eps) |f(x)|
over [0, z] for eps in (0, mu) and z small; iteration from j = 0 converges
geometrically.  The code takes eps = mu/2 (``epsilon_of``): the grid carries
its parameter set, so the weight, the ball radius and the hand-off point all
read that one value.  Integrals are evaluated on a geometric grid (uniform in
tau = log s) by the corrected trapezoid rule; the part of the cumulative
integral below the lowest node uses the extrapolation j(s) ~ j(x1)*(s/x1)**mu,
which is the exact leading behavior of the fixed point.

The factors of T that do not depend on j (powers of the nodes, the head
integrals' powers of the lowest node and of the delayed points below it,
the norm weights) are built once per fixed point, as a plan that
``fixed_point`` iterates on plain arrays.  The plan also holds
the scratch arrays that every application of T overwrites, so an iteration
allocates little beyond the new iterate.  The evaluation order is kept:
every floating-point operation has the same operands and grouping as when
T is evaluated from scratch, so outputs are bit-identical to that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._quad import cumtrapz_corrected
from .errors import ConvergenceError, DomainError, RangeError
from .mu import F_of
from .params import SimilarityParams
from .profile import Profile, check_invariants as check_profile_invariants, rhs

_LN2 = math.log(2.0)

DEFAULT_NODES_PER_OCTAVE = 64
DEFAULT_OCTAVES = 20
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 2000


def epsilon_of(params: SimilarityParams) -> float:
    """Exponent eps = mu/2 of the weighted norm, inside (0, mu)."""
    return 0.5 * params.mu


@dataclass(frozen=True)
class ExpansionGrid:
    """Correction j for one parameter set, sampled on a geometric grid over (0, z].

    The nodes span ``DEFAULT_OCTAVES`` octaves at ``nodes_per_octave`` and are
    derived.  Construction checks z, the density and j.
    """

    params: SimilarityParams
    z: float
    c: float
    j_values: np.ndarray
    nodes_per_octave: int

    def __post_init__(self):
        z, m = self.z, self.nodes_per_octave
        if not z > 0.0:
            raise DomainError(f"z must be positive; got {z:g}")
        if not math.isfinite(z):
            raise DomainError(f"z must be finite; got {z:g}")
        if z * 2.0**-DEFAULT_OCTAVES < np.finfo(float).tiny:
            raise DomainError(f"lowest node z * 2**-{DEFAULT_OCTAVES} is subnormal; got z = {z:g}")
        if m < 1:
            raise DomainError(f"grid must have at least one node per octave; got {m}")
        if np.shape(self.j_values) != (m * DEFAULT_OCTAVES + 1,):
            raise DomainError(f"j must hold {m * DEFAULT_OCTAVES + 1} values, one per node")

    @property
    def epsilon(self) -> float:
        return epsilon_of(self.params)

    @property
    def nodes(self) -> np.ndarray:
        """The nodes z * 2**((k - n + 1)/m), k = 0 .. n-1; the last is z exactly."""
        n = len(self.j_values)
        tau = math.log(self.z) + _LN2 * (np.arange(n) - (n - 1)) / self.nodes_per_octave
        nodes = np.exp(tau)
        nodes[-1] = self.z
        return nodes


class _Head:
    """Analytic integrals over (0, y] under j(s) = j1*(s/x1)**mu, for upper limits y."""

    __slots__ = ("k_lin", "k_sq1", "k_sq2", "y_lin", "sq0", "sq1", "sq2")

    def __init__(self, y, c: float, e1: float, e2: float, mu: float):
        self.k_lin = e1 + mu
        self.k_sq1 = e2 + mu
        self.k_sq2 = e2 + 2.0 * mu
        self.y_lin = y**self.k_lin
        self.sq0 = c * c * y**e2 / e2  # the j-free term of the square integral
        self.sq1 = y**self.k_sq1
        self.sq2 = y**self.k_sq2

    def lin(self, f_lin: float):
        """Integral of s**(e1-1) j(s), given f_lin = j1 * x1**-mu."""
        return f_lin * self.y_lin / self.k_lin

    def sq(self, f_sq1: float, f_sq2: float):
        """Integral of s**(e2-1) (c - j(s))**2, given 2 c j1 x1**-mu and j1**2 x1**-2mu."""
        return self.sq0 - f_sq1 * self.sq1 / self.k_sq1 + f_sq2 * self.sq2 / self.k_sq2


class _TPlan:
    """T on one grid and its parameter set: ``apply(j)`` returns T[j].

    The j-independent factors are the expressions that T would otherwise
    evaluate on every call, with the same operands in the same order.  The
    plan also holds the scratch arrays that ``apply`` and ``change_norm``
    overwrite on every call, so one plan serves one evaluation at a time
    (nothing in this package runs threads).
    """

    def __init__(self, grid: ExpansionGrid):
        x = grid.nodes
        params = grid.params
        n_oct = grid.nodes_per_octave
        self.c = grid.c
        self.n_oct = n_oct
        self.dtau = _LN2 / n_oct

        gamma, beta, mu = params.gamma, params.beta, params.mu
        self.mu = mu
        self.two_a = 2.0 * params.limit  # == 2/(1-theta): doubling commutes with rounding
        self.lam = params.lam
        # exponents of the linear and square integrands (with jacobian)
        e1 = 1.0 - gamma + mu
        e2 = 1.0 - gamma + 2.0 * mu

        x_e1 = x**e1
        self.x_e2 = x**e2
        # The factors of rows 0 and 2 (linear and memory terms), stacked.
        self.x_e1_rows = np.stack((x_e1 * self.two_a, x_e1))
        # Row 1's derivative factor, negated: a - b*c*d == a + (-b)*c*d exactly.
        self.neg_x_e2_two = -(self.x_e2 * 2.0)
        self.den = beta * x_e1
        # x**e1 is smallest at the lowest node; there it can underflow to 0
        # for a tiny hand-off point, and T would then divide by zero.
        if not self.den[0] > 0.0:
            raise RangeError(
                f"x**(1-gamma+mu) underflows to 0 at the lowest expansion node "
                f"x = {x[0]:g} (z = {grid.z:g}), so T would divide by zero"
            )
        self.e_rows = np.array([[e1], [e2], [e1]])
        self.weight = x ** (-grid.epsilon)

        # np.gradient(j, dtau, edge_order=2) on a uniform grid, spelled out.
        self.two_dtau = 2.0 * self.dtau
        self.edge_n = (0.5 / self.dtau, -2.0 / self.dtau, 1.5 / self.dtau)

        x1 = x[0]
        self.x1_mu = float(x1**-mu)
        self.x1_2mu = float(x1 ** (-2.0 * mu))
        self.head_x1 = _Head(x1, grid.c, e1, e2, mu)
        self.head_half = _Head((x / 2.0)[:n_oct], grid.c, e1, e2, mu)

        n = len(x)
        self.djdtau = np.empty(n)
        self.cmj = np.empty(n)
        self.phi = np.empty((3, n))
        self.dphi = np.empty((3, n))
        self.integrals = np.empty((3, n))
        self.delay = np.empty((2, n))
        self.heads = np.empty((3, 1))
        self.scratch = np.empty(n)

    def norm(self, j: np.ndarray) -> float:
        """Weighted norm max x**(-epsilon) |j(x)| over the nodes."""
        w = np.abs(j, out=self.scratch)
        w *= self.weight
        return float(w.max())

    def change_norm(self, new: np.ndarray, old: np.ndarray) -> float:
        """Weighted norm of new - old."""
        return self.norm(np.subtract(new, old, out=self.scratch))

    def apply(self, j: np.ndarray) -> np.ndarray:
        """T[j] as a fresh array; j is not mutated."""
        c = self.c
        n_oct = self.n_oct
        two_a = self.two_a

        djdtau = self.djdtau
        np.subtract(j[2:], j[:-2], out=djdtau[1:-1])
        djdtau[1:-1] /= self.two_dtau
        # Anchor the bottom edge on the known leading behavior j ~ x**mu.
        j1 = float(j[0])
        djdtau[0] = self.mu * j1
        a, b, c_n = self.edge_n
        djdtau[-1] = a * j[-3] + b * j[-2] + c_n * j[-1]

        # The integrands stacked as rows: the linear term 2/(1-theta) j, the
        # square term (c - j)**2 and the memory term j, each times its power of x.
        cmj = np.subtract(c, j, out=self.cmj)  # (-c + j)**2 == (c - j)**2
        phi = self.phi
        np.multiply(self.x_e1_rows, j, out=phi[::2])
        np.multiply(self.x_e2, cmj, out=phi[1])
        phi[1] *= cmj
        dphi = np.multiply(self.e_rows, phi, out=self.dphi)
        # The derivative terms, formed in the quadrature's output before it is written.
        i = self.integrals
        np.multiply(self.x_e1_rows, djdtau, out=i[::2])
        np.multiply(self.neg_x_e2_two, cmj, out=i[1])
        i[1] *= djdtau
        dphi += i
        cumtrapz_corrected(phi, dphi, self.dtau, i)

        # The head integrals' j-dependent prefactors, formed once.
        f_lin = j1 * self.x1_mu
        f_sq1 = 2.0 * c * j1 * self.x1_mu
        f_sq2 = j1 * j1 * self.x1_2mu
        heads = self.heads
        lin_x1 = self.head_x1.lin(f_lin)
        heads[:, 0] = (two_a * lin_x1, self.head_x1.sq(f_sq1, f_sq2), lin_x1)
        i += heads

        # Delay differences int_{x/2}^{x} of the first two rows: exactly n_oct
        # nodes back on the grid, analytic below the lowest node.
        d = self.delay
        np.subtract(i[:2, n_oct:], i[:2, :-n_oct], out=d[:, n_oct:])
        np.subtract(i[0, :n_oct], two_a * self.head_half.lin(f_lin), out=d[0, :n_oct])
        np.subtract(i[1, :n_oct], self.head_half.sq(f_sq1, f_sq2), out=d[1, :n_oct])

        new_j = np.add(d[0], d[1])
        new_j += np.multiply(self.lam, i[2], out=self.scratch)
        new_j /= self.den
        return new_j


def check_amplitude(c: float) -> None:
    """Raise ``DomainError`` unless the bifurcation amplitude c is finite and >= 0."""
    if not math.isfinite(c):
        raise DomainError(f"amplitude c must be finite; got {c:g}")
    if c < 0.0:
        raise DomainError(f"amplitude c must be nonnegative; got {c:g}")


def empty_grid(
    params: SimilarityParams,
    z: float,
    c: float,
    nodes_per_octave: int = DEFAULT_NODES_PER_OCTAVE,
) -> ExpansionGrid:
    """Grid for ``params`` with j = 0 spanning [z*2**-DEFAULT_OCTAVES, z]."""
    n = max(nodes_per_octave * DEFAULT_OCTAVES + 1, 0)  # the grid refuses a density < 1
    return ExpansionGrid(params, float(z), float(c), np.zeros(n), nodes_per_octave)


def contraction_margin(params: SimilarityParams) -> float:
    """Linear-part contraction factor kappa(eps) < 1 at eps = ``epsilon_of(params)``.

    kappa = (2 F(mu+eps) + (1-gamma)*beta - 1) / (beta * (1-gamma+mu+eps));
    the defining equation of mu makes kappa(0) = 1 exactly and kappa < 1 for
    every eps > 0.
    """
    gamma, beta, mu = params.gamma, params.beta, params.mu
    epsilon = epsilon_of(params)
    num = 2.0 * F_of(params, mu + epsilon) + (1.0 - gamma) * beta - 1.0
    den = beta * (1.0 - gamma + mu + epsilon)
    return num / den


def _quadratic_coefficients(params: SimilarityParams, c: float):
    """Coefficients of the z**mu terms in the self-map bound at eps = mu/2.

    With ||j|| <= R the nonlinear part of ||T[j]|| is bounded by
    B2 * z**(mu+eps) * R**2 + Bc * z**(mu-eps), from (a+b)^2 <= 2a^2 + 2b^2.
    """
    gamma, beta, mu = params.gamma, params.beta, params.mu
    epsilon = epsilon_of(params)
    a2 = 1.0 - gamma + 2.0 * mu + 2.0 * epsilon
    b2 = 2.0 * (1.0 - 2.0 ** (-a2)) / (beta * a2)
    ac = 1.0 - gamma + 2.0 * mu
    bc = 2.0 * c * c * (1.0 - 2.0 ** (-ac)) / (beta * ac)
    return b2, bc


def ball_radius(grid: ExpansionGrid) -> float:
    """Radius R of the invariant ball for the self-map of T on the grid's parameters,
    amplitude c and hand-off point z.

    Smallest root of kappa*R + B2*z**(mu+eps)*R**2 + Bc*z**(mu-eps) = R at
    eps = mu/2 when real; otherwise the vertex radius (beyond which the self-map
    bound can never close), so that runaway iterates are detected.
    """
    params, z = grid.params, grid.z
    mu, epsilon = params.mu, grid.epsilon
    kappa = contraction_margin(params)
    b2, bc = _quadratic_coefficients(params, grid.c)
    if bc == 0.0:
        return math.inf
    gap = 1.0 - kappa
    quad = b2 * z ** (mu + epsilon)
    const = bc * z ** (mu - epsilon)
    disc = gap * gap - 4.0 * quad * const
    if disc >= 0.0:
        # The small root in the form that does not cancel when 4*quad*const << gap**2.
        return 2.0 * const / (gap + math.sqrt(disc))
    return gap / (2.0 * quad)


def default_z(params: SimilarityParams, c: float = 1.0) -> float:
    """Largest z = 2**-k at which the contraction has a definite margin.

    Requires kappa + 2*sqrt(B2*Bc)*z**mu <= max(0.95, (1+kappa)/2) (the
    second branch keeps the rule solvable when kappa itself exceeds 0.95,
    which happens for beta >> beta_star where mu is small), plus the
    locality condition c*z**mu <= (1/4)/(1-theta) so the bifurcation term
    stays a perturbation of the constant at the hand-off point.  That limit
    is formed as 0.25/((1-theta) c), not from ``params.limit``: the other
    grouping rounds differently and could move z, and with it d.
    """
    check_amplitude(c)
    mu = params.mu
    if c == 0.0:
        return 0.25
    kappa = contraction_margin(params)
    b2, bc = _quadratic_coefficients(params, c)
    c_est = 2.0 * math.sqrt(b2 * bc)
    threshold = max(0.95, 0.5 * (1.0 + kappa))
    limit = 0.25 / ((1.0 - params.theta) * c)
    for k in range(2, 400):
        z = 2.0**-k
        if kappa + c_est * z**mu <= threshold and c * z**mu <= limit:
            return z
    raise ConvergenceError(
        f"no admissible hand-off point z found for gamma={params.gamma}, "
        f"beta={params.beta}"
    )


def apply_T(grid: ExpansionGrid) -> ExpansionGrid:
    """One application of T for the grid's parameters; the input grid is not mutated.

    Builds the plan for the grid on every call; ``fixed_point`` builds one
    and iterates it on arrays.
    """
    return replace(grid, j_values=_TPlan(grid).apply(grid.j_values))


def fixed_point(
    params: SimilarityParams,
    c: float,
    z: float,
    nodes_per_octave: int = DEFAULT_NODES_PER_OCTAVE,
) -> ExpansionGrid:
    """Iterate T from j = 0 until the weighted norm (eps = mu/2) of the change is
    <= ``DEFAULT_TOL``.

    Raises ``ConvergenceError`` when an iterate diverges or leaves the
    invariant ball (z too large for the parameters), or after
    ``DEFAULT_MAX_ITER`` iterations.  The rate of convergence is the
    contraction margin, which does not depend on z, so a smaller z cannot
    make up for too few iterations.
    """
    check_amplitude(c)
    grid = empty_grid(params, z, c, nodes_per_octave)
    if c == 0.0:
        return grid  # T[0] = 0 identically: the constant branch

    plan = _TPlan(grid)
    radius = ball_radius(grid)
    j = grid.j_values
    # A diverging iterate overflows on its way to the finiteness check below,
    # which reports it as a ConvergenceError: no floating-point warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(DEFAULT_MAX_ITER):
            new = plan.apply(j)
            norm = plan.norm(new)
            # A finite weighted norm implies a finite iterate: every weight is
            # >= 0 and the maximum propagates NaN.
            if not math.isfinite(norm) and not np.isfinite(new).all():
                raise ConvergenceError(
                    f"fixed-point iteration diverged at z={z:g} (non-finite iterate)"
                )
            if norm > radius * (1.0 + 1e-9):
                raise ConvergenceError(
                    f"iterate left the invariant ball (norm {norm:g} > "
                    f"R = {radius:g}): z={z:g} too large"
                )
            change = plan.change_norm(new, j)
            j = new
            if change <= DEFAULT_TOL:
                return replace(grid, j_values=j)
    raise ConvergenceError(f"fixed point not reached in {DEFAULT_MAX_ITER} iterations at z={z:g}")


def h_from_expansion(grid: ExpansionGrid) -> Profile:
    """Assemble the profile segment h = 1/(1-theta) + x**mu (-c + j) on (0, z].

    The profile has the grid's nodes and density; the values dh/dtau come
    from the delay equation with the grid's parameters, the j ~ x**mu model
    serving delayed arguments below the lowest node.
    Raises ``MonotonicityError`` when c > 0 and h fails to decrease, which
    signals z beyond the safe neighbourhood.  It is not retried at a smaller
    z: ``build_profile`` reports it, and ``default_z`` is the safe choice.
    """
    x = grid.nodes
    j = grid.j_values
    m = grid.nodes_per_octave
    params = grid.params
    mu = params.mu
    limit = params.limit
    c = grid.c
    h = limit + x**mu * (j - c)

    # Delayed values for the derivative: exact nodes where available, the
    # x**mu extrapolation model below the grid.
    x1 = x[0]
    j1 = j[0]
    h_half = np.empty_like(h)
    h_half[m:] = h[:-m]
    low = x[:m] / 2.0
    h_half[:m] = limit + low**mu * (j1 * (low / x1) ** mu - c)
    dh = rhs(x, h, h_half, params)
    seed = Profile(
        params=params,
        m=m,
        tau0=float(np.log(x[0])),
        h_values=h,
        dh_values=dh,
        c=float(c),
        z=grid.z,
        normalized=False,
    )
    dh *= seed.x_values  # dh/dtau = x dh/dx on the profile's own nodes exp(tau), not the grid's
    check_profile_invariants(seed)  # monotonicity failure here means: z too large
    return seed
