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
the norm weights, the grid check) are built once per fixed point, as a
plan that rides on the iterated grid.  The plan also holds the scratch
arrays that every application of T overwrites, so an iteration allocates
little beyond the new iterate.  The evaluation order is kept: every
floating-point operation has the same operands and grouping as when T is
evaluated from scratch, so outputs are bit-identical to that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._quad import cumtrapz_corrected
from .errors import (
    ConvergenceError,
    DomainError,
    IterationLimitError,
    QuadratureError,
    RangeError,
)
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

    ``weighted_norm`` records max x**(-epsilon)*|j(x)| over the nodes (epsilon = mu/2).
    """

    params: SimilarityParams
    z: float
    c: float
    nodes: np.ndarray
    j_values: np.ndarray
    weighted_norm: float
    nodes_per_octave: int
    # j-independent factors of T on this grid (built by fixed_point).
    _plan: _TPlan | None = field(default=None, compare=False, repr=False)

    @property
    def epsilon(self) -> float:
        return epsilon_of(self.params)


class _Head:
    """Powers of the upper limits y of the analytic head integrals over (0, y]."""

    __slots__ = ("lin", "sq0", "sq1", "sq2")

    def __init__(self, y, c: float, e1: float, e2: float, mu: float):
        self.lin = y ** (e1 + mu)
        self.sq0 = c * c * y**e2 / e2  # the j-free term of the square integral
        self.sq1 = y ** (e2 + mu)
        self.sq2 = y ** (e2 + 2.0 * mu)


class _TPlan:
    """The j-independent factors of T on one grid and its parameter set.

    Each entry is the expression that T would otherwise evaluate on every
    call, with the same operands in the same order.  The plan also holds
    the scratch arrays that ``apply_T`` and ``change_norm`` overwrite on
    every call, so one plan serves one evaluation at a time.
    """

    def __init__(self, grid: ExpansionGrid):
        x = grid.nodes
        params = grid.params
        n_oct = grid.nodes_per_octave
        # Three nodes at least: the second-order edge derivative needs them.
        if len(x) < 3 or np.any(np.diff(np.log(x)) <= 0):
            raise QuadratureError("degenerate expansion grid")
        self.nodes = x
        self.params = params
        self.c = grid.c
        self.n_oct = n_oct
        self.dtau = _LN2 / n_oct

        gamma, beta, mu = params.gamma, params.beta, params.mu
        self.two_a = 2.0 / (1.0 - params.theta)
        self.lam = (1.0 - gamma) * (beta - params.beta_star)
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
        self.k_lin = e1 + mu
        self.k_sq1 = e2 + mu
        self.k_sq2 = e2 + 2.0 * mu
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

    def fits(self, grid: ExpansionGrid) -> bool:
        return (
            grid.nodes is self.nodes
            and grid.c == self.c
            and grid.nodes_per_octave == self.n_oct
            and grid.params == self.params
        )

    def norm(self, j: np.ndarray) -> float:
        """Weighted norm max x**(-epsilon) |j(x)| over the nodes."""
        w = np.abs(j, out=self.scratch)
        w *= self.weight
        return float(w.max())

    def change_norm(self, new: np.ndarray, old: np.ndarray) -> float:
        """Weighted norm of new - old."""
        return self.norm(np.subtract(new, old, out=self.scratch))


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
    if not z > 0.0:
        raise DomainError(f"z must be positive; got {z:g}")
    if not math.isfinite(z):
        raise DomainError(f"z must be finite; got {z:g}")
    if z * 2.0**-DEFAULT_OCTAVES < np.finfo(float).tiny:
        raise DomainError(f"lowest node z * 2**-{DEFAULT_OCTAVES} is subnormal; got z = {z:g}")
    if nodes_per_octave < 1:
        raise DomainError(f"grid must have at least one node per octave; got {nodes_per_octave}")
    n = nodes_per_octave * DEFAULT_OCTAVES + 1
    tau = math.log(z) + _LN2 * (np.arange(n) - (n - 1)) / nodes_per_octave
    nodes = np.exp(tau)
    nodes[-1] = z  # pin the right endpoint exactly
    return ExpansionGrid(
        params=params,
        z=float(z),
        c=float(c),
        nodes=nodes,
        j_values=np.zeros(n),
        weighted_norm=0.0,
        nodes_per_octave=nodes_per_octave,
    )


def contraction_margin(params: SimilarityParams, epsilon: float) -> float:
    """Linear-part contraction factor kappa(epsilon) < 1.

    kappa = (2 F(mu+eps) + (1-gamma)*beta - 1) / (beta * (1-gamma+mu+eps));
    the defining equation of mu makes kappa(0) = 1 exactly and kappa < 1 for
    every eps > 0.
    """
    if not epsilon > 0.0:
        raise DomainError("epsilon must be positive")
    gamma, beta, mu = params.gamma, params.beta, params.mu
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


def ball_radius(params: SimilarityParams, c: float, z: float) -> float:
    """Radius R of the invariant ball for the self-map of T at this z.

    Smallest root of kappa*R + B2*z**(mu+eps)*R**2 + Bc*z**(mu-eps) = R at
    eps = mu/2 when real; otherwise the vertex radius (beyond which the self-map
    bound can never close), so that runaway iterates are detected.
    """
    mu = params.mu
    epsilon = epsilon_of(params)
    kappa = contraction_margin(params, epsilon)
    b2, bc = _quadratic_coefficients(params, c)
    if bc == 0.0:
        return math.inf
    gap = 1.0 - kappa
    quad = b2 * z ** (mu + epsilon)
    const = bc * z ** (mu - epsilon)
    disc = gap * gap - 4.0 * quad * const
    if disc >= 0.0:
        return (gap - math.sqrt(disc)) / (2.0 * quad)
    return gap / (2.0 * quad)


def default_z(params: SimilarityParams, c: float = 1.0) -> float:
    """Largest z = 2**-k at which the contraction has a definite margin.

    Requires kappa + 2*sqrt(B2*Bc)*z**mu <= max(0.95, (1+kappa)/2) (the
    second branch keeps the rule solvable when kappa itself exceeds 0.95,
    which happens for beta >> beta_star where mu is small), plus the
    locality condition c*z**mu <= (1/4)/(1-theta) so the bifurcation term
    stays a perturbation of the constant at the hand-off point.
    """
    check_amplitude(c)
    mu = params.mu
    if c == 0.0:
        return 0.25
    kappa = contraction_margin(params, epsilon_of(params))
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

    The grid's plan lends its scratch arrays to the evaluation, so calls on
    grids that share a plan must not overlap (nothing in this package runs
    threads).  The returned iterate is a fresh array.
    """
    plan = grid._plan
    if plan is None or not plan.fits(grid):
        plan = _TPlan(grid)
    j = grid.j_values
    c = grid.c
    n_oct = plan.n_oct
    two_a = plan.two_a

    djdtau = plan.djdtau
    np.subtract(j[2:], j[:-2], out=djdtau[1:-1])
    djdtau[1:-1] /= plan.two_dtau
    # Anchor the bottom edge on the known leading behavior j ~ x**mu.
    j1 = float(j[0])
    djdtau[0] = grid.params.mu * j1
    a, b, c_n = plan.edge_n
    djdtau[-1] = a * j[-3] + b * j[-2] + c_n * j[-1]

    # The integrands stacked as rows: the linear term 2/(1-theta) j, the
    # square term (c - j)**2 and the memory term j, each times its power of x.
    cmj = np.subtract(c, j, out=plan.cmj)  # (-c + j)**2 == (c - j)**2
    phi = plan.phi
    np.multiply(plan.x_e1_rows, j, out=phi[::2])
    np.multiply(plan.x_e2, cmj, out=phi[1])
    phi[1] *= cmj
    dphi = np.multiply(plan.e_rows, phi, out=plan.dphi)
    # The derivative terms, formed in the quadrature's output before it is written.
    i = plan.integrals
    np.multiply(plan.x_e1_rows, djdtau, out=i[::2])
    np.multiply(plan.neg_x_e2_two, cmj, out=i[1])
    i[1] *= djdtau
    dphi += i
    cumtrapz_corrected(phi, dphi, plan.dtau, i)

    # Analytic integrals over (0, y] for y <= x1 under j(s) = j1*(s/x1)**mu,
    # with their j-dependent prefactors formed once.
    f_lin = j1 * plan.x1_mu
    f_sq1 = 2.0 * c * j1 * plan.x1_mu
    f_sq2 = j1 * j1 * plan.x1_2mu

    def head_lin(y: _Head):
        return f_lin * y.lin / plan.k_lin

    def head_sq(y: _Head):
        return y.sq0 - f_sq1 * y.sq1 / plan.k_sq1 + f_sq2 * y.sq2 / plan.k_sq2

    heads = plan.heads
    lin_x1 = head_lin(plan.head_x1)
    heads[:, 0] = (two_a * lin_x1, head_sq(plan.head_x1), lin_x1)
    i += heads

    # Delay differences int_{x/2}^{x} of the first two rows: exactly n_oct
    # nodes back on the grid, analytic below the lowest node.
    d = plan.delay
    np.subtract(i[:2, n_oct:], i[:2, :-n_oct], out=d[:, n_oct:])
    np.subtract(i[0, :n_oct], two_a * head_lin(plan.head_half), out=d[0, :n_oct])
    np.subtract(i[1, :n_oct], head_sq(plan.head_half), out=d[1, :n_oct])

    new_j = np.add(d[0], d[1])
    new_j += np.multiply(plan.lam, i[2], out=plan.scratch)
    new_j /= plan.den
    return replace(grid, j_values=new_j, weighted_norm=plan.norm(new_j), _plan=plan)


def fixed_point(
    params: SimilarityParams,
    c: float,
    z: float,
    nodes_per_octave: int = DEFAULT_NODES_PER_OCTAVE,
) -> ExpansionGrid:
    """Iterate T from j = 0 until the weighted norm (eps = mu/2) of the change is
    <= ``DEFAULT_TOL``.

    Raises ``ConvergenceError`` when an iterate diverges or leaves the
    invariant ball (z too large for the parameters), and its subclass
    ``IterationLimitError`` after ``DEFAULT_MAX_ITER`` iterations.  The rate
    of convergence is the contraction margin, which does not depend on z, so
    a smaller z cannot make up for too few iterations.
    """
    check_amplitude(c)
    grid = empty_grid(params, z, c, nodes_per_octave)
    if c == 0.0:
        return grid  # T[0] = 0 identically: the constant branch

    plan = _TPlan(grid)
    grid = replace(grid, _plan=plan)
    radius = ball_radius(params, c, z)
    for _ in range(DEFAULT_MAX_ITER):
        new = apply_T(grid)
        norm = new.weighted_norm
        # A finite weighted norm implies a finite iterate: every weight is >= 0
        # and the maximum propagates NaN.
        if not math.isfinite(norm) and not np.isfinite(new.j_values).all():
            raise ConvergenceError(
                f"fixed-point iteration diverged at z={z:g} (non-finite iterate)"
            )
        if norm > radius * (1.0 + 1e-9):
            raise ConvergenceError(
                f"iterate left the invariant ball (norm {norm:g} > "
                f"R = {radius:g}): z={z:g} too large"
            )
        change = plan.change_norm(new.j_values, grid.j_values)
        grid = new
        if change <= DEFAULT_TOL:
            return grid
    raise IterationLimitError(
        f"fixed point not reached in {DEFAULT_MAX_ITER} iterations at z={z:g}"
    )


def h_from_expansion(grid: ExpansionGrid, m: int | None = None) -> Profile:
    """Assemble the profile segment h = 1/(1-theta) + x**mu (-c + j) on (0, z].

    ``m`` (must divide the grid's density) selects the output's octave density;
    derivative values come from the delay equation with the grid's parameters,
    the j ~ x**mu model serving delayed arguments below the lowest node.
    Raises ``MonotonicityError`` when c > 0 and h fails to decrease, which
    signals z beyond the safe neighbourhood.  It is not retried at a smaller
    z: ``build_profile`` reports it, and ``default_z`` is the safe choice.
    """
    if m is None:
        m = grid.nodes_per_octave
    if grid.nodes_per_octave % m != 0:
        raise DomainError(
            f"output density m={m} must divide the expansion density "
            f"{grid.nodes_per_octave}"
        )
    stride = grid.nodes_per_octave // m
    # Keep the right endpoint: subsample counting back from the end.
    idx = np.arange(len(grid.nodes) - 1, -1, -stride)[::-1]
    x = grid.nodes[idx]
    j = grid.j_values[idx]

    params = grid.params
    mu = params.mu
    limit = 1.0 / (1.0 - params.theta)
    c = grid.c
    h = limit + x**mu * (j - c)

    # Delayed values for the derivative: exact nodes where available, the
    # x**mu extrapolation model below the grid.
    x1 = grid.nodes[0]
    j1 = grid.j_values[0]
    h_half = np.empty_like(h)
    h_half[m:] = h[:-m]
    low = x[:m] / 2.0
    h_half[:m] = limit + low**mu * (j1 * (low / x1) ** mu - c)
    dh = rhs(x, h, h_half, params)  # elementwise over the nodes

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
    check_profile_invariants(seed)  # monotonicity failure here means: z too large
    return seed
