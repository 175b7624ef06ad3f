"""Direct simulation of the time-dependent coagulation equation.

The diagonal kernel moves mass strictly upward in size (two xi-clusters
merge into one 2*xi-cluster), so on a geometric grid of m_d nodes per octave
the gain term at node k reads the state exactly m_d nodes back:

    df_k/dt = (1/4) xi_{k-m_d}**(1+gamma) f_{k-m_d}**2 - xi_k**(1+gamma) f_k**2,

with f = 0 below the grid (no influx from under the domain).  The grid is
xi_k = xi_min 2**q 2**(r/m_d) for k = q m_d + r, so xi_{k-m_d} == xi_k / 2
holds exactly in floating point for any m_d and a normal xi_min.

The scheme steps H = t xi**(1+gamma) f, which stays of order one where f
falls like 1/t (below the front it settles at 1/(1-theta)), so its square
does not underflow at any time a double can hold.  A step from t_n sets
u = H and tau = t/t_n, takes one explicit 4-stage Runge-Kutta attempt at
the tau-step that ``stable_dt`` bounds on

    du_k/dtau = theta u_{k-m_d}**2 - u_k**2,    theta = 2**(gamma-1),

and sets H = (t_{n+1}/t_n) u.  The mass is linear in u, so the escaped mass,
accumulated with the same Runge-Kutta stages, keeps the discrete mass
balance exact to rounding.

A private kernel, built once per run from the grid and gamma, applies the
scheme to plain arrays of H: it holds the H-independent weights (the loss
weight xi**(1+gamma) that turns f into H, theta and the flux weight of the
top octave), refused when 0 or inf at a grid end, and ``evolve``, the one
output loop, marches on arrays with it: it forms H from the field that
starts each output interval, steps until t reaches the output time and
makes one field of f at exactly that time.  The kernel also owns a step's
scratch and its slices, all built once (see ``_Kernel``); each array a
step returns is a fresh one, so every field owns its data.

Every field checks its gamma < 1 and a finite t >= 1 when it is built, and
the rescaling x = xi / t**beta takes any finite t > 0.  The collapse metric
D(t) reads f at the grid nodes whose rescaled size lies in its window, so
data with empty nodes (a pulse) can be measured against a profile, and a
field sampled from the profile has D = 0 at t = 1.  Mass only moves up, so
``simulate_collapse`` evolves the grid only up to the first node at or
above the window's top at t_end, and books what crosses it as escaped mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, PositivityError
from .params import check_gamma, same_value, theta_of
from .profile import Profile

_LN2 = math.log(2.0)

DEFAULT_NODES_PER_OCTAVE = 16
DEFAULT_OCTAVES = 40
DEFAULT_XI_MIN = 2.0**-20
ETA = 0.1


@dataclass(frozen=True)
class NumberDensityField:
    """Number density f(xi, t) on a geometric size grid.

    The record checks its scalars when built, gamma < 1 and a finite t >= 1,
    and no array, so a ``replace`` adds no pass over f; the constructors that
    take a density check it.  ``escaped_mass`` accumulates the mass flux that
    left through the truncated upper boundary since the field was created.
    """

    gamma: float
    nodes_per_octave: int
    xi_grid: np.ndarray
    f_values: np.ndarray
    t: float
    escaped_mass: float = 0.0

    def __post_init__(self):
        check_gamma(self.gamma)
        if not 1.0 <= self.t < math.inf:
            raise DomainError(f"a field's time t must be finite and at least 1; got {self.t:g}")

    @property
    def dlog(self) -> float:
        return _LN2 / self.nodes_per_octave


def _flux_weight(field: NumberDensityField) -> np.ndarray:
    """The top octave's flux weights xi**(1-gamma) dlog."""
    return field.xi_grid[-field.nodes_per_octave :] ** (1.0 - field.gamma) * field.dlog


def _boundary_flux(
    flux_weight: np.ndarray, loss_density: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Mass flux out through the truncated upper boundary, per row of top-octave
    loss densities u**2: their sum in the flux weights xi**(1-gamma) dlog.

    Loss at the top m_d nodes has its gain above the grid; in the weights of
    the mass M = sum xi**(1-gamma) dlog u / t of u = t xi**(1+gamma) f this
    is its exact compensator, and a node whose loss is 0 moves no mass out.
    """
    return np.add.reduce(np.multiply(flux_weight, loss_density, out), -1)


class _Kernel:
    """The scheme on one grid and kernel, applied to plain arrays of H.

    Everything that does not depend on the state is built once, in
    ``__init__``: the loss weight, theta and the top octave's flux weight,
    the scratch that every step overwrites (the four stage rates, the three
    stage states, one loss density per stage and the top-octave flux block),
    and every slice of that scratch a stage reads or writes.  A step on a few
    thousand nodes spends about as long in numpy's call dispatch as in some
    of its array passes, so it makes no view of its own, passes outputs
    positionally and reduces with the ufuncs' ``reduce``.  The arrays
    ``step`` returns are fresh ones that no later step touches, so each
    field made from them owns its data.  Every expression keeps the operands
    and rounding of the field-by-field form.

    A stage's boundary flux is ``_boundary_flux`` of the loss density its
    rate was formed from, so the escaped mass is the mass the stages take out
    of the grid.

    Why one attempt per step keeps H >= 0.  ``stable_dt`` bounds the tau-step
    by dtau * u_k <= ETA = 0.1 at every node.  A stage's loss thus takes at
    most a tenth of u_k, and its gain, theta dtau u_{k-m}**2 <= theta ETA
    u_{k-m}, raises u_k by only a small share of u_{k-m}.  Every stage state
    stays near that bound, where RK4 on du/dtau = -u**2 with dtau u <= ETA
    keeps u positive, and t_{n+1}/t_n > 0 keeps the sign.  The mass never
    grows, and it moves up to sizes where the same mass gives a smaller u,
    so the kernel checks once, when it is built, that its weights are
    neither 0 nor inf at the grid's ends and that the square and the
    boundary flux of the initial H are finite.  A step that still leaves a
    negative or non-finite H raises ``PositivityError``; no step is retried.
    """

    __slots__ = (
        "loss", "theta", "flux_weight", "rates", "stages", "stage_views", "density_tops", "top",
    )

    def __init__(self, field: NumberDensityField):
        xi = field.xi_grid
        n = len(xi)
        m = field.nodes_per_octave
        with np.errstate(over="ignore"):  # a weight out of the double range is refused below
            self.loss = xi ** (1.0 + field.gamma)
            self.flux_weight = _flux_weight(field)
        for name, w in (("xi**(1+gamma)", self.loss), ("xi**(1-gamma) dlog", self.flux_weight)):
            if not (0.0 < w[0] < math.inf and 0.0 < w[-1] < math.inf):
                raise DomainError(f"weight {name} is 0 or inf on the grid [{xi[0]:g}, {xi[-1]:g}]")
        self.theta = theta_of(field.gamma)
        with np.errstate(over="ignore"):  # an overflow is refused below
            h = self.state(field)
            square = np.multiply(h, h, h)
            flux = _boundary_flux(self.flux_weight, square[-m:])
            square_max = np.maximum.reduce(square)
        for name, value in (("loss (t xi**(1+gamma) f)**2", square_max), ("boundary flux", flux)):
            if not value < math.inf:
                raise DomainError(f"number density too large: its {name} overflows")
        densities = np.empty((4, n))
        self.rates = np.empty((4, n))
        # per stage: its loss density, that density's first octave, its nodes
        # feeding a gain and the rest, and the stage rate's first octave and the rest
        self.stage_views = tuple(
            (d, d[:m], d[:-m], d[m:], k[:m], k[m:]) for d, k in zip(densities, self.rates)
        )
        self.stages = np.empty((3, n))
        self.density_tops = densities[:, -m:]
        self.top = np.empty((4, m))

    def state(self, field: NumberDensityField) -> np.ndarray:
        """H = xi**(1+gamma) f t of the field, a fresh array."""
        h = np.multiply(self.loss, field.f_values)
        return np.multiply(h, field.t, h)

    def density(self, h: np.ndarray, t: float) -> np.ndarray:
        """f = H / t / xi**(1+gamma), a fresh array; t xi**(1+gamma) alone can overflow."""
        f = np.divide(h, t)
        return np.divide(f, self.loss, f)

    def rhs(self, u: np.ndarray, views: tuple) -> None:
        """du/dtau per node into the rate of a stage's ``views``, its loss
        density u**2 into the stage's density row.

        Indices below the grid contribute nothing.
        """
        density, density_low, density_below, density_upper, low, upper = views
        np.multiply(u, u, density)
        np.negative(density_low, low)
        # gain at node k: theta u_{k-m}**2; gain - loss is -loss + gain exactly
        np.multiply(density_below, self.theta, upper)
        np.subtract(upper, density_upper, upper)

    def stable_dt(self, u: np.ndarray, t: float) -> float:
        """t dtau with dtau <= ETA / max u, the bound dt <= ETA /
        max(xi**(1+gamma) f) written in H; inf for an all-zero u."""
        scale = np.maximum.reduce(u).item()
        return t * (ETA / scale) if scale > 0.0 else math.inf

    def step(self, u0: np.ndarray, t: float, dt_max: float) -> tuple[np.ndarray, float, float]:
        """One Runge-Kutta step from H = u0 at time t: (H_new, dt, escaped mass).

        dt is the smaller of ``stable_dt(u0, t)`` and dt_max, and the tau-step
        is dt / t.  The escaped mass is F0 + 2 (F1 + F2) + F3 times dtau/6 / t,
        from the boundary fluxes of the four stages' loss densities.
        """
        dt = min(self.stable_dt(u0, t), dt_max)
        dtau = dt / t
        half = 0.5 * dtau
        rhs, multiply, add = self.rhs, np.multiply, np.add
        k1, k2, k3, k4 = self.rates
        v1, v2, v3, v4 = self.stage_views
        u1, u2, u3 = self.stages
        rhs(u0, v1)
        # each stage state c*k + u0, which is u0 + c*k exactly
        rhs(add(multiply(k1, half, u1), u0, u1), v2)
        rhs(add(multiply(k2, half, u2), u0, u2), v3)
        rhs(add(multiply(k3, dtau, u3), u0, u3), v4)
        # k1 + 2 (k2 + k3) + k4, gathered in k2
        add(k2, k3, k2)
        multiply(k2, 2.0, k2)
        add(k2, k1, k2)
        add(k2, k4, k2)
        multiply(k2, dtau / 6.0, k2)
        h = add(u0, k2)
        multiply(h, (t + dt) / t, h)
        # min and max propagate NaN: (h >= 0).all() and isfinite(h).all()
        if not (np.minimum.reduce(h) >= 0.0 and np.maximum.reduce(h) < math.inf):
            raise PositivityError(f"density lost positivity or finiteness at t = {t:g}")
        s0, s1, s2, s3 = _boundary_flux(self.flux_weight, self.density_tops, self.top).tolist()
        return h, dt, (dtau / 6.0) * (s0 + 2.0 * (s1 + s2) + s3) / t


def _size_grid(n_nodes: int, xi_min: float, nodes_per_octave: int) -> np.ndarray:
    if not xi_min >= np.finfo(float).tiny:
        raise DomainError(f"smallest size xi_min must be positive and normal; got {xi_min:g}")
    if nodes_per_octave < 1:
        raise DomainError(f"nodes per octave must be at least 1; got {nodes_per_octave}")
    span = (n_nodes - 1) / nodes_per_octave
    if n_nodes < 1:
        raise DomainError(f"negative size grid span: {span:g} octaves")
    overflow = f"size grid overflows: xi_min * 2**{span:g}"
    # Refused before the grid is allocated: an octave past the double range
    # overflows whatever the rounding; the grid's top node decides the last octave.
    if math.log2(xi_min) + span >= np.finfo(float).maxexp + 1:
        raise DomainError(overflow)
    # an exact power of two per whole octave keeps xi_{k-m_d} == xi_k / 2 exact for any m_d
    octave, node = np.divmod(np.arange(n_nodes), nodes_per_octave)
    with np.errstate(over="ignore"):
        xi = xi_min * np.exp2(octave) * np.exp2(node / nodes_per_octave)
    if not np.isfinite(xi[-1]):
        raise DomainError(overflow)
    return xi


def _density(f_values) -> np.ndarray:
    """The nodal densities as floats, refused unless finite and nonnegative."""
    f = np.asarray(f_values, dtype=float)
    if not (np.isfinite(f).all() and (f >= 0.0).all()):
        raise DomainError("number density must be finite and nonnegative")
    return f


def make_field(
    gamma: float,
    f_values: np.ndarray,
    xi_min: float = DEFAULT_XI_MIN,
    nodes_per_octave: int = DEFAULT_NODES_PER_OCTAVE,
) -> NumberDensityField:
    """Field at t = 1 for kernel exponent gamma, nodal densities from xi_min upward."""
    f = _density(f_values)
    xi = _size_grid(len(f), xi_min, nodes_per_octave)
    return NumberDensityField(float(gamma), nodes_per_octave, xi, f, 1.0)


def field_from_profile(
    profile: Profile,
    xi_min: float = DEFAULT_XI_MIN,
    octaves: int = DEFAULT_OCTAVES,
    nodes_per_octave: int = DEFAULT_NODES_PER_OCTAVE,
) -> NumberDensityField:
    """Initial data f(xi, 1) = g(xi) sampled from a profile."""
    xi = _size_grid(octaves * nodes_per_octave + 1, xi_min, nodes_per_octave)
    if xi[0] < profile.x_min or xi[-1] > profile.x_max:
        raise DomainError("profile does not cover the requested size grid")
    return NumberDensityField(profile.params.gamma, nodes_per_octave, xi, profile.g_at(xi), 1.0)


def power_law_field(
    gamma: float,
    amplitude: float,
    exponent: float,
    xi_min: float = DEFAULT_XI_MIN,
    octaves: int = DEFAULT_OCTAVES,
    nodes_per_octave: int = DEFAULT_NODES_PER_OCTAVE,
) -> NumberDensityField:
    """f = amplitude * xi**(-exponent); exponent (3+gamma)/2 is stationary."""
    xi = _size_grid(octaves * nodes_per_octave + 1, xi_min, nodes_per_octave)
    with np.errstate(over="ignore"):  # _density rejects a density that overflows
        f = amplitude * xi ** (-exponent)
    return NumberDensityField(float(gamma), nodes_per_octave, xi, _density(f), 1.0)


def pulse_field(
    gamma: float,
    node: int,
    amplitude: float = 1.0,
    xi_min: float = DEFAULT_XI_MIN,
    octaves: int = DEFAULT_OCTAVES,
    nodes_per_octave: int = DEFAULT_NODES_PER_OCTAVE,
) -> NumberDensityField:
    """Single occupied node (monomer-like pulse); ``node`` counts from xi_min."""
    xi = _size_grid(octaves * nodes_per_octave + 1, xi_min, nodes_per_octave)
    f = np.zeros(len(xi))
    if not 0 <= node < len(f):
        raise DomainError(f"pulse node {node} is outside the grid's nodes 0..{len(f) - 1}")
    f[node] = amplitude
    return NumberDensityField(float(gamma), nodes_per_octave, xi, _density(f), 1.0)


def coag_rhs(field: NumberDensityField) -> np.ndarray:
    """df/dt per node for the field's density: du/dtau / t / t / xi**(1+gamma)."""
    kernel = _Kernel(field)
    kernel.rhs(kernel.state(field), kernel.stage_views[0])
    return kernel.density(kernel.rates[0] / field.t, field.t)


def moments(field: NumberDensityField) -> tuple[float, float, float]:
    """(number N, mass M, boundary loss flux) in the uniform log weights xi * dlog.

    The flux is ``_boundary_flux`` of the top octave's loss density
    (xi**(1+gamma) f)**2, the mass per unit time that the scheme's rates
    take out of this M, so M + escaped_mass is conserved to rounding; a
    state whose top octave has no loss has no flux.
    """
    xi = field.xi_grid
    f = field.f_values
    m = field.nodes_per_octave
    w = xi * field.dlog
    top = xi[-m:] ** (1.0 + field.gamma) * f[-m:]
    flux = float(_boundary_flux(_flux_weight(field), top * top))
    return float(np.sum(w * f)), float(np.sum(w * xi * f)), flux


def step(field: NumberDensityField, dt: float) -> NumberDensityField:
    """One Runge-Kutta step of dt, which must lie in (0, stable_dt(field)].

    Accumulates the escaped-mass budget from the same stages.
    """
    kernel = _Kernel(field)
    h = kernel.state(field)
    bound = kernel.stable_dt(h, field.t)
    if not 0.0 < dt <= bound:
        raise DomainError(f"dt = {dt:g} is outside (0, stable_dt] = (0, {bound:g}]")
    h, dt, escaped = kernel.step(h, field.t, dt)
    t = field.t + dt
    return replace(
        field, f_values=kernel.density(h, t), t=t, escaped_mass=field.escaped_mass + escaped
    )


def stable_dt(field: NumberDensityField) -> float:
    """dt <= ETA / max(xi**(1+gamma) f), the loss term's stiffness scale, taken
    as t dtau with dtau <= ETA / max H; inf for an all-zero field."""
    kernel = _Kernel(field)
    return kernel.stable_dt(kernel.state(field), field.t)


def output_times(field: NumberDensityField, t_end: float, n_outputs: int) -> np.ndarray:
    """np.geomspace(field.t, t_end, n_outputs) for a finite t_end >= field.t; a
    single output is at t_end."""
    if not (0.0 < t_end < math.inf and n_outputs >= 0):
        raise DomainError(f"need finite t_end > 0, n_outputs >= 0; got {t_end:g} and {n_outputs}")
    if t_end < field.t:
        raise DomainError(f"t_end = {t_end:g} is before the field's time t = {field.t:g}")
    return np.geomspace(field.t if n_outputs > 1 else t_end, t_end, n_outputs)


def evolve(
    field: NumberDensityField, t_end: float, n_outputs: int
) -> list[NumberDensityField]:
    """The field at each ``output_times(field, t_end, n_outputs)`` entry: H formed
    from the field before it, stepped until t >= t_out and recorded at t_out
    exactly; an entry at that field's time is the field itself."""
    times = output_times(field, t_end, n_outputs)
    kernel = _Kernel(field)
    fields = []
    for t_out in times.tolist():
        if field.t < t_out:
            h, t, mass = kernel.state(field), field.t, field.escaped_mass
            while t < t_out:
                h, dt, escaped = kernel.step(h, t, t_out - t)
                t, mass = t + dt, mass + escaped
            field = replace(field, f_values=kernel.density(h, t_out), t=t_out, escaped_mass=mass)
        fields.append(field)
    return fields


def similarity_factors(t: float, gamma: float, beta: float) -> tuple[float, float]:
    """(t**beta, t**(1+(1+gamma)beta)): at time t, size xi = t**beta x and density
    f = g(x) / t**(1+(1+gamma)beta) of a self-similar solution with profile g;
    ``DomainError`` unless t is finite and positive, and when either factor overflows."""
    t, gamma, beta = float(t), float(gamma), float(beta)  # numpy scalars would give inf
    if not 0.0 < t < math.inf:
        raise DomainError(f"the self-similar rescaling needs a finite t > 0; got t = {t:g}")
    try:
        return t**beta, t ** (1.0 + (1.0 + gamma) * beta)
    except OverflowError:
        raise DomainError(f"the self-similar rescaling at t = {t:g} overflows") from None


def _check_window_in_profile(window: tuple[float, float], profile: Profile) -> None:
    """D's domain rule: the window lies in the profile's domain."""
    if window[0] < profile.x_min or window[1] > profile.x_max:
        raise DomainError("window leaves the profile domain")


def self_similar_distance(
    field: NumberDensityField, profile: Profile, window: tuple[float, float]
) -> float:
    """Sup of |t**(1+(1+gamma)beta) f(xi, t) - g(x)| / g(x), x = xi / t**beta.

    The sup runs over the grid nodes whose x lies in the window; beta and g
    come from the profile (g by its dense evaluation).
    """
    x_lo, x_hi = window
    if not 0.0 < x_lo < x_hi:
        raise DomainError("window must satisfy 0 < x_lo < x_hi")
    scale, density_scale = similarity_factors(field.t, field.gamma, profile.params.beta)
    xi = field.xi_grid
    if scale * x_lo < xi[0] or scale * x_hi > xi[-1]:
        raise DomainError(
            f"rescaled window [{scale * x_lo:g}, {scale * x_hi:g}] leaves the size grid"
        )
    _check_window_in_profile(window, profile)
    x = xi / scale
    inside = (x >= x_lo) & (x <= x_hi)
    if not np.any(inside):
        raise DomainError("window holds no grid node")
    rescaled = density_scale * field.f_values[inside]
    g_ref = np.asarray(profile.g_at(x[inside]), dtype=float)
    return float(np.max(np.abs(rescaled - g_ref) / g_ref))


@dataclass(frozen=True)
class CollapseReport:
    """Collapse distances D(t) at a sequence of output times."""

    times: tuple
    distances: tuple
    window: tuple[float, float]


def default_window(
    field: NumberDensityField, beta: float, t_end: float
) -> tuple[float, float]:
    """Middle two quartiles (in log) of the rescaled domains over [t, t_end].

    Intersecting the rescaled domains at the initial and final times excludes
    the boundary-contaminated nodes at both ends.  The sizes above the
    window's top at t_end, the top quarter of the rescaled span there, lie
    above the window at every t up to t_end, so ``simulate_collapse`` does
    not evolve them.  ``DomainError`` is raised for a t_end before the
    field's t and for a window narrower than one octave (fewer than
    ``nodes_per_octave`` nodes), on which D would rest on a handful of nodes.
    """
    scale_end = similarity_factors(t_end, field.gamma, beta)[0]
    if t_end < field.t:  # t_end**beta could underflow
        raise DomainError(f"t_end = {t_end:g} is before the field's time t = {field.t:g}")
    lo = math.log(field.xi_grid[0] / similarity_factors(field.t, field.gamma, beta)[0])
    hi = math.log(field.xi_grid[-1] / scale_end)
    if hi <= lo:
        raise DomainError("rescaled domains do not overlap; grid too short")
    span = hi - lo
    if 0.5 * span < _LN2:
        raise DomainError(
            f"collapse window spans {0.5 * span / _LN2:.3g} octaves, less than one "
            f"({field.nodes_per_octave} nodes); add octaves or lower t_end"
        )
    return math.exp(lo + 0.25 * span), math.exp(lo + 0.75 * span)


def simulate_collapse(
    field: NumberDensityField,
    profile: Profile,
    beta: float,
    t_end: float,
    n_outputs: int = 5,
    collect_fields: bool = False,
):
    """Evolve the field to t_end, recording D(t) at geometric output times.

    The window is ``default_window`` of the given grid.  Only the nodes up to
    the first one at or above the window's top at t_end, x_hi t_end**beta, are
    evolved: every output lands on its time, at most t_end, and mass moves only
    upward, so larger sizes never reach D.  The fields returned end at that
    node, and their ``escaped_mass`` includes the mass that crossed it.

    Raises ``DomainError`` before any work on a bad ``t_end`` (as ``evolve``),
    and before evolving when ``beta`` or the kernel gamma differs from the
    profile's or the window leaves the profile's domain.
    """
    times = output_times(field, t_end, n_outputs)
    window = default_window(field, beta, t_end)
    ref = profile.params
    if not (same_value(beta, ref.beta) and same_value(field.gamma, ref.gamma)):
        raise DomainError(
            f"gamma = {field.gamma:g}, beta = {beta:g} do not match the "
            f"reference profile's gamma = {ref.gamma:g}, beta = {ref.beta:g}"
        )
    _check_window_in_profile(window, profile)
    scale = similarity_factors(t_end, field.gamma, beta)[0]
    n = int(np.searchsorted(field.xi_grid, window[1] * scale, "left")) + 1
    cut = replace(field, xi_grid=field.xi_grid[:n], f_values=field.f_values[:n])
    fields = evolve(cut, t_end, n_outputs)
    report = CollapseReport(
        times=tuple(float(t) for t in times),
        distances=tuple(self_similar_distance(f, profile, window) for f in fields),
        window=window,
    )
    return report, (fields if collect_fields else fields[-1:])
