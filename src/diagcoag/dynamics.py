"""Direct simulation of the time-dependent coagulation equation.

The diagonal kernel moves mass strictly upward in size (two xi-clusters
merge into one 2*xi-cluster), so on a geometric grid of m_d nodes per octave
the gain term at node k reads the state exactly m_d nodes back:

    df_k/dt = (1/4) xi_{k-m_d}**(1+gamma) f_{k-m_d}**2 - xi_k**(1+gamma) f_k**2,

with f = 0 below the grid (no influx from under the domain).  The grid is
xi_k = xi_min 2**q 2**(r/m_d) for k = q m_d + r, so xi_{k-m_d} == xi_k / 2
holds exactly in floating point for any m_d and a normal xi_min.  Explicit
4-stage Runge-Kutta advances the system, one attempt per step at the dt that
``stable_dt`` bounds.  The escaped-mass budget is accumulated with the same
Runge-Kutta stages, which makes the discrete mass balance exact to rounding.

A private kernel, built once per run from the grid and gamma, applies the
scheme to plain density arrays: it holds the f-independent weights (the loss
weight xi**(1+gamma) and the boundary-flux weight of the top octave), and
``evolve`` marches on arrays with it, making one field per output time.  The
kernel also owns a step's scratch (stage rates and states, loss products,
the top-octave flux block) and every slice of it that a stage reads or
writes, all built once, since on a few thousand nodes numpy's per-call
dispatch costs about as much as an array pass; each density a step returns
is a fresh array, so every field owns its data.  Nodes whose rates are
exactly 0 for good (frozen nodes, see ``_Kernel``) leave the step bound.

The collapse metric D(t) reads f at the grid nodes whose rescaled size lies
in its window, so data with empty nodes (a pulse) can be measured against a
profile, and a field sampled from the profile has D = 0 at t = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, PositivityError
from .params import check_gamma, same_value
from .profile import Profile

_LN2 = math.log(2.0)

DEFAULT_NODES_PER_OCTAVE = 16
DEFAULT_OCTAVES = 40
DEFAULT_XI_MIN = 2.0**-20
ETA = 0.1


@dataclass(frozen=True)
class NumberDensityField:
    """Number density f(xi, t) on a geometric size grid.

    ``escaped_mass`` accumulates the mass flux that left through the
    truncated upper boundary since the field was created.
    """

    gamma: float
    nodes_per_octave: int
    xi_grid: np.ndarray
    f_values: np.ndarray
    t: float
    escaped_mass: float = 0.0

    @property
    def dlog(self) -> float:
        return _LN2 / self.nodes_per_octave


def _boundary_weight(field: NumberDensityField) -> np.ndarray:
    """Weight of f**2 in the mass flux through the truncated upper boundary.

    Loss at the top m_d nodes has its gain above the grid; in the uniform log
    weights xi * dlog of the mass moment this is its exact compensator.
    """
    top = field.xi_grid[-field.nodes_per_octave :]
    return (top * field.dlog) * top ** (2.0 + field.gamma)


class _Kernel:
    """The scheme on one grid and kernel, applied to plain density arrays.

    Everything that does not depend on f is built once, in ``__init__``: the
    loss and boundary weights, the scratch that every step overwrites (the
    four stage rates, the three stage states, the loss*f product, the loss
    density and the top-octave flux block), and every slice of that scratch
    a stage reads or writes.  A step on a few thousand nodes spends about as
    long in numpy's call dispatch as in some of its array passes, so it makes
    no view of its own apart from f0's top octave, passes outputs
    positionally and reduces with the ufuncs' ``reduce``.  The densities
    ``step`` returns are fresh arrays that no later step touches, so each
    field made from them owns its data.  Every expression keeps the operands
    and rounding of the field-by-field form.

    Why one attempt per step keeps f >= 0.  Call a node *frozen* when its
    loss product xi**(1+gamma) f**2 is exactly 0 and the node one octave
    down is frozen or lies below the grid.  Its gain, (1/4) of that lower
    node's loss product, is then exactly 0 too, so its rate is exactly 0; at
    any finite dt each stage state repeats f there bit for bit, so its four
    stage rates and its step are exactly 0, and its f stays as it is.  A
    frozen node in the top octave thus moves no mass out either, so the step
    gives it a boundary-flux weight of 0, and the mass balance stays exact
    however long the step is.
    ``stable_dt`` bounds dt * xi**(1+gamma) f by ETA = 0.1 at every node that
    is not frozen, or leaves dt to dt_max when every node is.  At such a
    node a stage's loss takes at most a tenth of f_k, and its gain, (1/4) dt
    xi_{k-m}**(1+gamma) f_{k-m}**2 <= (ETA/4) f_{k-m}, raises f_k by only a
    small share of f_{k-m} (or by nothing, when node k-m is frozen).  Every
    stage state thus stays near that bound, where RK4 on df/dt = -a f**2
    with a dt f <= ETA keeps f positive.  The mass never grows, and it moves
    up to sizes where the same mass gives a smaller loss and flux, so the
    kernel checks once, when it is built, that the loss and the boundary
    flux of the initial density are finite.  A step that still leaves a
    negative or non-finite density raises ``PositivityError``; no step is
    retried.
    """

    __slots__ = (
        "m", "loss", "boundary", "flux_weight", "loss_f", "density", "density_low",
        "density_below", "density_upper", "rates", "rate_views", "stages", "stage_tops",
        "top", "top_stages",
    )

    def __init__(self, field: NumberDensityField):
        n = len(field.xi_grid)
        m = self.m = field.nodes_per_octave
        self.loss = field.xi_grid ** (1.0 + field.gamma)
        self.boundary = _boundary_weight(field)
        f = field.f_values
        with np.errstate(over="ignore"):  # an overflow is refused below
            loss_max = (self.loss * f * f).max()
            flux = (self.boundary * f[-m:] ** 2).sum()
        for name, value in (("loss xi**(1+gamma) f**2", loss_max), ("boundary flux", flux)):
            if not value < math.inf:
                raise DomainError(f"number density too large: its {name} overflows")
        self.loss_f = np.empty(n)
        density = self.density = np.empty(n)
        # the loss density of the first octave, of the nodes feeding a gain, and of the rest
        self.density_low, self.density_below, self.density_upper = (
            density[:m], density[:-m], density[m:]
        )
        self.rates = np.empty((4, n))
        self.rate_views = tuple((k[:m], k[m:]) for k in self.rates)
        self.stages = np.empty((3, n))
        self.stage_tops = self.stages[:, -m:]
        self.top = np.empty((4, len(self.boundary)))
        self.top_stages = self.top[1:]
        self.flux_weight = self.boundary

    def rhs(
        self, f: np.ndarray, low: np.ndarray, upper: np.ndarray, loss_f: np.ndarray | None = None
    ) -> None:
        """df/dt per node into the rate's first octave ``low`` and the rest ``upper``.

        Indices below the grid contribute nothing.  ``loss_f``, when given,
        is loss * f already formed.
        """
        density = self.density
        if loss_f is None:
            loss_f = np.multiply(self.loss, f, density)
        np.multiply(loss_f, f, density)
        np.negative(self.density_low, low)
        # gain at node k: (1/4) (xi_k/2)**(1+gamma) f_{k-m}^2, and xi_k/2 == xi_{k-m};
        # gain - loss is -loss + gain exactly
        np.multiply(self.density_below, 0.25, upper)
        np.subtract(upper, self.density_upper, upper)

    def stable_dt(self, f: np.ndarray) -> float:
        """dt <= ETA / max(xi**(1+gamma) f) over the nodes that are not frozen.

        Leaves loss * f in ``loss_f`` and the top octave's boundary weights,
        0 at its frozen nodes, in ``flux_weight``, for ``step``.  Only when
        the largest loss * f sits at a node whose loss product is 0 are the
        frozen nodes sought.
        """
        loss_f = np.multiply(self.loss, f, self.loss_f)
        k = loss_f.argmax()
        scale = loss_f.item(k)
        self.flux_weight = self.boundary
        if scale * f.item(k) == 0.0:
            scale = self._unfrozen_scale(f)
        if scale == 0.0:
            return math.inf
        return ETA / scale

    def _unfrozen_scale(self, f: np.ndarray) -> float:
        """max(loss * f) over the nodes that are not frozen, 0 when every node is;
        sets ``flux_weight`` to 0 at the frozen nodes."""
        m, loss_f = self.m, self.loss_f
        unfrozen = loss_f * f != 0.0
        n = len(unfrozen)
        # a node is unfrozen when its loss product is not 0 or its lower node is unfrozen
        for lo in range(m, n, m):
            hi = min(lo + m, n)
            unfrozen[lo:hi] |= unfrozen[lo - m : hi - m]
        self.flux_weight = np.where(unfrozen[-m:], self.boundary, 0.0)
        return float(np.maximum.reduce(loss_f[unfrozen], initial=0.0))

    def step(self, f0: np.ndarray, t: float, dt_max: float) -> tuple[np.ndarray, float, float]:
        """One Runge-Kutta step from f0 at time t: (f_new, dt, escaped mass).

        dt is the smaller of ``stable_dt(f0)`` and dt_max.  The escaped mass
        comes from the same stages.
        """
        dt = min(self.stable_dt(f0), dt_max)
        half = 0.5 * dt
        rhs, multiply, add = self.rhs, np.multiply, np.add
        k1, k2, k3, k4 = self.rates
        (lo1, up1), (lo2, up2), (lo3, up3), (lo4, up4) = self.rate_views
        f1, f2, f3 = self.stages
        rhs(f0, lo1, up1, self.loss_f)
        # each stage state c*k + f0, which is f0 + c*k exactly
        rhs(add(multiply(k1, half, f1), f0, f1), lo2, up2)
        rhs(add(multiply(k2, half, f2), f0, f2), lo3, up3)
        rhs(add(multiply(k3, dt, f3), f0, f3), lo4, up4)
        # k1 + 2 (k2 + k3) + k4, gathered in k2
        add(k2, k3, k2)
        multiply(k2, 2.0, k2)
        add(k2, k1, k2)
        add(k2, k4, k2)
        multiply(k2, dt / 6.0, k2)
        f_new = add(f0, k2)
        # min and max propagate NaN: (f_new >= 0).all() and isfinite(f_new).all()
        if not (np.minimum.reduce(f_new) >= 0.0 and np.maximum.reduce(f_new) < math.inf):
            raise PositivityError(f"density lost positivity or finiteness at t = {t:g}")
        return f_new, dt, (dt / 6.0) * self._flux_sum(f0)

    def _flux_sum(self, f0: np.ndarray) -> float:
        """F0 + 2 (F1 + F2) + F3: the boundary fluxes of f0 and the current stage states.

        Each flux is a row sum of the block, (flux_weight * f[-m:]**2).sum() of its state.
        """
        top = self.top
        np.square(f0[-self.m :], top[0])
        np.square(self.stage_tops, self.top_stages)
        np.multiply(top, self.flux_weight, top)
        s0, s1, s2, s3 = np.add.reduce(top, 1).tolist()
        return s0 + 2.0 * (s1 + s2) + s3

    def advance(self, field: NumberDensityField, t_target: float) -> NumberDensityField:
        """March the field to t_target with the adaptive step bound.

        Returns the field itself when no step is due.  A state whose nodes
        are all frozen takes one step to t_target (see ``_Kernel``).  A step
        that leaves f unchanged, with no escaped mass, at the dt of the step
        before, would repeat itself up to t_target too (a node that is not
        frozen can still have rates too small to change f): the state is
        stationary under the scheme, so the march goes to t_target at once.
        Only a repeated dt compares f.
        """
        t_stop = t_target * (1.0 - 1e-15)
        if not field.t < t_stop:
            return field
        f, t, escaped_mass = field.f_values, field.t, field.escaped_mass
        last_dt = math.nan
        while t < t_stop:
            f_new, dt, escaped = self.step(f, t, t_target - t)
            if dt == last_dt and escaped == 0.0 and np.array_equal(f_new, f):
                t = t_target
                break
            f, last_dt = f_new, dt
            t = t + dt
            escaped_mass = escaped_mass + escaped
        return replace(field, f_values=f, t=t, escaped_mass=escaped_mass)


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


def make_field(
    gamma: float,
    f_values: np.ndarray,
    xi_min: float = DEFAULT_XI_MIN,
    nodes_per_octave: int = DEFAULT_NODES_PER_OCTAVE,
) -> NumberDensityField:
    """Field at t = 1 for kernel exponent gamma, nodal densities from xi_min upward."""
    check_gamma(gamma)
    f = np.asarray(f_values, dtype=float)
    if not (np.isfinite(f).all() and (f >= 0.0).all()):
        raise DomainError("number density must be finite and nonnegative")
    xi = _size_grid(len(f), xi_min, nodes_per_octave)
    return NumberDensityField(
        gamma=float(gamma), nodes_per_octave=nodes_per_octave, xi_grid=xi, f_values=f, t=1.0
    )


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
    return make_field(profile.params.gamma, profile.g_at(xi), xi_min, nodes_per_octave)


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
    with np.errstate(over="ignore"):  # make_field rejects a density that overflows
        f = amplitude * xi ** (-exponent)
    return make_field(gamma, f, xi_min, nodes_per_octave)


def pulse_field(
    gamma: float,
    node: int,
    amplitude: float = 1.0,
    xi_min: float = DEFAULT_XI_MIN,
    octaves: int = DEFAULT_OCTAVES,
    nodes_per_octave: int = DEFAULT_NODES_PER_OCTAVE,
) -> NumberDensityField:
    """Single occupied node (monomer-like pulse); ``node`` counts from xi_min."""
    f = np.zeros_like(_size_grid(octaves * nodes_per_octave + 1, xi_min, nodes_per_octave))
    if not 0 <= node < len(f):
        raise DomainError(f"pulse node {node} is outside the grid's nodes 0..{len(f) - 1}")
    f[node] = amplitude
    return make_field(gamma, f, xi_min, nodes_per_octave)


def coag_rhs(field: NumberDensityField) -> np.ndarray:
    """df/dt per node for the field's density."""
    out = np.empty(len(field.f_values))
    m = field.nodes_per_octave
    _Kernel(field).rhs(field.f_values, out[:m], out[m:])
    return out


def moments(field: NumberDensityField) -> tuple[float, float, float]:
    """(number N, mass M, boundary loss flux) in the uniform log weights xi * dlog.

    The boundary flux compensates this M exactly, so M + escaped_mass is
    conserved to rounding.
    """
    xi = field.xi_grid
    f = field.f_values
    w = xi * field.dlog
    flux = float((_boundary_weight(field) * f[-field.nodes_per_octave :] ** 2).sum())
    return float(np.sum(w * f)), float(np.sum(w * xi * f)), flux


def step(field: NumberDensityField, dt: float) -> NumberDensityField:
    """One Runge-Kutta step of dt, which must lie in (0, stable_dt(field)].

    Accumulates the escaped-mass budget from the same stages.
    """
    kernel = _Kernel(field)
    bound = kernel.stable_dt(field.f_values)
    if not 0.0 < dt <= bound:
        raise DomainError(f"dt = {dt:g} is outside (0, stable_dt] = (0, {bound:g}]")
    f, dt, escaped = kernel.step(field.f_values, field.t, dt)
    return replace(field, f_values=f, t=field.t + dt, escaped_mass=field.escaped_mass + escaped)


def stable_dt(field: NumberDensityField) -> float:
    """dt <= ETA / max(xi**(1+gamma) f) over the nodes that are not frozen: the
    loss term's stiffness scale; inf when every node is frozen."""
    return _Kernel(field).stable_dt(field.f_values)


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
    """The field at the ``output_times(field, t_end, n_outputs)``; t_end >= field.t."""
    times = output_times(field, t_end, n_outputs)
    kernel = _Kernel(field)
    fields = [field]
    for t_out in times:
        fields.append(kernel.advance(fields[-1], float(t_out)))
    return fields[1:]


def similarity_factors(t: float, gamma: float, beta: float) -> tuple[float, float]:
    """(t**beta, t**(1+(1+gamma)beta)): at time t, size xi = t**beta x and density
    f = g(x) / t**(1+(1+gamma)beta) of a self-similar solution with profile g;
    ``DomainError`` when either factor overflows."""
    t, gamma, beta = float(t), float(gamma), float(beta)  # numpy scalars would give inf
    try:
        return t**beta, t ** (1.0 + (1.0 + gamma) * beta)
    except OverflowError:
        raise DomainError(f"the self-similar rescaling at t = {t:g} overflows") from None


def self_similar_distance(
    field: NumberDensityField, profile: Profile, window: tuple[float, float]
) -> float:
    """Sup of |t**(1+(1+gamma)beta) f(xi, t) - g(x)| / g(x), x = xi / t**beta.

    The sup runs over the grid nodes whose x lies in the window; beta and g
    come from the profile (g by its dense evaluation).
    """
    if field.t < 1.0:
        raise DomainError("distance defined for t >= 1")
    x_lo, x_hi = window
    if not 0.0 < x_lo < x_hi:
        raise DomainError("window must satisfy 0 < x_lo < x_hi")
    scale, density_scale = similarity_factors(field.t, field.gamma, profile.params.beta)
    xi = field.xi_grid
    if scale * x_lo < xi[0] or scale * x_hi > xi[-1]:
        raise DomainError(
            f"rescaled window [{scale * x_lo:g}, {scale * x_hi:g}] leaves the size grid"
        )
    if x_lo < profile.x_min or x_hi > profile.x_max:
        raise DomainError("window leaves the profile domain")
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
    the boundary-contaminated nodes at both ends.  A window narrower than one
    octave (fewer than ``nodes_per_octave`` nodes) raises ``DomainError``:
    D would rest on a handful of nodes.
    """
    xi = field.xi_grid
    lo = math.log(xi[0] / similarity_factors(field.t, field.gamma, beta)[0])
    hi = math.log(xi[-1] / similarity_factors(t_end, field.gamma, beta)[0])
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

    Raises ``DomainError`` before any work on a bad ``t_end`` (as ``evolve``),
    and before evolving when ``beta`` or the kernel gamma differs from the profile's.
    """
    times = output_times(field, t_end, n_outputs)
    window = default_window(field, beta, t_end)
    ref = profile.params
    if not (same_value(beta, ref.beta) and same_value(field.gamma, ref.gamma)):
        raise DomainError(
            f"gamma = {field.gamma:g}, beta = {beta:g} do not match the "
            f"reference profile's gamma = {ref.gamma:g}, beta = {ref.beta:g}"
        )
    fields = evolve(field, t_end, n_outputs)
    report = CollapseReport(
        times=tuple(float(t) for t in times),
        distances=tuple(self_similar_distance(f, profile, window) for f in fields),
        window=window,
    )
    return report, (fields if collect_fields else fields[-1:])
