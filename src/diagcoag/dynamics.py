"""Direct simulation of the time-dependent coagulation equation.

The diagonal kernel moves mass strictly upward in size (two xi-clusters
merge into one 2*xi-cluster), so on a geometric grid of m_d nodes per octave
the gain term at node k reads the state exactly m_d nodes back:

    df_k/dt = (1/4) xi_{k-m_d}**(1+gamma) f_{k-m_d}**2 - xi_k**(1+gamma) f_k**2,

with f = 0 below the grid (no influx from under the domain).  The grid is
xi_k = xi_min 2**q 2**(r/m_d) for k = q m_d + r, so xi_{k-m_d} == xi_k / 2
holds exactly in floating point for any m_d and a normal xi_min.  Explicit
4-stage Runge-Kutta advances the system; steps that would produce negative
densities are rejected and retried at half the step.  The escaped-mass
budget is accumulated with the same Runge-Kutta stages, which makes the
discrete mass balance exact to rounding.

A private kernel, built once per run from the grid and gamma, applies the
scheme to plain density arrays: it holds the f-independent weights (the loss
weight xi**(1+gamma) and the boundary-flux weight of the top octave), and
``evolve`` marches on arrays with it, making one field per output time.  The
kernel also owns a step's scratch (stage rates and states, loss products,
the top-octave flux block), which every step reuses; each density a step
returns is a fresh array, so every field owns its data.

The collapse metric D(t) reads f at the grid nodes whose rescaled size lies
in its window, so data with empty nodes (a pulse) can be measured against a
profile, and a field sampled from the profile has D = 0 at t = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, StepCollapseError, WindowError
from .params import check_gamma, same_value
from .profile import Profile

_LN2 = math.log(2.0)

DEFAULT_NODES_PER_OCTAVE = 16
DEFAULT_OCTAVES = 40
DEFAULT_XI_MIN = 2.0**-20
ETA = 0.1
MAX_HALVINGS = 20


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

    The f-independent weights are built once, and so is the scratch: the
    four stage rates, the three stage states, the loss*f product, the loss
    density and the top-octave flux block are buffers that every step
    overwrites.  The densities ``step`` returns are fresh arrays that no
    later step touches, so each field made from them owns its data.  Every
    expression keeps the operands and rounding of the field-by-field form.
    """

    __slots__ = ("m", "loss", "boundary", "loss_f", "density", "rates", "stages", "top")

    def __init__(self, field: NumberDensityField):
        n = len(field.xi_grid)
        self.m = field.nodes_per_octave
        self.loss = field.xi_grid ** (1.0 + field.gamma)
        self.boundary = _boundary_weight(field)
        self.loss_f = np.empty(n)
        self.density = np.empty(n)
        self.rates = np.empty((4, n))
        self.stages = np.empty((3, n))
        self.top = np.empty((4, len(self.boundary)))

    def rhs(self, f: np.ndarray, out: np.ndarray, loss_f: np.ndarray | None = None) -> np.ndarray:
        """df/dt per node into ``out``; indices below the grid contribute nothing.

        ``loss_f``, when given, is loss * f already formed.
        """
        m = self.m
        density = self.density
        if loss_f is None:
            loss_f = np.multiply(self.loss, f, out=density)
        np.multiply(loss_f, f, out=density)
        np.negative(density[:m], out=out[:m])
        # gain at node k: (1/4) (xi_k/2)**(1+gamma) f_{k-m}^2, and xi_k/2 == xi_{k-m};
        # gain - loss is -loss + gain exactly
        np.multiply(density[:-m], 0.25, out=out[m:])
        np.subtract(out[m:], density[m:], out=out[m:])
        return out

    def stable_dt(self, f: np.ndarray) -> float:
        """dt <= ETA / max(xi**(1+gamma) f): the loss term's stiffness scale.

        Leaves loss * f in ``loss_f`` for stage k1 of a step from f.
        """
        scale = float(np.multiply(self.loss, f, out=self.loss_f).max())
        if scale == 0.0:
            return math.inf
        return ETA / scale

    def step(self, f0: np.ndarray, dt: float, t: float) -> tuple[np.ndarray, float, float]:
        """One Runge-Kutta step from f0 at time t: (f_new, accepted dt, escaped mass).

        Halves dt on negativity, at most MAX_HALVINGS times; the escaped mass
        comes from the same stages.
        """
        np.multiply(self.loss, f0, out=self.loss_f)
        return self._step(f0, dt, t)

    def _step(self, f0: np.ndarray, dt: float, t: float) -> tuple[np.ndarray, float, float]:
        """``step`` with loss * f0 already in ``loss_f``."""
        if not dt > 0.0:
            raise DomainError("dt must be positive")
        rhs = self.rhs
        k1, k2, k3, k4 = self.rates
        f1, f2, f3 = self.stages
        rhs(f0, k1, self.loss_f)  # the same for every halving
        for _ in range(MAX_HALVINGS + 1):
            # each stage state c*k + f0, which is f0 + c*k exactly
            rhs(np.add(np.multiply(k1, 0.5 * dt, out=f1), f0, out=f1), k2)
            rhs(np.add(np.multiply(k2, 0.5 * dt, out=f2), f0, out=f2), k3)
            rhs(np.add(np.multiply(k3, dt, out=f3), f0, out=f3), k4)
            # k1 + 2 (k2 + k3) + k4, gathered in k2
            k2 += k3
            k2 *= 2.0
            k2 += k1
            k2 += k4
            k2 *= dt / 6.0
            f_new = f0 + k2
            # min and max propagate NaN: (f_new >= 0).all() and isfinite(f_new).all()
            if f_new.min() >= 0.0 and f_new.max() < math.inf:
                return f_new, dt, (dt / 6.0) * self._flux_sum(f0)
            dt *= 0.5
        raise StepCollapseError(
            f"time step collapsed after {MAX_HALVINGS} halvings at t = {t:g}"
        )

    def _flux_sum(self, f0: np.ndarray) -> float:
        """F0 + 2 (F1 + F2) + F3: the boundary fluxes of f0 and the current stage states.

        Each flux is a row sum of the block, (boundary * f[-m:]**2).sum() of its state.
        """
        top = self.top
        m = len(top[0])
        np.square(f0[-m:], out=top[0])
        np.square(self.stages[:, -m:], out=top[1:])
        top *= self.boundary
        s0, s1, s2, s3 = top.sum(axis=1).tolist()
        return s0 + 2.0 * (s1 + s2) + s3

    def advance(self, field: NumberDensityField, t_target: float) -> NumberDensityField:
        """March the field to t_target with the adaptive step bound.

        Returns the field itself when no step is due.
        """
        t_stop = t_target * (1.0 - 1e-15)
        if not field.t < t_stop:
            return field
        f, t, escaped_mass = field.f_values, field.t, field.escaped_mass
        while t < t_stop:
            f, dt, escaped = self._step(f, min(self.stable_dt(f), t_target - t), t)
            t = t + dt
            escaped_mass = escaped_mass + escaped
        return replace(field, f_values=f, t=t, escaped_mass=escaped_mass)


def _size_grid(n_nodes: int, xi_min: float, nodes_per_octave: int) -> np.ndarray:
    if not xi_min >= np.finfo(float).tiny:
        raise DomainError(f"smallest size xi_min must be positive and normal; got {xi_min:g}")
    if nodes_per_octave < 1:
        raise DomainError(f"nodes per octave must be at least 1; got {nodes_per_octave}")
    if n_nodes < 1:
        raise DomainError(f"negative size grid span: {(n_nodes - 1) / nodes_per_octave:g} octaves")
    # an exact power of two per whole octave keeps xi_{k-m_d} == xi_k / 2 exact for any m_d
    octave, node = np.divmod(np.arange(n_nodes), nodes_per_octave)
    with np.errstate(over="ignore"):
        xi = xi_min * np.exp2(octave) * np.exp2(node / nodes_per_octave)
    if not np.isfinite(xi[-1]):
        raise DomainError(f"size grid overflows: xi_min * 2**{(n_nodes - 1) / nodes_per_octave:g}")
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
    return _Kernel(field).rhs(field.f_values, np.empty(len(field.f_values)))


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
    """One Runge-Kutta step; halves dt on negativity, at most MAX_HALVINGS times.

    Advances by the accepted dt (possibly smaller than requested) and
    accumulates the escaped-mass budget from the same stages.
    """
    f, dt, escaped = _Kernel(field).step(field.f_values, dt, field.t)
    return replace(field, f_values=f, t=field.t + dt, escaped_mass=field.escaped_mass + escaped)


def stable_dt(field: NumberDensityField) -> float:
    """dt <= ETA / max(xi**(1+gamma) f): the loss term's stiffness scale."""
    return _Kernel(field).stable_dt(field.f_values)


def _output_times(field: NumberDensityField, t_end: float, n_outputs: int) -> np.ndarray:
    """np.geomspace(field.t, t_end, n_outputs) for a finite t_end >= field.t."""
    if not (0.0 < t_end < math.inf and n_outputs >= 0):
        raise DomainError(f"need finite t_end > 0, n_outputs >= 0; got {t_end:g} and {n_outputs}")
    if t_end < field.t:
        raise DomainError(f"t_end = {t_end:g} is before the field's time t = {field.t:g}")
    return np.geomspace(field.t, t_end, n_outputs)


def evolve(
    field: NumberDensityField, t_end: float, n_outputs: int
) -> list[NumberDensityField]:
    """The field at the times np.geomspace(field.t, t_end, n_outputs); t_end >= field.t."""
    times = _output_times(field, t_end, n_outputs)
    kernel = _Kernel(field)
    fields = [field]
    for t_out in times:
        fields.append(kernel.advance(fields[-1], float(t_out)))
    return fields[1:]


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
        raise WindowError("window must satisfy 0 < x_lo < x_hi")
    t = field.t
    beta = profile.params.beta
    scale = t**beta
    xi = field.xi_grid
    if scale * x_lo < xi[0] or scale * x_hi > xi[-1]:
        raise WindowError(
            f"rescaled window [{scale * x_lo:g}, {scale * x_hi:g}] leaves the size grid"
        )
    if x_lo < profile.x_min or x_hi > profile.x_max:
        raise WindowError("window leaves the profile domain")
    x = xi / scale
    inside = (x >= x_lo) & (x <= x_hi)
    if not np.any(inside):
        raise WindowError("window holds no grid node")
    rescaled = t ** (1.0 + (1.0 + field.gamma) * beta) * field.f_values[inside]
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
    octave (fewer than ``nodes_per_octave`` nodes) raises ``WindowError``:
    D would rest on a handful of nodes.
    """
    xi = field.xi_grid
    lo = math.log(xi[0] / field.t**beta)
    hi = math.log(xi[-1] / t_end**beta)
    if hi <= lo:
        raise WindowError("rescaled domains do not overlap; grid too short")
    span = hi - lo
    if 0.5 * span < _LN2:
        raise WindowError(
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
    times = _output_times(field, t_end, n_outputs)
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
