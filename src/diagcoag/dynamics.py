"""Direct simulation of the time-dependent coagulation equation.

The diagonal kernel moves mass strictly upward in size (two xi-clusters
merge into one 2*xi-cluster), so on a geometric grid whose ratio is an exact
power of two the gain term at node k reads the state exactly m_d nodes back:

    df_k/dt = (1/4) xi_{k-m_d}**(1+gamma) f_{k-m_d}**2 - xi_k**(1+gamma) f_k**2,

with f = 0 below the grid (no influx from under the domain).  Explicit
4-stage Runge-Kutta advances the system; steps that would produce negative
densities are rejected and retried at half the step.  The escaped-mass
budget is accumulated with the same Runge-Kutta stages, which makes the
discrete mass balance exact to rounding.

The kernel's weights on the grid (the loss weight xi**(1+gamma) and the
boundary-flux weight of the top octave) do not depend on f: the field builds
them once per grid and carries them along, and the Runge-Kutta stages are
plain density arrays, so a step does only the work that depends on f.

The collapse metric D(t) reads f at the grid nodes whose rescaled size lies
in its window, so data with empty nodes (a pulse) can be measured against a
profile, and a field sampled from the profile has D = 0 at t = 1.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, StepCollapseError, WindowError
from .params import KernelParams
from .profile import Profile

_LN2 = math.log(2.0)

DEFAULT_NODES_PER_OCTAVE = 16
DEFAULT_OCTAVES = 40
ETA = 0.1
MAX_HALVINGS = 20


@dataclass(frozen=True)
class NumberDensityField:
    """Number density f(xi, t) on a geometric size grid.

    ``escaped_mass`` accumulates the mass flux that left through the
    truncated upper boundary since the field was created.
    """

    kernel: KernelParams
    nodes_per_octave: int
    xi_grid: np.ndarray
    f_values: np.ndarray
    t: float
    escaped_mass: float = 0.0
    # f-independent kernel weights on this grid; ``replace`` carries them.
    _weights: _KernelWeights | None = dataclasses.field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self._weights is None or not self._weights.fits(self):
            object.__setattr__(self, "_weights", _KernelWeights(self))

    @property
    def dlog(self) -> float:
        return _LN2 / self.nodes_per_octave


class _KernelWeights:
    """The f-independent factors of the kernel terms on one grid.

    Each entry is the expression the kernel terms would otherwise evaluate on
    every call, with the same operands in the same order.
    """

    __slots__ = ("xi_grid", "gamma", "m", "loss", "boundary")

    def __init__(self, fld: NumberDensityField):
        xi = fld.xi_grid
        m = fld.nodes_per_octave
        self.xi_grid = xi
        self.gamma = fld.kernel.gamma
        self.m = m
        self.loss = xi ** (1.0 + self.gamma)
        top = xi[-m:]
        self.boundary = (top * fld.dlog) * top ** (2.0 + self.gamma)

    def fits(self, fld: NumberDensityField) -> bool:
        return (
            self.xi_grid is fld.xi_grid
            and self.gamma == fld.kernel.gamma
            and self.m == fld.nodes_per_octave
        )


def _size_grid(n_nodes: int, xi_min: float, nodes_per_octave: int) -> np.ndarray:
    if not xi_min > 0.0:
        raise DomainError(f"smallest size xi_min must be positive; got {xi_min:g}")
    if nodes_per_octave < 1:
        raise DomainError(f"nodes per octave must be at least 1; got {nodes_per_octave}")
    if n_nodes < 1:
        raise DomainError(f"negative size grid span: {(n_nodes - 1) / nodes_per_octave:g} octaves")
    # exp2 keeps xi_{k-m_d} == xi_k / 2 exact in floating point
    return xi_min * np.exp2(np.arange(n_nodes) / nodes_per_octave)


def make_field(
    kernel: KernelParams,
    f_values: np.ndarray,
    xi_min: float = 2.0**-20,
    nodes_per_octave: int = DEFAULT_NODES_PER_OCTAVE,
) -> NumberDensityField:
    """Field at t = 1 with the given nodal densities from xi_min upward."""
    f = np.asarray(f_values, dtype=float)
    if np.any(f < 0.0):
        raise DomainError("number density must be nonnegative")
    xi = _size_grid(len(f), xi_min, nodes_per_octave)
    return NumberDensityField(
        kernel=kernel, nodes_per_octave=nodes_per_octave, xi_grid=xi, f_values=f, t=1.0
    )


def field_from_profile(
    profile: Profile,
    xi_min: float = 2.0**-20,
    octaves: int = DEFAULT_OCTAVES,
    nodes_per_octave: int = DEFAULT_NODES_PER_OCTAVE,
) -> NumberDensityField:
    """Initial data f(xi, 1) = g(xi) sampled from a profile."""
    xi = _size_grid(octaves * nodes_per_octave + 1, xi_min, nodes_per_octave)
    if xi[0] < profile.x_min or xi[-1] > profile.x_max:
        raise DomainError("profile does not cover the requested size grid")
    return make_field(profile.params.kernel, profile.g_at(xi), xi_min, nodes_per_octave)


def power_law_field(
    kernel: KernelParams,
    amplitude: float,
    exponent: float,
    xi_min: float = 2.0**-20,
    octaves: int = DEFAULT_OCTAVES,
    nodes_per_octave: int = DEFAULT_NODES_PER_OCTAVE,
) -> NumberDensityField:
    """f = amplitude * xi**(-exponent); exponent (3+gamma)/2 is stationary."""
    xi = _size_grid(octaves * nodes_per_octave + 1, xi_min, nodes_per_octave)
    return make_field(kernel, amplitude * xi ** (-exponent), xi_min, nodes_per_octave)


def pulse_field(
    kernel: KernelParams,
    node: int,
    amplitude: float = 1.0,
    xi_min: float = 2.0**-20,
    octaves: int = DEFAULT_OCTAVES,
    nodes_per_octave: int = DEFAULT_NODES_PER_OCTAVE,
) -> NumberDensityField:
    """Single occupied node (monomer-like pulse); ``node`` counts from xi_min."""
    f = np.zeros_like(_size_grid(octaves * nodes_per_octave + 1, xi_min, nodes_per_octave))
    if not 0 <= node < len(f):
        raise DomainError(f"pulse node {node} is outside the grid's nodes 0..{len(f) - 1}")
    f[node] = amplitude
    return make_field(kernel, f, xi_min, nodes_per_octave)


def coag_rhs(field: NumberDensityField, f: np.ndarray | None = None) -> np.ndarray:
    """df/dt per node for the density f (default: the field's own).

    Indices below the grid contribute nothing.  The loss weight
    xi**(1+gamma) comes from the field's per-grid weights.
    """
    m = field.nodes_per_octave
    if f is None:
        f = field.f_values
    loss_density = field._weights.loss * f * f
    rate = -loss_density
    # gain at node k: (1/4) (xi_k/2)**(1+gamma) f_{k-m}^2, and xi_k/2 == xi_{k-m}
    rate[m:] += 0.25 * loss_density[:-m]
    return rate


def _boundary_flux(field: NumberDensityField, f: np.ndarray | None = None) -> float:
    """Mass per unit time leaving through the truncated upper boundary.

    Loss at the top m_d nodes has its gain above the grid; with uniform
    log weights this is the exact compensator of the discrete mass moment.
    ``f`` defaults to the field's own density.
    """
    m = field.nodes_per_octave
    if f is None:
        f = field.f_values
    return float((field._weights.boundary * f[-m:] ** 2).sum())


def moments(field: NumberDensityField) -> tuple[float, float, float]:
    """(number N, mass M, boundary loss flux); trapezoid in log xi."""
    xi = field.xi_grid
    f = field.f_values
    w_trap = xi * field.dlog
    w_trap[0] *= 0.5
    w_trap[-1] *= 0.5
    n = float(np.sum(w_trap * f))
    mass = float(np.sum(w_trap * xi * f))
    return n, mass, _boundary_flux(field)


def step(field: NumberDensityField, dt: float) -> NumberDensityField:
    """One Runge-Kutta step; halves dt on negativity, at most MAX_HALVINGS times.

    Advances by the accepted dt (possibly smaller than requested) and
    accumulates the escaped-mass budget from the same stages.  The stages
    are density arrays evaluated against the field's per-grid weights, one
    ``coag_rhs`` call each; the result is bit-identical to evaluating every
    stage as a field of its own.
    """
    if not dt > 0.0:
        raise DomainError("dt must be positive")
    f0 = field.f_values
    for _ in range(MAX_HALVINGS + 1):
        k1 = coag_rhs(field)
        f1 = f0 + 0.5 * dt * k1
        k2 = coag_rhs(field, f1)
        f2 = f0 + 0.5 * dt * k2
        k3 = coag_rhs(field, f2)
        f3 = f0 + dt * k3
        k4 = coag_rhs(field, f3)
        f_new = f0 + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if (f_new >= 0.0).all() and np.isfinite(f_new).all():
            escaped = (dt / 6.0) * (
                _boundary_flux(field)
                + 2.0 * (_boundary_flux(field, f1) + _boundary_flux(field, f2))
                + _boundary_flux(field, f3)
            )
            return replace(
                field,
                f_values=f_new,
                t=field.t + dt,
                escaped_mass=field.escaped_mass + escaped,
            )
        dt *= 0.5
    raise StepCollapseError(
        f"time step collapsed after {MAX_HALVINGS} halvings at t = {field.t:g}"
    )


def stable_dt(field: NumberDensityField) -> float:
    """dt <= ETA / max(xi**(1+gamma) f): the loss term's stiffness scale."""
    scale = float((field._weights.loss * field.f_values).max())
    if scale == 0.0:
        return math.inf
    return ETA / scale


def advance_to(field: NumberDensityField, t_target: float) -> NumberDensityField:
    """March the field to t_target with the adaptive step bound."""
    while field.t < t_target * (1.0 - 1e-15):
        dt = min(stable_dt(field), t_target - field.t)
        field = step(field, dt)
    return field


def evolve(
    field: NumberDensityField, t_end: float, n_outputs: int
) -> list[NumberDensityField]:
    """The field at the times np.geomspace(field.t, t_end, n_outputs)."""
    if not (t_end > 0.0 and n_outputs >= 0):
        raise DomainError(f"evolve needs t_end > 0, n_outputs >= 0; got {t_end:g} and {n_outputs}")
    fields = [field]
    for t_out in np.geomspace(field.t, t_end, n_outputs):
        fields.append(advance_to(fields[-1], float(t_out)))
    return fields[1:]


def self_similar_distance(
    field: NumberDensityField,
    profile: Profile,
    beta: float,
    window: tuple[float, float],
) -> float:
    """Sup of |t**(1+(1+gamma)beta) f(xi, t) - g(x)| / g(x), x = xi / t**beta.

    The sup runs over the grid nodes whose x lies in the window; g comes from
    the profile's dense evaluation.
    """
    if field.t < 1.0:
        raise DomainError("distance defined for t >= 1")
    x_lo, x_hi = window
    if not 0.0 < x_lo < x_hi:
        raise WindowError("window must satisfy 0 < x_lo < x_hi")
    t = field.t
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
    rescaled = t ** (1.0 + (1.0 + field.kernel.gamma) * beta) * field.f_values[inside]
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
    """Evolve the field to t_end, recording D(t) at geometric output times."""
    window = default_window(field, beta, t_end)
    fields = evolve(field, t_end, n_outputs)
    report = CollapseReport(
        times=tuple(float(t) for t in np.geomspace(field.t, t_end, n_outputs)),
        distances=tuple(self_similar_distance(f, profile, beta, window) for f in fields),
        window=window,
    )
    return report, (fields if collect_fields else fields[-1:])
