import math
import tracemalloc
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagcoag import dynamics as dy
from diagcoag import pipeline, tail
from diagcoag.errors import DomainError, PositivityError
from diagcoag.params import make_params

@pytest.fixture(scope="module")
def canon():
    return make_params(0.0, 2.0)


def stationary_exponent(gamma: float) -> float:
    return (3.0 + gamma) / 2.0


# -- size grid ------------------------------------------------------------------


@pytest.mark.parametrize("md", [10, 12, 16, 64, 100])
def test_grid_doubles_exactly_per_octave(canon, md):
    xi = dy.make_field(canon.gamma, np.zeros(10 * md + 1), nodes_per_octave=md).xi_grid
    assert np.array_equal(xi[md:], 2.0 * xi[:-md])


def test_replace_keeps_grid(canon):
    field = dy.pulse_field(canon.gamma, 100)
    moved = replace(field, f_values=2.0 * field.f_values)
    assert moved.xi_grid is field.xi_grid


@pytest.mark.parametrize("gamma", [0.5, -1.0])
def test_kernel_weights_are_built_bit_for_bit(gamma):
    params = make_params(gamma, 2.0 / (1.0 - gamma))
    field = dy.power_law_field(params.gamma, 1.0, stationary_exponent(gamma))
    kernel = dy._Kernel(field)
    xi = field.xi_grid
    m = field.nodes_per_octave
    assert np.array_equal(kernel.loss, xi ** (1.0 + gamma))
    assert kernel.theta == 2.0 ** (gamma - 1.0)
    assert np.array_equal(kernel.flux_weight, xi[-m:] ** (1.0 - gamma) * field.dlog)


def test_replace_with_another_kernel_rebuilds_weights(canon):
    field = dy.pulse_field(canon.gamma, 100)
    moved = replace(field, gamma=0.5)
    kernel = dy._Kernel(moved)
    m = field.nodes_per_octave
    assert np.array_equal(kernel.loss, field.xi_grid ** 1.5)
    assert kernel.theta == 2.0**-0.5
    assert np.array_equal(kernel.flux_weight, field.xi_grid[-m:] ** 0.5 * field.dlog)
    dt = _reference_stable_dt(moved)
    assert dy.stable_dt(moved) == dt
    _assert_same_field(dy.step(moved, dt), _reference_step(moved, dt))


def test_constructors_share_make_field_grid(canonical_profile, canon):
    kw = dict(xi_min=2.0**-12, octaves=20, nodes_per_octave=32)
    ref = dy.make_field(canon.gamma, np.zeros(20 * 32 + 1), 2.0**-12, 32).xi_grid
    fields = [
        dy.field_from_profile(canonical_profile, **kw),
        dy.power_law_field(canon.gamma, 1.0, 1.5, **kw),
        dy.pulse_field(canon.gamma, 5, **kw),
    ]
    for field in fields:
        assert field.t == 1.0
        assert np.array_equal(field.xi_grid, ref)


# -- coag_rhs -----------------------------------------------------------------


def test_rhs_zero_field(canon):
    field = dy.make_field(canon.gamma, np.zeros(321))
    assert np.all(dy.coag_rhs(field) == 0.0)


@pytest.mark.parametrize("gamma", [-1.0, 0.0, 0.5])
def test_rhs_stationary_power_law(gamma):
    params = make_params(gamma, 2.0 / (1.0 - gamma))
    field = dy.power_law_field(params.gamma, 1.0, stationary_exponent(gamma))
    rate = dy.coag_rhs(field)
    m = field.nodes_per_octave
    xi = field.xi_grid
    loss = xi**(1.0 + gamma) * field.f_values**2
    rel = np.abs(rate[m:]) / loss[m:]
    assert np.max(rel) < 1e-12


def test_rhs_single_pulse(canon):
    k0 = 100
    field = dy.pulse_field(canon.gamma, k0, amplitude=3.0)
    rate = dy.coag_rhs(field)
    m = field.nodes_per_octave
    xi = field.xi_grid
    expected_loss = -xi[k0] ** 1.0 * 9.0
    expected_gain = 0.25 * xi[k0] ** 1.0 * 9.0
    assert rate[k0] == pytest.approx(expected_loss, rel=1e-14)
    assert rate[k0 + m] == pytest.approx(expected_gain, rel=1e-14)
    others = np.delete(rate, [k0, k0 + m])
    assert np.all(others == 0.0)


# -- step ----------------------------------------------------------------------


def test_step_keeps_stationary_interior(canon):
    field = dy.power_law_field(canon.gamma, 1.0, 1.5)
    dt = dy.stable_dt(field)
    out = dy.step(field, dt)
    m = field.nodes_per_octave
    # boundary influence travels one octave per stage: beyond four octaves
    # the update is identically zero, within them it stays tiny
    lo = 4 * m
    rel = np.abs(out.f_values[lo:] / field.f_values[lo:] - 1.0)
    assert np.max(rel) <= 1e-10
    assert out.t == field.t + dt


def test_step_zero_field(canon):
    field = dy.make_field(canon.gamma, np.zeros(161))
    out = dy.step(field, 0.5)
    assert np.all(out.f_values == 0.0)


def test_step_refuses_a_dt_above_stable_dt(canon):
    # a step makes one attempt, so a dt that stable_dt does not allow is refused
    field = dy.pulse_field(canon.gamma, 200, amplitude=1e6)
    bound = dy.stable_dt(field)
    for dt in (1e12, math.nextafter(bound, math.inf), 0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match=r"is outside \(0, stable_dt\]"):
            dy.step(field, dt)
    assert dy.step(field, bound).t == field.t + bound


def test_a_step_that_loses_positivity_raises_without_retrying(canon, monkeypatch):
    # the kernel's safety check; a bound 40 times too large drives the pulse negative
    field = dy.pulse_field(canon.gamma, 320, amplitude=1e3)
    kernel = dy._Kernel(field)
    monkeypatch.setattr(dy, "ETA", 40.0 * dy.ETA)
    with pytest.raises(PositivityError, match="lost positivity or finiteness at t = 1$"):
        kernel.step(kernel.state(field), field.t, math.inf)


def test_pulse_cascade(canon):
    k0 = 320
    field = dy.pulse_field(canon.gamma, k0, amplitude=1e3)
    m = field.nodes_per_octave
    fld = dy.evolve(field, field.t + 1.0, 2)[-1]
    occupied = np.nonzero(fld.f_values > 1e-12)[0]
    # mass moved strictly upward through doubling images of the pulse
    assert occupied[0] == k0
    assert set(occupied) <= {k0 + j * m for j in range(60)}
    assert fld.f_values[k0 + m] > 0.0


def test_evolve_outputs_at_geometric_times(canon):
    field = dy.pulse_field(canon.gamma, 320, amplitude=1e3)
    fields = dy.evolve(field, 2.0, 4)
    assert fields[0] is field
    targets = np.geomspace(1.0, 2.0, 4)
    assert [f.t for f in fields] == targets.tolist()
    assert np.array_equal(fields[-1].f_values, dy.evolve(fields[-2], 2.0, 2)[-1].f_values)


def test_evolve_single_output_is_at_the_end(canon):
    # n >= 2 outputs are np.geomspace's; a single one is t_end, not the start
    field = dy.pulse_field(canon.gamma, 320, amplitude=1e3)
    assert np.array_equal(dy.output_times(field, 2.0, 5), np.geomspace(1.0, 2.0, 5))
    assert dy.output_times(field, 2.0, 1).tolist() == [2.0]
    (only,) = dy.evolve(field, 2.0, 1)
    assert only.t == 2.0
    assert np.array_equal(only.f_values, dy.evolve(field, 2.0, 2)[-1].f_values)


def test_evolve_refuses_an_end_before_the_start(canon):
    field = dy.pulse_field(canon.gamma, 320)
    with pytest.raises(DomainError, match="t_end = 0.5 is before the field's time t = 1"):
        dy.evolve(field, 0.5, 2)


def test_evolve_refuses_an_infinite_end(canon, monkeypatch):
    field = dy.pulse_field(canon.gamma, 320)
    monkeypatch.setattr(dy, "_Kernel", None)  # an infinite end never returns
    with pytest.raises(DomainError, match="finite t_end > 0"):
        dy.evolve(field, math.inf, 2)


def _md1_lattice():
    # one lattice (m_d = 1, gamma = 0) from xi = 2**-1000 to 1: the bottom node's
    # t xi f starts at 2**-1037 = 6.8e-313, whose square underflows, and the top node's at 1e-200
    f = np.zeros(1001)
    f[0] = math.sqrt(5e-324 / 2.0**-1000)
    f[-1] = 1e-200
    return dy.make_field(0.0, f, xi_min=2.0**-1000, nodes_per_octave=1)


# (initial field, t_end, steps the march takes); f ~ 1/t squares to 0 near
# t ~ 1e160, while H = t xi**(1+gamma) f, which the step squares, stays of order one
_LONG_HORIZONS = {
    "gamma -1 pulse to 1e200": (lambda: dy.pulse_field(-1.0, 320), 1e200, 6_353),
    "gamma -5 pulse to 1e300": (lambda: dy.pulse_field(-5.0, 320), 1e300, 7_356),
    "gamma 0.5 pulse to 1e300": (lambda: dy.pulse_field(0.5, 320), 1e300, 23_482),
    "power law 1.5 to 1e300": (lambda: dy.power_law_field(0.0, 1.0, 1.5), 1e300, 14_277),
    "md 1 lattice to 1e300": (_md1_lattice, 1e300, 2_417),
}


def _budgeted_steps(monkeypatch, budget):
    """Count ``_Kernel.step`` calls, raising past ``budget`` so that a creeping march fails."""
    step = dy._Kernel.step
    steps = []

    def budgeted_step(kernel, *args):
        if len(steps) == budget:
            raise AssertionError(f"t_end not reached within {budget:,} steps")
        steps.append(None)
        return step(kernel, *args)

    monkeypatch.setattr(dy._Kernel, "step", budgeted_step)
    return steps


@pytest.mark.parametrize("case", _LONG_HORIZONS)
def test_a_long_horizon_ends_within_its_step_budget(case, monkeypatch):
    make, t_end, steps = _LONG_HORIZONS[case]
    field = make()
    _budgeted_steps(monkeypatch, 3 * steps // 2)
    (end,) = dy.evolve(field, t_end, 1)
    assert end.t == t_end
    assert np.all(end.f_values >= 0.0) and np.all(np.isfinite(end.f_values))
    mass0 = dy.moments(field)[1]
    assert abs(dy.moments(end)[1] + end.escaped_mass - mass0) <= 1e-14 * mass0


def test_a_frozen_node_leaves_the_step_bound(monkeypatch):
    # gamma = -5: from t ~ 3e162 the loss xi**(1+gamma) f**2 of the node with the
    # largest xi**(1+gamma) f underflows, so a step in f would freeze it and bound dt
    # near 7e160 while t runs to 1e300.  In H = t xi**(1+gamma) f no node freezes: the
    # bound dt <= t ETA / max H grows with t, and the top octave keeps its f.
    field = dy.pulse_field(-5.0, 320)
    steps = _budgeted_steps(monkeypatch, 10_000)
    (end,) = dy.evolve(field, 1e300, 1)
    assert len(steps) > 1000
    assert np.all(end.f_values >= 0.0)
    assert np.count_nonzero(end.f_values[-field.nodes_per_octave :]) > 0
    mass0 = dy.moments(field)[1]
    assert abs(dy.moments(end)[1] + end.escaped_mass - mass0) <= 1e-14 * mass0
    assert end.t == 1e300


def test_a_frozen_state_has_no_boundary_flux():
    # the gamma = -5 pulse at 1e300: the top octave still holds f > 0, yet its loss
    # density (xi**(1+gamma) f)**2, of order (H / t)**2 ~ 1e-600, rounds to 0, so no
    # flux moves mass out; the step bound, taken in H, stays finite
    field = dy.pulse_field(-5.0, 320)
    (end,) = dy.evolve(field, 1e300, 1)
    assert np.count_nonzero(end.f_values[-field.nodes_per_octave :]) > 0
    assert 0.0 < dy.stable_dt(end) < math.inf
    assert dy.moments(end)[2] == 0.0
    mass0 = dy.moments(field)[1]
    assert abs(dy.moments(end)[1] + end.escaped_mass - mass0) <= 1e-14 * mass0


@pytest.mark.parametrize(
    "kwargs, named",
    [
        ({"octaves": 2000}, r"overflows: xi_min \* 2\*\*2000"),
        ({"xi_min": math.inf}, r"overflows: xi_min \* 2\*\*40"),
        # a 114 PiB grid: refused from its span, before any allocation is tried
        ({"octaves": 10**15}, r"overflows: xi_min \* 2\*\*1e\+15"),
        # passes the pre-allocation bound (log2 of the top node is 1024), yet rounds to inf
        ({"octaves": 1044}, r"overflows: xi_min \* 2\*\*1044"),
    ],
    ids=["octaves 2000", "xi_min inf", "octaves 1e15", "octaves 1044"],
)
def test_size_grid_with_an_infinite_top_node_is_refused(canon, kwargs, named):
    with pytest.raises(DomainError, match=named):
        dy.pulse_field(canon.gamma, 0, **kwargs)


def test_size_grid_with_a_subnormal_bottom_node_is_refused(canon):
    tiny = np.finfo(float).tiny
    assert dy.pulse_field(canon.gamma, 0, xi_min=tiny).xi_grid[0] == tiny
    with pytest.raises(DomainError, match="xi_min must be positive and normal"):
        dy.pulse_field(canon.gamma, 0, xi_min=tiny / 2.0)


@pytest.mark.parametrize("gamma", [1.0, 1.5, math.nan])
def test_field_constructors_refuse_gamma_at_least_one(gamma):
    constructors = [
        lambda: dy.make_field(gamma, np.zeros(161)),
        lambda: dy.power_law_field(gamma, 1.0, 1.5),
        lambda: dy.pulse_field(gamma, 0),
    ]
    for build in constructors:
        with pytest.raises(DomainError, match="gamma must be < 1"):
            build()


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_make_field_refuses_a_non_finite_density(canon, value):
    with pytest.raises(DomainError, match="number density must be finite"):
        dy.make_field(canon.gamma, [1.0, value, 1.0])


# The H step written field by field: H = t xi**(1+gamma) f is formed on each
# call, every stage is an array of its own, and every call rebuilds its
# weights.  It is the reference the kernel's buffered step must match bit for bit.


def _reference_h(field):
    return field.xi_grid ** (1.0 + field.gamma) * field.f_values * field.t


def _reference_f(field, h, t):
    return h / t / field.xi_grid ** (1.0 + field.gamma)


def _reference_rate(field, u):
    # du/dtau = theta u_{k-m}**2 - u_k**2
    m = field.nodes_per_octave
    square = u * u
    rate = -square
    rate[m:] += 2.0 ** (field.gamma - 1.0) * square[:-m]
    return rate


def _reference_rhs(field):
    # df/dt = du/dtau / t / t / xi**(1+gamma)
    return _reference_f(field, _reference_rate(field, _reference_h(field)) / field.t, field.t)


def _reference_flux(field, u):
    # the top octave's loss density u**2 in its flux weights xi**(1-gamma) dlog
    m = field.nodes_per_octave
    xi = field.xi_grid[-m:]
    return float(np.sum(xi ** (1.0 - field.gamma) * field.dlog * (u * u)[-m:]))


def _reference_bound(u, t):
    scale = float(np.max(u))
    return math.inf if scale == 0.0 else t * (dy.ETA / scale)


def _reference_stable_dt(field):
    return _reference_bound(_reference_h(field), field.t)


def _reference_h_step(field, u0, t, dt):
    """One step from H = u0 at t: (H at t + dt, escaped mass)."""
    dtau = dt / t
    k1 = _reference_rate(field, u0)
    u1 = u0 + 0.5 * dtau * k1
    k2 = _reference_rate(field, u1)
    u2 = u0 + 0.5 * dtau * k2
    k3 = _reference_rate(field, u2)
    u3 = u0 + dtau * k3
    k4 = _reference_rate(field, u3)
    h = (u0 + (dtau / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)) * ((t + dt) / t)
    assert np.all(h >= 0.0) and np.all(np.isfinite(h))
    fluxes = [_reference_flux(field, u) for u in (u0, u1, u2, u3)]
    escaped = (dtau / 6.0) * (fluxes[0] + 2.0 * (fluxes[1] + fluxes[2]) + fluxes[3]) / t
    return h, escaped


def _reference_step(field, dt):
    h, escaped = _reference_h_step(field, _reference_h(field), field.t, dt)
    t = field.t + dt
    return replace(
        field, f_values=_reference_f(field, h, t), t=t, escaped_mass=field.escaped_mass + escaped
    )


def _reference_advance(field, t_out):
    """The march to t_out: H is formed from the field, stepped until t >= t_out, and
    turned into f at t_out, the output's time."""
    h, t, escaped_mass = _reference_h(field), field.t, field.escaped_mass
    while t < t_out:
        dt = min(_reference_bound(h, t), t_out - t)
        h, escaped = _reference_h_step(field, h, t, dt)
        t, escaped_mass = t + dt, escaped_mass + escaped
    f = _reference_f(field, h, t_out)
    return replace(field, f_values=f, t=t_out, escaped_mass=escaped_mass)


def _assert_same_field(out, ref):
    assert np.array_equal(out.f_values, ref.f_values)
    assert out.t == ref.t
    assert out.escaped_mass == ref.escaped_mass


def _initial_field(kind, profile):
    if kind == "profile":
        return dy.field_from_profile(profile)
    if kind == "power_law":
        return dy.power_law_field(make_params(0.5, 4.0).gamma, 2.0, 1.6)
    return dy.pulse_field(profile.params.gamma, 320, amplitude=1e3)


@pytest.mark.parametrize("kind", ["profile", "power_law", "pulse"])
def test_step_matches_reference_bit_for_bit(canonical_profile, kind):
    field = _initial_field(kind, canonical_profile)
    ref = field
    for _ in range(6):
        dt = _reference_stable_dt(ref)
        assert dy.stable_dt(field) == dt
        field, ref = dy.step(field, dt), _reference_step(ref, dt)
        _assert_same_field(field, ref)
    if kind != "pulse":
        assert field.escaped_mass > 0.0


@pytest.mark.parametrize("kind", ["profile", "power_law", "pulse"])
def test_rhs_and_stable_dt_match_reference_bit_for_bit(canonical_profile, kind):
    # coag_rhs takes the first-stage path and turns du/dtau into df/dt in a fresh array
    field = _initial_field(kind, canonical_profile)
    assert np.array_equal(dy.coag_rhs(field), _reference_rhs(field))
    assert dy.stable_dt(field) == _reference_stable_dt(field)


def test_a_step_allocates_only_the_density_it_returns(canonical_profile):
    # the collapse field, 2,561 nodes: a warmed kernel reuses its scratch
    field = dy.field_from_profile(canonical_profile, nodes_per_octave=64)
    kernel = dy._Kernel(field)
    h, dt, _ = kernel.step(kernel.state(field), field.t, math.inf)
    tracemalloc.start()
    try:
        kernel.step(h, field.t + dt, math.inf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * h.nbytes


def _evolve_input(kind, profile):
    """(field, t_end, n_outputs); "collapse" is the benchmark's run: md 64, to t = 256."""
    if kind == "collapse":
        return dy.field_from_profile(profile, nodes_per_octave=64), 256.0, 9
    return _initial_field(kind, profile), 1.25, 3


@pytest.mark.parametrize("kind", ["profile", "power_law", "pulse", "collapse"])
def test_evolve_matches_reference_bit_for_bit(canonical_profile, kind):
    field, t_end, n_outputs = _evolve_input(kind, canonical_profile)
    fields = dy.evolve(field, t_end, n_outputs)
    ref = field
    for fld, t_out in zip(fields, np.geomspace(1.0, t_end, n_outputs)):
        if ref.t < t_out:
            ref = _reference_advance(ref, t_out)
        _assert_same_field(fld, ref)
    assert fields[0] is field


@pytest.mark.parametrize("kind", ["profile", "pulse", "collapse"])
def test_evolved_fields_own_their_densities(canonical_profile, kind):
    # the kernel's scratch is reused from step to step; what evolve returns is not
    field, t_end, n_outputs = _evolve_input(kind, canonical_profile)
    fields = dy.evolve(field, t_end, n_outputs)
    for i, fld in enumerate(fields):
        for other in fields[i + 1 :]:
            assert fld is other or not np.shares_memory(fld.f_values, other.f_values)
    before = [fld.f_values.copy() for fld in fields]
    later = dy.evolve(fields[-1], 2.0 * t_end, 3)
    assert not any(np.shares_memory(a.f_values, b.f_values) for a in fields for b in later[1:])
    for fld, f in zip(fields, before):
        assert np.array_equal(fld.f_values, f)


@pytest.mark.parametrize("kind", ["profile", "power_law"])
def test_lattices_step_independently(canonical_profile, kind):
    # the gain at node k reads node k - m only, so each lattice k = r (mod m)
    # evolves on its own at a shared dt, and its mass changes only by its own
    # top-octave boundary flux
    field = _initial_field(kind, canonical_profile)
    m = field.nodes_per_octave
    lattice = np.arange(len(field.f_values)) % m
    masked = [
        replace(field, f_values=np.where(lattice == r, field.f_values, 0.0)) for r in range(m)
    ]
    mass0 = [dy.moments(fld)[1] for fld in masked]
    for _ in range(5):
        dt = dy.stable_dt(field)
        field = dy.step(field, dt)
        masked = [dy.step(fld, dt) for fld in masked]
        assert all(fld.t == field.t for fld in masked)  # every lattice took the shared dt
    for r, fld in enumerate(masked):
        assert np.array_equal(fld.f_values[lattice == r], field.f_values[lattice == r])
        assert np.all(fld.f_values[lattice != r] == 0.0)
        mass = dy.moments(fld)[1]
        assert abs(mass + fld.escaped_mass - mass0[r]) <= 1e-14 * mass0[r]
    assert math.fsum(fld.escaped_mass for fld in masked) == pytest.approx(
        field.escaped_mass, rel=1e-14
    )


@pytest.mark.parametrize(
    "amplitude, named",
    [(1e147, "boundary flux"), (1e150, r"loss \(t xi\*\*\(1\+gamma\) f\)\*\*2")],
)
def test_an_overflowing_density_is_refused_up_front(canon, amplitude, named):
    # the step squares H = t xi f: a flat density of 1e147 overflows only the top
    # octave's flux, 1e150 the largest square H**2 = 1.1e312 too; warnings are
    # errors here, so neither may overflow on the way to the refusal
    field = dy.power_law_field(canon.gamma, amplitude, 0.0)
    for run in (
        lambda: dy.evolve(field, 2.0, 2),
        lambda: dy.step(field, 1e-300),
        lambda: dy.stable_dt(field),
        lambda: dy.coag_rhs(field),
    ):
        with pytest.raises(DomainError, match=f"number density too large: its {named} overflows"):
            run()


# Grids on which a kernel weight leaves the double range: (gamma, xi_min, named weight).
_WEIGHT_OUT_OF_RANGE = {
    "xi**(1+gamma) underflows": (0.9, np.finfo(float).tiny, r"xi\*\*\(1\+gamma\)"),
    "xi**(1+gamma) overflows": (-5.0, 1e-300, r"xi\*\*\(1\+gamma\)"),
    "xi**(1-gamma) overflows": (-0.9, 1e290, r"xi\*\*\(1-gamma\) dlog"),
    "xi**(1-gamma) underflows": (-5.0, 1e-60, r"xi\*\*\(1-gamma\) dlog"),
}


@pytest.mark.parametrize("case", _WEIGHT_OUT_OF_RANGE)
def test_a_kernel_weight_out_of_the_double_range_is_refused_up_front(case):
    # a zero loss weight would turn H back into f = 0/0, an infinite one into inf * 0;
    # warnings are errors here, so neither may warn on the way to the refusal
    gamma, xi_min, named = _WEIGHT_OUT_OF_RANGE[case]
    field = dy.pulse_field(gamma, 0, xi_min=xi_min, octaves=3, nodes_per_octave=1)
    with pytest.raises(DomainError, match=f"weight {named} is 0 or inf on the grid"):
        dy.evolve(field, 10.0, 1)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    gamma=st.floats(-5.0, 0.99),
    md=st.sampled_from([4, 16, 64]),
    fill=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_attempt_per_step_keeps_random_densities_positive(gamma, md, fill, seed):
    # sparse densities spanning 32 decades, each step at the dt stable_dt bounds
    rng = np.random.default_rng(seed)
    n = 8 * md + 1
    f0 = np.where(rng.random(n) < fill, 10.0 ** rng.uniform(-16.0, 16.0, n), 0.0)
    field = dy.make_field(gamma, f0, xi_min=2.0**-4, nodes_per_octave=md)
    fields = dy.evolve(field, 1.5, 3)
    for fld in fields:
        assert np.all(fld.f_values >= 0.0) and np.all(np.isfinite(fld.f_values))
    mass0 = dy.moments(field)[1]
    for fld in fields:
        assert abs(dy.moments(fld)[1] + fld.escaped_mass - mass0) <= 1e-14 * mass0


# -- moments --------------------------------------------------------------------


def test_moments_zero_field(canon):
    field = dy.make_field(canon.gamma, np.zeros(161))
    n, mass, flux = dy.moments(field)
    assert n == mass == flux == 0.0


def test_mass_conservation_with_boundary_flux(canon):
    field = dy.pulse_field(canon.gamma, 320, amplitude=1e3)
    _, m0, _ = dy.moments(field)
    fld = dy.evolve(field, field.t + 2.0, 2)[-1]
    _, m1, _ = dy.moments(fld)
    assert m1 + fld.escaped_mass == pytest.approx(m0, rel=1e-12)


def test_moments_mass_balances_to_rounding(canonical_profile):
    # the flux compensates the mass moment in the uniform weights xi * dlog
    field = dy.field_from_profile(canonical_profile)
    _, m0, _ = dy.moments(field)
    fld = dy.evolve(field, 4.0, 2)[-1]
    _, m1, _ = dy.moments(fld)
    assert fld.escaped_mass > 0.0
    assert abs(m1 + fld.escaped_mass - m0) <= 1e-14 * m0


def test_number_decreases_at_half_loss_rate(canon):
    # for interior-supported data: dN/dt = -(1/2) int xi^(1+gamma) f^2
    md = 16
    field = dy.pulse_field(canon.gamma, 320, amplitude=10.0, nodes_per_octave=md)
    rate = dy.coag_rhs(field)
    xi = field.xi_grid
    w = xi * field.dlog
    dn = float(np.sum(w * rate))
    half_loss = -0.5 * float(np.sum(w * xi**1.0 * field.f_values**2))
    assert dn == pytest.approx(half_loss, rel=1e-12)


def test_number_nonincreasing(canon):
    field = dy.pulse_field(canon.gamma, 320, amplitude=1e3)
    ns = [dy.moments(field)[0]]
    for _ in range(20):
        field = dy.step(field, dy.stable_dt(field))
        ns.append(dy.moments(field)[0])
    assert all(b <= a for a, b in zip(ns, ns[1:]))


def test_interior_flux_is_zero(canon):
    # gains cancel losses exactly while the support stays interior
    field = dy.pulse_field(canon.gamma, 320, amplitude=1e3)
    rate = dy.coag_rhs(field)
    xi = field.xi_grid
    w = xi * field.dlog
    assert float(np.sum(w * xi * rate)) == pytest.approx(0.0, abs=1e-18)
    assert dy.moments(field)[2] == 0.0


# -- self-similar distance ---------------------------------------------------------


@pytest.fixture(scope="module")
def canonical_field(canonical_profile):
    return dy.field_from_profile(canonical_profile)


def test_distance_at_initial_time(canonical_field, canonical_profile, canon):
    window = dy.default_window(canonical_field, canon.beta, 4.0)
    d0 = dy.self_similar_distance(canonical_field, canonical_profile, window)
    # D reads f at its nodes, so the sampled profile is at distance exactly 0
    assert d0 == 0.0


def test_distance_after_evolution(canonical_field, canonical_profile, canon):
    window = dy.default_window(canonical_field, canon.beta, 2.0)
    fld = dy.evolve(canonical_field, 2.0, 2)[-1]
    d2 = dy.self_similar_distance(fld, canonical_profile, window)
    assert d2 < 0.05


def test_distance_constant_solution_any_beta(canon):
    # the pure power law g = x^-(1+gamma)/(1-theta) is self-similar for every beta
    prof_const = pipeline.build_profile(canon, c=0.0)
    field = dy.field_from_profile(prof_const)
    report, _ = dy.simulate_collapse(field, prof_const, canon.beta, 2.0, n_outputs=3)
    assert max(report.distances) < 1e-3


def test_distance_window_validation(canonical_field, canonical_profile, canon):
    with pytest.raises(DomainError):
        dy.self_similar_distance(canonical_field, canonical_profile, (1e30, 1e40))
    # t**(1+(1+gamma)beta) overflows at t = 1e110 (beta = 2), t**beta too at 1e160
    for t in (1e110, 1e160):
        with pytest.raises(DomainError, match="at t = 1e[+]1[16]0 overflows"):
            dy.self_similar_distance(replace(canonical_field, t=t), canonical_profile, (1.0, 2.0))
    # a field that is zero on the window is at relative distance one
    zero = dy.make_field(canon.gamma, np.zeros(641))
    assert dy.self_similar_distance(zero, canonical_profile, (1e-2, 1e2)) == 1.0


@pytest.mark.parametrize(
    "t, named",
    [(1e110, r"at t = 1e\+110 overflows"), (1e200, r"at t = 1e\+200 overflows")],
    ids=["density factor", "both factors"],
)
def test_similarity_factors_refuse_an_overflow(t, named, canonical_field):
    # at beta = 2, t**3 overflows from t = 1e110 on and t**2 from 1e160 on
    with pytest.raises(DomainError, match=named):
        dy.similarity_factors(t, 0.0, 2.0)
    with pytest.raises(DomainError, match=named):
        dy.default_window(canonical_field, 2.0, t)
    # numpy scalars overflow to inf where Python floats raise; they are refused alike
    with pytest.raises(DomainError, match=named):
        dy.default_window(canonical_field, np.float64(2.0), np.float64(t))
    assert dy.similarity_factors(1e100, 0.0, 2.0) == (1e100**2.0, 1e100**3.0)


# Times out of range at every call that takes one, with the gamma and beta used.
_TIMES_OUT_OF_RANGE = {
    "similarity_factors t = 0 at gamma -5": lambda f: dy.similarity_factors(0.0, -5.0, 0.4),
    "similarity_factors t = -1 at beta 2.5": lambda f: dy.similarity_factors(-1.0, 0.0, 2.5),
    "similarity_factors t = nan": lambda f: dy.similarity_factors(math.nan, 0.0, 2.0),
    "default_window t_end = 0 at gamma -5": (
        lambda f: dy.default_window(replace(f, gamma=-5.0), 0.4, 0.0)
    ),
    "default_window t_end = -1": lambda f: dy.default_window(f, 2.0, -1.0),
    "default_window t_end = inf": lambda f: dy.default_window(f, 2.0, math.inf),
    "evolve from t = 0": lambda f: dy.evolve(replace(f, t=0.0), 2.0, 3),
    "evolve from t = -1": lambda f: dy.evolve(replace(f, t=-1.0), 2.0, 3),
    "evolve from t = nan": lambda f: dy.evolve(replace(f, t=math.nan), 2.0, 3),
}


@pytest.mark.parametrize("case", _TIMES_OUT_OF_RANGE)
def test_a_time_out_of_range_is_refused_typed(case):
    # unchecked, these raise ZeroDivisionError (0.0**-0.6), give complex factors
    # ((-1.0)**2.5) or NaN, or warn; warnings are errors here
    field = dy.pulse_field(0.0, 5, octaves=4)
    with pytest.raises(DomainError):
        _TIMES_OUT_OF_RANGE[case](field)


def test_a_negative_density_set_by_replace_fails_at_the_first_step():
    # the record reads no array, so a density set after construction is the step's to refuse
    field = dy.pulse_field(0.0, 5, octaves=4)
    with pytest.raises(PositivityError):
        dy.evolve(replace(field, f_values=-field.f_values), 2.0, 3)


_ANY_TIME = st.floats() | st.sampled_from(
    [0.0, -0.0, -1.0, 5e-324, 1e-310, 1e-160, 0.5, 1.0, 1e308, math.inf, -math.inf, math.nan]
)


@pytest.mark.parametrize("gamma, beta", [(0.0, 2.0), (-5.0, 0.4), (0.5, 4.0)])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(t=_ANY_TIME)
def test_any_time_gives_finite_values_or_a_domain_error(gamma, beta, t):
    field = dy.pulse_field(gamma, 5, octaves=4)
    calls = {
        "similarity_factors": lambda: dy.similarity_factors(t, gamma, beta),
        "default_window": lambda: dy.default_window(field, beta, t),
        "replace": lambda: (replace(field, t=t).t,),
    }
    for name, call in calls.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                values = call()
            except DomainError:
                continue
        assert all(math.isfinite(v) for v in values), (name, t, values)


def _cut_below(profile, x):
    """The profile cut to its nodes below x."""
    n = int(np.searchsorted(profile.x_values, x))
    return replace(profile, h_values=profile.h_values[:n], dh_values=profile.dh_values[:n])


# One input per check of the distance's arguments: (field t, profile cut at x, window).
# A time below one is the record's own check, refused at ``replace``.
_UNMEASURABLE = {
    "t below one": (0.5, None, (1.0, 2.0), "a field's time t must be finite and at least 1"),
    "reversed window": (1.0, None, (2.0, 1.0), "window must satisfy 0 < x_lo < x_hi"),
    "past a truncated profile": (1.0, 1.5, (1.0, 2.0), "window leaves the profile domain"),
    # the grid's nodes 1 and 2**(1/16) bracket the window
    "between two nodes": (1.0, None, (1.001, 1.002), "window holds no grid node"),
}


@pytest.mark.parametrize("case", _UNMEASURABLE)
def test_distance_refuses_a_window_it_cannot_measure(case, canonical_field, canonical_profile):
    t, cut, window, named = _UNMEASURABLE[case]
    profile = canonical_profile if cut is None else _cut_below(canonical_profile, cut)
    with pytest.raises(DomainError, match=named):
        dy.self_similar_distance(replace(canonical_field, t=t), profile, window)


def test_field_from_a_profile_that_misses_the_grid_is_refused(canonical_profile):
    assert canonical_profile.x_min > 1e-300
    with pytest.raises(DomainError, match="profile does not cover the requested size grid"):
        dy.field_from_profile(canonical_profile, xi_min=1e-300)


def test_collapse_report_roundtrip(canonical_field, canonical_profile, canon):
    report, _ = dy.simulate_collapse(
        canonical_field, canonical_profile, canon.beta, 2.0, n_outputs=3
    )
    d = asdict(report)
    assert list(d) == ["times", "distances", "window"]
    assert len(d["times"]) == len(d["distances"]) == 3
    assert d["times"][0] == 1.0 and d["times"][-1] == 2.0


def test_window_under_one_octave_raises_before_evolving(canonical_field, canon, monkeypatch):
    # 40 octaves at md = 16: at t = 1e5 the window holds about 54 nodes,
    # at t = 1e6 about one
    lo, hi = dy.default_window(canonical_field, canon.beta, 1e5)
    x = canonical_field.xi_grid / 1e5**canon.beta
    assert np.count_nonzero((x >= lo) & (x <= hi)) >= canonical_field.nodes_per_octave
    with pytest.raises(DomainError, match="less than one"):
        dy.default_window(canonical_field, canon.beta, 1e6)

    def no_evolve(*args, **kwargs):
        raise AssertionError("evolved before the window was checked")

    monkeypatch.setattr(dy, "evolve", no_evolve)
    with pytest.raises(DomainError, match="less than one"):
        dy.simulate_collapse(canonical_field, None, canon.beta, 1e6)


def test_window_outside_the_profile_raises_before_evolving(canonical_profile, canon, monkeypatch):
    # 140 octaves from xi = 1e-30 put the window's bottom to t = 1e5 at x = 1.1e-22,
    # below the profile's x range; D's own rule refuses it before the first step,
    # not after all 922 of them
    field = dy.power_law_field(
        canon.gamma, 1.0, 1.5, xi_min=1e-30, octaves=140, nodes_per_octave=64
    )
    assert dy.default_window(field, canon.beta, 1e5)[0] < canonical_profile.x_min

    def no_step(*args, **kwargs):
        raise AssertionError("stepped before the window was checked against the profile")

    monkeypatch.setattr(dy._Kernel, "step", no_step)
    with pytest.raises(DomainError, match="window leaves the profile domain"):
        dy.simulate_collapse(field, canonical_profile, canon.beta, 1e5)


@pytest.mark.parametrize(
    "beta, t_end", [(2.0, 0.0), (2.5, -1.0), (2.0, math.inf), (2.0, math.nan)]
)
def test_collapse_checks_t_end_before_the_window(
    beta, t_end, canonical_field, canonical_profile, monkeypatch
):
    # the window divides by t_end**beta: zero at t_end = 0, complex at
    # t_end = -1 and beta = 2.5
    monkeypatch.setattr(dy, "default_window", None)  # reached only past the check
    named = f"finite t_end > 0, n_outputs >= 0; got {t_end:g} and 5"
    with pytest.raises(DomainError, match=named):
        dy.simulate_collapse(canonical_field, canonical_profile, beta, t_end)


@pytest.mark.parametrize("gamma, beta", [(0.0, 3.0), (0.5, 2.0)])
def test_collapse_model_mismatch_raises_before_evolving(
    gamma, beta, canonical_profile, monkeypatch
):
    field = dy.power_law_field(gamma, 1.0, stationary_exponent(gamma))
    monkeypatch.setattr(dy, "evolve", None)  # reached only past the check
    with pytest.raises(DomainError, match="reference profile's gamma = 0, beta = 2"):
        dy.simulate_collapse(field, canonical_profile, beta, 2.0)


def test_smooth_data_approaches_the_profile(canonical_profile, canon):
    # data with both asymptotes of the profile, x^-(1+gamma)/(1-theta) at the
    # origin and d x^-(1+rho) in the tail, but a different core
    d, _ = tail.estimate_d(canonical_profile)
    gamma, beta = canon.gamma, canon.beta
    xi = dy.make_field(canon.gamma, np.zeros(40 * 16 + 1)).xi_grid
    f0 = xi ** -(1.0 + gamma) / ((1.0 - canon.theta) + xi ** (1.0 / beta) / d)
    field = dy.make_field(canon.gamma, f0)
    report, _ = dy.simulate_collapse(field, canonical_profile, beta, 256.0)
    distances = report.distances
    assert all(later < earlier for earlier, later in zip(distances, distances[1:]))
    assert distances[-1] <= distances[0] / 10.0


@pytest.mark.parametrize(
    "gamma, beta, t_end", [(-1.0, 2.0, 16.0), (0.5, 4.0, 4.0), (-5.0, 0.4, 64.0)]
)
def test_profile_data_collapse_away_from_gamma_zero(gamma, beta, t_end):
    # criterion 10's collapse gates on profile-seeded runs at md 16; max D reads
    # 7.5e-7, 7.1e-5 and 3.1e-6
    profile = pipeline.build_profile(make_params(gamma, beta))
    field = dy.field_from_profile(profile)
    report, fields = dy.simulate_collapse(field, profile, beta, t_end, collect_fields=True)
    assert max(report.distances) < 0.05
    counts = [dy.moments(fld)[0] for fld in fields]
    assert all(later <= earlier for earlier, later in zip(counts, counts[1:]))
    mass0 = dy.moments(fields[0])[1]
    for fld in fields:
        assert abs(dy.moments(fld)[1] + fld.escaped_mass - mass0) <= 1e-14 * mass0


# -- the collapse run's grid ----------------------------------------------------------


def _bumped(field):
    bump = 1.0 + 0.3 * np.exp(-((np.log(field.xi_grid) + 5.0) ** 2))
    return replace(field, f_values=field.f_values * bump)


# Initial data on md 64, the benchmark's collapse set-up, to t_end = 256.
_COLLAPSE_DATA = {
    "profile": lambda prof: dy.field_from_profile(prof, nodes_per_octave=64),
    "profile with a bump": lambda prof: _bumped(dy.field_from_profile(prof, nodes_per_octave=64)),
    "pulse 300": lambda prof: dy.pulse_field(prof.params.gamma, 300, nodes_per_octave=64),
}


def test_collapse_steps_the_grid_up_to_the_window_top_at_t_end(canonical_profile, canon):
    field = _COLLAPSE_DATA["profile"](canonical_profile)
    report, fields = dy.simulate_collapse(
        field, canonical_profile, canon.beta, 256.0, n_outputs=9, collect_fields=True
    )
    assert report.times == tuple(f.t for f in fields)
    # larger sizes never reach D: the grid ends at the first node at or above
    # x_hi t_end**beta, 2,177 of the 2,561 nodes
    top = report.window[1] * dy.similarity_factors(256.0, canon.gamma, canon.beta)[0]
    xi = field.xi_grid[:2177]
    assert xi[-2] < top <= xi[-1]
    mass0 = dy.moments(replace(field, xi_grid=xi, f_values=field.f_values[:2177]))[1]
    for out in fields:
        assert np.array_equal(out.xi_grid, xi)
        # what crosses the top is booked as escaped mass
        assert abs(dy.moments(out)[1] + out.escaped_mass - mass0) <= 1e-14 * mass0
    assert fields[-1].escaped_mass > 0.0


@pytest.mark.parametrize("data", _COLLAPSE_DATA)
def test_collapse_report_is_the_full_grids(data, canonical_profile, canon):
    # mass moves only upward, so the nodes above the window's top never feed back
    field = _COLLAPSE_DATA[data](canonical_profile)
    report, _ = dy.simulate_collapse(field, canonical_profile, canon.beta, 256.0, n_outputs=9)
    window = dy.default_window(field, canon.beta, 256.0)
    full = dy.evolve(field, 256.0, 9)
    assert report == dy.CollapseReport(
        times=tuple(float(t) for t in dy.output_times(field, 256.0, 9)),
        distances=tuple(dy.self_similar_distance(f, canonical_profile, window) for f in full),
        window=window,
    )


def test_collapse_grid_holds_the_window_when_the_last_output_lands_on_t_end(
    canonical_profile, canon
):
    # A zero field never bounds the step, so each output is one step, and the last
    # one's t_mid + (t_end - t_mid) rounds one ulp past t_end.  The output still
    # lands on t_end, so the grid ends at node 502, the first at or above x_hi t_end**beta.
    t_end = 6.727171322029698
    field = dy.make_field(canon.gamma, np.zeros(641), xi_min=2.0**-20 * (1.0 + 9 * 2.0**-52))
    t_mid = dy.output_times(field, t_end, 3)[1]
    assert t_mid + (t_end - t_mid) == np.nextafter(t_end, math.inf)
    x_hi = dy.default_window(field, canon.beta, t_end)[1]
    assert field.xi_grid[501] < x_hi * t_end**canon.beta <= field.xi_grid[502]
    report, fields = dy.simulate_collapse(
        field, canonical_profile, canon.beta, t_end, n_outputs=3, collect_fields=True
    )
    assert fields[-1].t == t_end
    assert len(fields[-1].xi_grid) == 503
    assert report.distances == (1.0, 1.0, 1.0)
