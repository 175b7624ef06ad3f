import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagcoag import pipeline, tail
from diagcoag.errors import ConvergenceError, DomainError
from diagcoag.expansion import (
    DEFAULT_TOL,
    ExpansionGrid,
    _quadratic_coefficients,
    _TPlan,
    apply_T,
    ball_radius,
    contraction_margin,
    default_z,
    empty_grid,
    fixed_point,
    h_from_expansion,
)
from diagcoag.mu import F_of
from diagcoag.params import make_params, params_from_rho
from diagcoag.profile import rhs


@pytest.fixture(scope="module")
def canon():
    return make_params(0.0, 2.0)


def weighted_norm(nodes, j, eps):
    return float(np.max(np.abs(j) * nodes**-eps))


# -- apply_T ----------------------------------------------------------------


def test_apply_T_on_zero_with_unit_amplitude(canon):
    # only the square term survives: analytically (1/beta) x^-2 int s^2 = (7/48) x
    grid = empty_grid(canon, 1e-2, c=1.0)
    out = apply_T(grid)
    assert np.allclose(out.j_values, (7.0 / 48.0) * grid.nodes, rtol=1e-7)


def test_apply_T_on_zero_without_amplitude(canon):
    grid = empty_grid(canon, 1e-2, c=0.0)
    out = apply_T(grid)
    assert np.all(out.j_values == 0.0)
    assert weighted_norm(out.nodes, out.j_values, out.epsilon) == 0.0


def test_apply_T_power_input_matches_analytic_reduction(canon):
    # for j = s^mu, c = 0 (gamma=0, beta=2, mu=1) the linear terms return
    # kappa2 * x with kappa2 = (2F(2mu)+(1-gamma)beta-1)/(beta(1-gamma+2mu))
    # and the square term adds (1 - 2^-(1-gamma+4mu))/(beta(1-gamma+4mu)) x^3
    mu = canon.mu
    kappa2 = (2.0 * F_of(canon, 2 * mu) + canon.beta - 1.0) / (canon.beta * (1 + 2 * mu))
    q2 = (1.0 - 2.0 ** -(1 + 4 * mu)) / (canon.beta * (1 + 4 * mu))
    assert kappa2 == pytest.approx(0.75, abs=1e-15)
    assert q2 == pytest.approx(31.0 / 320.0, abs=1e-15)

    for density in (64, 512):  # refined grid cross-check
        grid = empty_grid(canon, 1e-2, c=0.0, nodes_per_octave=density)
        grid = replace(grid, j_values=grid.nodes**mu)
        out = apply_T(grid)
        predicted = kappa2 * grid.nodes + q2 * grid.nodes**3
        assert np.allclose(out.j_values, predicted, rtol=1e-6)


# -- contraction margin -----------------------------------------------------


def test_contraction_margin_canonical_value(canon):
    # at eps = mu/2 = 0.5: kappa = (2 F(1.5) + 1)/5 with F(1.5) = 2 (1 - 2^-2.5)
    expected = (4.0 * (1.0 - 2.0**-2.5) + 1.0) / 5.0
    assert contraction_margin(canon) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.858578643762690, abs=1e-14)


@given(
    gamma=st.floats(min_value=-2.0, max_value=0.9),
    frac=st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=60, deadline=None)
def test_contraction_margin_below_one(gamma, frac):
    params = params_from_rho(gamma, gamma + frac * (1.0 - gamma))
    assert contraction_margin(params) < 1.0


# -- fixed_point ------------------------------------------------------------


def test_fixed_point_converges_with_contraction_rate(canon):
    eps = 0.5
    kappa = contraction_margin(canon)
    grid = empty_grid(canon, 1e-2, c=1.0)
    assert grid.epsilon == eps
    prev = None
    ratios = []
    for _ in range(200):
        new = apply_T(grid)
        change = weighted_norm(grid.nodes, new.j_values - grid.j_values, eps)
        if prev is not None and prev > 0:
            ratios.append(change / prev)
        prev = change
        grid = new
        if change <= 1e-12:
            break
    assert change <= 1e-12
    assert max(ratios) <= kappa + 0.05


def test_fixed_point_rejects_huge_z(canon):
    with pytest.raises(ConvergenceError):
        fixed_point(canon, c=1.0, z=1e3)


@pytest.mark.parametrize(
    "c, z, message",
    [
        # c*c overflows in the first iterate
        (1e200, 1e-2, "fixed-point iteration diverged at z=0.01 (non-finite iterate)"),
        (
            1.0,
            1e3,
            "iterate left the invariant ball (norm 4.61165 > R = 9.54056e-06): "
            "z=1000 too large",
        ),
    ],
    ids=["non-finite", "ball"],
)
def test_fixed_point_failure_messages(canon, c, z, message):
    with pytest.raises(ConvergenceError) as err:
        fixed_point(canon, c=c, z=z)
    assert str(err.value) == message


def test_fixed_point_stays_inside_ball(canon):
    z, eps = 1e-2, 0.5
    grid = fixed_point(canon, c=1.0, z=z)
    norm = weighted_norm(grid.nodes, grid.j_values, eps)
    assert norm <= ball_radius(grid)
    # the norm fixed_point iterates is this one, bit for bit
    assert _TPlan(grid).norm(grid.j_values) == norm


@pytest.mark.parametrize("c", [1.0, 1e-6, 1e-8, 1e-12])
def test_ball_radius_is_the_small_root(canon, c):
    # R solves quad R^2 - gap R + const = 0 with gap = 1 - kappa; for a small
    # c the form (gap - sqrt(disc)) / (2 quad) cancels (to R = 0 at c = 1e-8)
    z = default_z(canon, c)
    eps = canon.mu / 2.0
    gap = 1.0 - contraction_margin(canon)
    b2, bc = _quadratic_coefficients(canon, c)
    quad, const = b2 * z ** (canon.mu + eps), bc * z ** (canon.mu - eps)
    radius = ball_radius(empty_grid(canon, z, c))
    assert 0.0 < radius < gap / (2.0 * quad)
    assert abs(quad * radius * radius - gap * radius + const) <= 1e-12 * const


def test_fixed_point_at_a_small_gauge_keeps_d(canon, canonical_profile):
    # c only fixes the gauge, which normalize removes: d is the c = 1 profile's
    d, bound = tail.estimate_d(pipeline.build_profile(canon, c=1e-8))
    assert abs(d - tail.estimate_d(canonical_profile)[0]) <= 1e-3 * bound


def test_fixed_point_residual(canon):
    grid = fixed_point(canon, c=1.0, z=1e-2)
    again = apply_T(grid)
    resid = weighted_norm(grid.nodes, again.j_values - grid.j_values, 0.5)
    assert resid <= 1e-12


def test_fixed_point_epsilon_validation(canon):
    with pytest.raises(DomainError):
        fixed_point(canon, c=-1.0, z=1e-2)


@pytest.mark.parametrize(
    "c, named",
    [(-1.0, "nonnegative; got -1"), (math.inf, "finite; got inf"), (math.nan, "finite; got nan")],
)
def test_default_z_and_fixed_point_refuse_a_bad_amplitude(canon, c, named):
    with pytest.raises(DomainError, match=f"amplitude c must be {named}"):
        default_z(canon, c)
    with pytest.raises(DomainError, match=f"amplitude c must be {named}"):
        fixed_point(canon, c=c, z=1e-2)


def test_empty_grid_refuses_a_subnormal_lowest_node(canon):
    tiny = np.finfo(float).tiny
    empty_grid(canon, tiny * 2.0**20, c=1.0)
    with pytest.raises(DomainError, match="is subnormal"):
        empty_grid(canon, tiny * 2.0**19, c=1.0)


@pytest.mark.parametrize("density", [0, -1])
def test_empty_grid_refuses_a_density_below_one(canon, density):
    with pytest.raises(DomainError, match=f"at least one node per octave; got {density}"):
        empty_grid(canon, 1e-2, c=1.0, nodes_per_octave=density)


@pytest.mark.parametrize(
    "change, named",
    [
        ({"z": -1.0}, "z must be positive; got -1"),
        ({"z": math.nan}, "z must be positive; got nan"),
        ({"z": math.inf}, "z must be finite; got inf"),
        ({"z": np.finfo(float).tiny}, "is subnormal"),
        ({"nodes_per_octave": 0}, "at least one node per octave; got 0"),
        ({"nodes_per_octave": 32}, "j must hold 641 values, one per node"),
        ({"j_values": np.zeros(3)}, "j must hold 1281 values, one per node"),
    ],
    ids=["negative-z", "nan-z", "inf-z", "subnormal", "no-density", "density", "j"],
)
def test_every_grid_is_valid(canon, change, named):
    # the record checks itself, so replace and the constructor refuse what empty_grid does
    grid = empty_grid(canon, 1e-2, c=1.0)
    with pytest.raises(DomainError, match=re.escape(named)):
        replace(grid, **change)
    with pytest.raises(DomainError, match=re.escape(named)):
        ExpansionGrid(**{**vars(grid), **change})


def test_grid_nodes_are_derived_from_z_and_density(canon):
    grid = empty_grid(canon, 0.3, c=1.0, nodes_per_octave=8)
    x = grid.nodes
    assert len(x) == 8 * 20 + 1 and x[-1] == 0.3
    assert np.allclose(x[1:] / x[:-1], 2.0 ** (1.0 / 8), rtol=1e-14, atol=0)
    assert x[0] == pytest.approx(0.3 * 2.0**-20, rel=1e-14)
    assert np.array_equal(replace(grid, c=2.0).nodes, x)
    halved = replace(grid, z=0.15).nodes
    assert halved[-1] == 0.15 and np.allclose(halved, x / 2, rtol=1e-14, atol=0)


# -- h_from_expansion -------------------------------------------------------


def test_h_limit_at_origin(canon):
    grid = fixed_point(canon, c=1.0, z=1e-2)
    seed = h_from_expansion(grid)
    # h(x) -> 1/(1-theta) = 2 as x -> 0; with mu = 1, h(x) = 2 - x + x j(x)
    assert float(seed.h_at(1e-6)) == pytest.approx(2.0 - 1e-6, abs=1e-9)
    assert seed.h_values[0] == pytest.approx(2.0, abs=1e-7)
    assert np.all(seed.h_values < 2.0)
    assert np.all(np.diff(seed.h_values) < 0.0)


def test_constant_branch_is_constant(canon):
    grid = fixed_point(canon, c=0.0, z=1e-2)
    seed = h_from_expansion(grid)
    assert np.all(seed.h_values == 2.0)
    assert np.all(seed.dh_values == 0.0)


def test_weighted_norm_bounds_j(canon):
    grid = fixed_point(canon, c=1.0, z=1e-2)
    norm = _TPlan(grid).norm(grid.j_values)
    assert np.all(np.abs(grid.j_values) <= norm * grid.nodes**grid.epsilon * (1 + 1e-12))


def test_bifurcation_order(canon):
    # (1/(1-theta) - h(x)) / x^mu has intercept c as x -> 0
    grid = fixed_point(canon, c=1.0, z=1e-2)
    seed = h_from_expansion(grid)
    x = seed.x_values
    sel = x <= x[0] * 10.0
    ratio = (2.0 - seed.h_values[sel]) / x[sel] ** canon.mu
    slope, intercept = np.polyfit(x[sel] ** canon.mu, ratio, 1)
    assert intercept == pytest.approx(1.0, abs=1e-3)


def test_scaling_covariance(canon):
    # amplitude c at x equals amplitude c*a^mu at x/a; with a = 2 the grids align
    a = 2.0
    z = 1e-2
    g1 = fixed_point(canon, c=1.0, z=z)
    g2 = fixed_point(canon, c=a**canon.mu, z=z / a)
    h1 = h_from_expansion(g1)
    h2 = h_from_expansion(g2)
    # node i of the rescaled run sits at x1_i / a and must reproduce h1 there
    assert np.allclose(h2.h_values, h1.h_values, rtol=0, atol=5e-9)


def test_default_z_has_margin(canon):
    z = default_z(canon, 1.0)
    assert z == 0.125
    grid = fixed_point(canon, c=1.0, z=z)
    assert weighted_norm(grid.nodes, grid.j_values, grid.epsilon) < 1.0


# -- bit-identity of the planned operator -------------------------------------

# (gamma, frac): frac = 0.1 has kappa ~ 0.96; (0.9, 0.3) is a small-mu deep_tail
# cell whose fixed point takes many iterations; (-1, 0.9) is a large-mu cell
# where the benchmark's d bound is tight.
BIT_IDENTITY_CELLS = [(0.0, 0.5), (-1.0, 0.1), (0.9, 0.3), (-1.0, 0.9)]


def cell_params(gamma, frac):
    return params_from_rho(gamma, gamma + frac * (1.0 - gamma))


def apply_T_from_scratch(grid):
    """T evaluated with no hoisted factors: the reference for bit-identity."""
    x, j, c, n_oct = grid.nodes, grid.j_values, grid.c, grid.nodes_per_octave
    params = grid.params
    dtau = math.log(2.0) / n_oct
    gamma, beta, mu = params.gamma, params.beta, params.mu
    two_a = 2.0 / (1.0 - params.theta)
    lam = (1.0 - gamma) * (beta - params.beta_star)
    e1 = 1.0 - gamma + mu
    e2 = 1.0 - gamma + 2.0 * mu
    x_e1 = x**e1
    x_e2 = x**e2
    djdtau = np.gradient(j, dtau, edge_order=2)
    djdtau[0] = mu * j[0]
    cmj = c - j
    phi = [x_e1 * two_a * j, x_e2 * cmj * cmj, x_e1 * j]
    dphi = [
        e1 * phi[0] + x_e1 * two_a * djdtau,
        e2 * phi[1] - x_e2 * 2.0 * cmj * djdtau,
        e1 * phi[2] + x_e1 * djdtau,
    ]
    x1, j1 = x[0], j[0]

    def head_lin(y):
        return j1 * x1**-mu * y ** (e1 + mu) / (e1 + mu)

    def head_sq(y):
        return (
            c * c * y**e2 / e2
            - 2.0 * c * j1 * x1**-mu * y ** (e2 + mu) / (e2 + mu)
            + j1 * j1 * x1 ** (-2.0 * mu) * y ** (e2 + 2.0 * mu) / (e2 + 2.0 * mu)
        )

    def cumtrapz(p, dp):
        inner = np.concatenate(([0.0], np.cumsum(p[1:] + p[:-1]) * (0.5 * dtau)))
        return inner - (dtau * dtau / 12.0) * (dp - dp[0])

    heads = [two_a * head_lin(x1), head_sq(x1), head_lin(x1)]
    i1, i2, i3 = (h + cumtrapz(p, dp) for h, p, dp in zip(heads, phi, dphi))
    half = (x / 2.0)[:n_oct]
    d1 = np.concatenate((i1[:n_oct] - two_a * head_lin(half), i1[n_oct:] - i1[:-n_oct]))
    d2 = np.concatenate((i2[:n_oct] - head_sq(half), i2[n_oct:] - i2[:-n_oct]))
    new_j = (d1 + d2 + lam * i3) / (beta * x**e1)
    return new_j, float(np.max(np.abs(new_j) * x ** (-0.5 * mu)))


@pytest.mark.parametrize("gamma,frac", BIT_IDENTITY_CELLS)
def test_apply_T_bit_identical_to_unplanned_evaluation(gamma, frac):
    params = cell_params(gamma, frac)
    grid = empty_grid(params, default_z(params), c=1.0)
    for _ in range(5):  # the first iterates, then a nonzero j far from a power
        new = apply_T(grid)
        ref_j, ref_norm = apply_T_from_scratch(grid)
        assert np.array_equal(new.j_values, ref_j)
        assert weighted_norm(new.nodes, new.j_values, new.epsilon) == ref_norm
        grid = new


def test_apply_T_bit_identical_on_grids_moved_off_a_fixed_point(canon):
    grid = fixed_point(canon, c=1.0, z=1e-2)
    for moved in (
        replace(grid, c=2.0),
        replace(grid, z=grid.z / 2),
        replace(grid, params=make_params(0.0, 3.0)),
    ):
        ref_j, ref_norm = apply_T_from_scratch(moved)
        out = apply_T(moved)
        assert np.array_equal(out.j_values, ref_j)
        assert weighted_norm(out.nodes, out.j_values, out.epsilon) == ref_norm


@pytest.mark.parametrize("gamma,frac", BIT_IDENTITY_CELLS)
def test_fixed_point_bit_identical_to_public_apply_T_loop(gamma, frac):
    params = cell_params(gamma, frac)
    z, eps = default_z(params), 0.5 * params.mu
    result = fixed_point(params, c=1.0, z=z)
    grid = empty_grid(params, z, c=1.0)
    while True:
        new = apply_T(grid)
        change = weighted_norm(grid.nodes, new.j_values - grid.j_values, eps)
        grid = new
        if change <= DEFAULT_TOL:
            break
    assert np.array_equal(result.j_values, grid.j_values)


@pytest.mark.parametrize("gamma,frac", BIT_IDENTITY_CELLS)
def test_h_from_expansion_dh_matches_rhs_per_node(gamma, frac):
    params = cell_params(gamma, frac)
    grid = fixed_point(params, c=1.0, z=default_z(params))
    seed = h_from_expansion(grid)
    m = seed.m
    x = grid.nodes
    h = seed.h_values
    low = x[:m] / 2.0
    h_half = np.concatenate((
        1.0 / (1.0 - params.theta)
        + low**params.mu * (grid.j_values[0] * (low / x[0]) ** params.mu - grid.c),
        h[:-m],
    ))
    # dh/dtau: dh/dx per node times the profile's own nodes
    expected = np.array([rhs(xi, hi, hhi, params) for xi, hi, hhi in zip(x, h, h_half)])
    assert np.array_equal(seed.dh_values, expected * seed.x_values)
