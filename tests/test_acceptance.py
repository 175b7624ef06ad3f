"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Criteria 5 and 7 carry sub-checks whose stated constants are stronger than
what the underlying derivation chain supports (the lower-bound constant
c0/beta, provable only for beta >= 2*beta_star) or than double precision can
resolve (the Cauchy increment bound far beyond its convergence scale for
beta < 1).  Those checks are asserted exactly as stated and fail honestly;
the chain-supported variants are verified in tests/test_tail.py.
"""

import math
import time

import numpy as np
import pytest

from diagcoag import dynamics as dy
from diagcoag import pipeline, tail
from diagcoag.expansion import fixed_point, h_from_expansion
from diagcoag.mu import solve_mu
from diagcoag.params import make_params
from diagcoag.profile import _resolvable_decrement, integrate


def report_line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_mu_exactness():
    t0 = time.perf_counter()
    canonical = solve_mu(0.0, 2.0)
    worst = 0.0
    for gamma in (-2.0, -1.0, 0.0, 0.5, 0.9):
        for k in range(1, 10):
            rho = gamma + 0.1 * k * (1.0 - gamma)
            rep = solve_mu(gamma, 1.0 / (rho - gamma))
            worst = max(worst, rep.residual)
    elapsed = time.perf_counter() - t0
    ok = abs(canonical.mu - 1.0) <= 1e-12 and worst <= 1e-13 and elapsed < 1.0
    report_line(
        1,
        ok,
        f"mu(0,2)={canonical.mu:.15f}, worst sweep residual {worst:.2e}, {elapsed:.2f}s",
    )
    assert abs(canonical.mu - 1.0) <= 1e-12
    assert worst <= 1e-13
    assert elapsed < 1.0


def test_criterion_02_constant_solution():
    t0 = time.perf_counter()
    params = make_params(0.0, 2.0)
    prof = pipeline.build_profile(params, c=0.0)
    decades = math.log10(prof.x_max / prof.x_min)
    dev = float(np.max(np.abs(prof.h_values - 2.0) / 2.0))
    elapsed = time.perf_counter() - t0
    ok = decades >= 12.0 and dev <= 1e-10 and elapsed < 10.0
    report_line(2, ok, f"{decades:.1f} decades, max rel deviation {dev:.2e}, {elapsed:.2f}s")
    assert decades >= 12.0
    assert dev <= 1e-10
    assert elapsed < 10.0


def test_criterion_03_bifurcation_order():
    t0 = time.perf_counter()
    params = make_params(0.0, 2.0)
    grid = fixed_point(params, c=1.0, z=0.125)
    seed = h_from_expansion(grid, params)
    x = seed.x_values
    sel = x <= x[0] * 10.0
    ratio = (2.0 - seed.h_values[sel]) / x[sel] ** params.mu
    _, intercept = np.polyfit(x[sel] ** params.mu, ratio, 1)
    elapsed = time.perf_counter() - t0
    ok = abs(intercept - 1.0) <= 1e-3 and elapsed < 30.0
    report_line(3, ok, f"amplitude intercept {intercept:.6f} (target 1), {elapsed:.2f}s")
    assert abs(intercept - 1.0) <= 1e-3
    assert elapsed < 30.0


def test_criterion_04_monotonicity_positivity(sweep_profiles):
    worst = None
    for row in sweep_profiles["rows"]:
        prof = row["profile"]
        limit = 1.0 / (1.0 - prof.params.theta)
        x = prof.x_values
        sel = x <= prof.z * 2.0**40 * (1 + 1e-9)
        h = prof.h_values[sel]
        assert np.all(h > 0.0), (row["gamma"], row["frac"])
        assert np.all(h <= limit), (row["gamma"], row["frac"])
        diffs = np.diff(h)
        resolvable = _resolvable_decrement(prof, x)[sel][:-1]
        strict_ok = np.all((diffs < 0.0) | (~resolvable & (diffs == 0.0)))
        assert strict_ok, (row["gamma"], row["frac"])
        frac_strict = float(np.mean(diffs < 0.0))
        worst = min(worst, frac_strict) if worst is not None else frac_strict
    report_line(
        4,
        True,
        f"15/15 profiles positive and decreasing over [x_min, 2^40 z] "
        f"(lowest strict-step fraction {worst:.3f}; ties only below float resolution)",
    )


def test_criterion_05_bound_suite(sweep_profiles):
    failures = []
    for row in sweep_profiles["rows"]:
        rep = row["report"]
        det = row["details"]
        ok = rep.upper_bound_ok and rep.lower_bound_ok and det["hineq_ok"]
        if not ok:
            failures.append(
                f"(gamma={row['gamma']}, rho={row['rho']:.3f}): "
                f"upper {det['upper_margin']:+.2e}, lower {det['lower_margin']:+.2e} "
                f"(chain-supported constant gives {det['lower_margin_chain']:+.2e}), "
                f"hineq {det['hineq_margin']:+.2e}"
            )
    ok = not failures
    report_line(
        5,
        ok,
        "upper/lower/strict-integral bounds on all 15 profiles"
        if ok
        else f"{len(failures)} profiles violate the stated lower-bound constant "
        f"c0/beta (it drops the factor (1-gamma)(beta-beta_star), so it is "
        f"provable only for beta >= 2 beta_star): " + "; ".join(failures),
    )
    assert not failures, (
        "the stated lower bound h >= (c0/beta) x^(-1/beta) fails where "
        "beta < 2*beta_star; the derivation chain supports the constant "
        "(1-gamma)(beta-beta_star)*c0/beta, which passes on every profile "
        "(see test_tail.py::test_check_bounds_chain_constant_all_sweep)\n"
        + "\n".join(failures)
    )


def test_criterion_06_tail_exponent(sweep_profiles):
    worst = 0.0
    for row in sweep_profiles["rows"]:
        beta = row["params"].beta
        err = abs(row["report"].slope_fit + 1.0 / beta) * beta
        worst = max(worst, err)
    elapsed = sweep_profiles["elapsed"]
    ok = worst <= 0.01 and elapsed < 300.0
    report_line(
        6,
        ok,
        f"15/15 slopes match -1/beta, worst relative error {worst:.2e}, "
        f"sweep built in {elapsed:.1f}s",
    )
    assert worst <= 0.01
    assert elapsed < 300.0


def test_criterion_07_cauchy_limit_structure(sweep_profiles):
    failures = []
    for row in sweep_profiles["rows"]:
        prof = row["profile"]
        beta = row["params"].beta
        p = tail.p_of(prof)
        x = prof.x_values
        sel = x >= 2.0
        xs, ps = x[sel], p[sel]
        suff_max = np.maximum.accumulate(ps[::-1])[::-1]
        suff_min = np.minimum.accumulate(ps[::-1])[::-1]
        spread = np.maximum(suff_max - ps, ps - suff_min)
        bound = 2.0 * xs ** (-1.0 / beta) * (1.0 + 1e-9)
        cauchy_ok = bool(np.all(spread <= bound))
        d = row["report"].d_estimate
        c0 = row["report"].c0
        d_ok = (c0 / beta) <= d <= 1.0
        if not (cauchy_ok and d_ok):
            parts = [f"(gamma={row['gamma']}, rho={row['rho']:.3f}):"]
            if not cauchy_ok:
                worst_i = int(np.argmax(spread - bound))
                parts.append(
                    f"cauchy violated at x0={xs[worst_i]:.3g} where the bound "
                    f"{bound[worst_i]:.1e} sits below float drift,"
                )
            if not d_ok:
                parts.append(f"d={d:.4f} outside [c0/beta, 1]=[{c0 / beta:.4f}, 1]")
            failures.append(" ".join(parts))
    ok = not failures
    report_line(
        7,
        ok,
        "Cauchy increments and d in [c0/beta, 1] on all 15 profiles"
        if ok
        else f"{len(failures)} profiles fail: " + "; ".join(failures),
    )
    assert not failures, (
        "d >= c0/beta inherits the dropped factor (1-gamma)(beta-beta_star) "
        "(see criterion 5); the Cauchy increment bound is violated only at "
        "pairs where 2 x0^(-1/beta) < 1e-8, below the double-precision "
        "integration drift (restricting to bound >= 1e-6 it holds everywhere)\n"
        + "\n".join(failures)
    )


def test_criterion_08_integral_equation_residual(sweep_profiles):
    worst = 0.0
    for row in sweep_profiles["rows"]:
        prof = row["profile"]
        lo = max(1e-4, prof.x_min * 2.0)
        hi = min(1e4, prof.x_max / 2.0)
        samples = np.geomspace(lo, hi, 300)
        resid = tail.residual_sss4b(prof, samples)
        worst = max(worst, resid)
    ok = worst <= 1e-6
    report_line(8, ok, f"max relative residual over x in [1e-4, 1e4]: {worst:.2e}")
    assert worst <= 1e-6


def test_criterion_09_order_of_accuracy():
    params = make_params(0.0, 2.0)
    z = 0.125
    grid = fixed_point(params, c=1.0, z=z, nodes_per_octave=256)
    x_max = z * 2.0**20
    end = {}
    for m in (32, 64, 128):
        seed = h_from_expansion(grid, params, m=m)
        end[m] = integrate(seed, params, x_max).h_values[-1]
    ratio = (end[32] - end[64]) / (end[64] - end[128])
    ok = 12.0 < ratio < 20.0
    report_line(9, ok, f"error-reduction factor per halving of dtau: {ratio:.2f} (~16)")
    assert 12.0 < ratio < 20.0


def test_criterion_10_dynamics_oracles(canonical_profile):
    t0 = time.perf_counter()
    params = canonical_profile.params

    # stationary power law: interior rhs
    field = dy.power_law_field(params.kernel, 1.0, 1.5)
    m = field.nodes_per_octave
    rate = dy.coag_rhs(field)
    xi = field.xi_grid
    rel = np.abs(rate[m:]) / (xi[m:] ** 1.0 * field.f_values[m:] ** 2)
    stationary = float(np.max(rel))

    # mass balance and monotone cluster count on a cascading pulse
    pulse = dy.pulse_field(params.kernel, 320, amplitude=1e3)
    _, m0, _ = dy.moments(pulse)
    ns = [dy.moments(pulse)[0]]
    fld = pulse
    while fld.t < pulse.t + 1.0:
        fld = dy.step(fld, min(dy.stable_dt(fld), pulse.t + 1.0 - fld.t))
        ns.append(dy.moments(fld)[0])
    _, m1, _ = dy.moments(fld)
    mass_err = abs(m1 + fld.escaped_mass - m0) / m0  # per unit time (t spans 1)
    n_monotone = all(b <= a for a, b in zip(ns, ns[1:]))

    # collapse of the profile-seeded run
    field0 = dy.field_from_profile(canonical_profile)
    report, _ = dy.simulate_collapse(field0, canonical_profile, params.beta, 4.0)
    dmax = max(report.distances)

    elapsed = time.perf_counter() - t0
    ok = (
        stationary < 1e-12
        and mass_err <= 1e-8
        and n_monotone
        and dmax < 0.05
        and elapsed < 300.0
    )
    report_line(
        10,
        ok,
        f"stationary rhs {stationary:.1e}, mass balance {mass_err:.1e}, "
        f"N nonincreasing {n_monotone}, max D(t) {dmax:.2e} on [1,4], {elapsed:.1f}s",
    )
    assert stationary < 1e-12
    assert mass_err <= 1e-8
    assert n_monotone
    assert dmax < 0.05
    assert elapsed < 300.0
