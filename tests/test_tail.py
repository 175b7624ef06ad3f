import math
import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from diagcoag import pipeline, tail
from diagcoag.errors import DomainError, RangeError
from diagcoag.params import make_params, params_from_rho


def _phi_nodes(profile):
    """Phi(x) = int_0^x s**(-gamma) h ds at every grid node."""
    return tail._cumulative(profile)[0][0]


def _phi_of(profile, x):
    """Dense evaluation of Phi."""
    return tail._phi_at(profile, *tail._cumulative(profile), x)


def _c0_of(profile):
    """c0 = Phi(1) > 0, the anchor of the lower-bound chain."""
    return _phi_of(profile, 1.0)


def _residual_loop(profile, samples):
    """Reference ``residual_sss4b``: one sample at a time over the grid prefix the samples reach."""
    params = profile.params
    gamma, beta = params.gamma, params.beta
    m = profile.m
    samples = np.atleast_1d(np.asarray(samples, dtype=float))
    idx = np.clip(
        np.rint((np.log(samples) - profile.tau0) / profile.dtau).astype(int),
        0,
        len(profile.h_values) - 1,
    )
    n = int(idx.max(initial=0)) + 1
    prefix = replace(profile, h_values=profile.h_values[:n], dh_values=profile.dh_values[:n])
    x = prefix.x_values
    h = prefix.h_values
    cum_phi, cum_sq = tail._cumulative(prefix)[0]
    limit = 1.0 / (1.0 - params.theta)
    worst = 0.0
    lam = (1.0 - gamma) * (beta - params.beta_star)
    for i in np.unique(idx):
        xi = x[i]
        lhs = beta * xi ** (1.0 - gamma) * h[i]
        if i >= m:
            delayed = cum_sq[i] - cum_sq[i - m]
        else:
            delayed = cum_sq[i] - tail._head_integral(profile, xi / 2.0, weight=limit)
        rhs_val = delayed + lam * cum_phi[i]
        worst = max(worst, abs(lhs - rhs_val) / abs(lhs))
    return float(worst)


def _residual_sample_sets(profile):
    """The report's samples, criterion 08's, and samples inside the first octave."""
    return (
        np.geomspace(max(1e-4, profile.x_min * 4.0), min(1e4, profile.x_max / 4.0), 200),
        np.geomspace(max(1e-4, profile.x_min * 2.0), min(1e4, profile.x_max / 2.0), 300),
        np.geomspace(profile.x_min * 1.01, profile.x_min * 1.99, 40),
    )


@pytest.fixture(scope="module")
def canon():
    return make_params(0.0, 2.0)


@pytest.fixture(scope="module")
def constant_profile(canon):
    return pipeline.build_profile(canon, c=0.0)


# -- p ------------------------------------------------------------------------


def test_p_constant_profile_unbounded(constant_profile):
    p = tail.p_of(constant_profile)
    expected = constant_profile.x_values**0.5 * 2.0
    assert np.allclose(p, expected, rtol=1e-12)
    assert p[-1] > 1e3  # grows without bound


def test_p_at_one_is_half(canonical_profile):
    beta = canonical_profile.params.beta
    assert float(canonical_profile.h_at(1.0)) * 1.0 ** (1.0 / beta) == pytest.approx(
        0.5, abs=1e-12
    )


def test_p_below_one_beyond_one(canonical_profile):
    x = canonical_profile.x_values
    p = tail.p_of(canonical_profile)
    assert np.all(p[x >= 1.0] <= 1.0)


# -- d ------------------------------------------------------------------------


def test_estimate_d_canonical(canonical_profile):
    d, err = tail.estimate_d(canonical_profile)
    assert d > 0.0
    assert err == pytest.approx(2.0 * canonical_profile.x_max**-0.5, rel=1e-12)
    assert err <= 0.1 * d
    # frozen from a converged run (regression guard, not a closed form)
    assert d == pytest.approx(0.50051, abs=5e-4)


def test_estimate_d_requires_normalized(constant_profile):
    with pytest.raises(DomainError):
        tail.estimate_d(constant_profile)


def _first_nodes(profile, n):
    return replace(profile, h_values=profile.h_values[:n], dh_values=profile.dh_values[:n])


def test_estimate_d_requires_x_max_at_least_two(canonical_profile):
    below_two = int(np.searchsorted(canonical_profile.x_values, 2.0))
    with pytest.raises(DomainError, match="estimate_d requires x_max >= 2"):
        tail.estimate_d(_first_nodes(canonical_profile, below_two))


def test_cauchy_check_needs_two_nodes_past_two(canonical_profile):
    one_past_two = int(np.searchsorted(canonical_profile.x_values, 2.0)) + 1
    with pytest.raises(DomainError, match="profile too short for the Cauchy check"):
        tail.cauchy_violation(_first_nodes(canonical_profile, one_past_two))


_TARGET_BETAS = (0.5, 1.0, 2.0, 5.0, 20.0, 40.0, 67.0)
_TARGET_DS = (1e-3, 0.01, 0.1, 0.5, 0.99)


@pytest.mark.parametrize("beta", _TARGET_BETAS)
def test_target_octaves_is_least_at_d_one(beta):
    # d < 1 on every normalized profile, so the target at d = 1 bounds it below
    least = tail.target_octaves(beta, 1.0)
    for d in (1e-6, *_TARGET_DS, 1.0):
        assert tail.target_octaves(beta, d) >= least


@pytest.mark.parametrize("d", _TARGET_DS)
@pytest.mark.parametrize("beta", _TARGET_BETAS)
def test_target_octaves_is_log2_of_the_x_max_target(beta, d):
    # the x_max form max((20/d)**beta, 1e4 (400/d)**beta, 4), in decimal
    # arithmetic, where it cannot overflow (it passes 1e308 at beta = 67)
    with localcontext() as ctx:
        ctx.prec = 40
        b, dd = Decimal(beta), Decimal(d)
        x_max = max((20 / dd) ** b, 10**4 * (400 / dd) ** b, Decimal(4))
        ratio = Decimal(2) ** Decimal(tail.target_octaves(beta, d)) / x_max
    assert abs(ratio - 1) <= Decimal("1e-12")


def test_cauchy_pair_at_top(canonical_profile):
    p = tail.p_of(canonical_profile)
    beta = canonical_profile.params.beta
    m = canonical_profile.m
    x0 = canonical_profile.x_values[-m - 1]
    assert abs(p[-1] - p[-m - 1]) <= 2.0 * x0 ** (-1.0 / beta)


def test_d_dominates_chain_constant(canonical_profile):
    # the lower-bound chain gives d >= (1-gamma)(beta-beta_star) c0/beta,
    # and for beta >= 2 beta_star also the stronger d >= c0/beta
    d, _ = tail.estimate_d(canonical_profile)
    c0 = _c0_of(canonical_profile)
    params = canonical_profile.params
    factor = (1.0 - params.gamma) * (params.beta - params.beta_star)
    assert d >= factor * c0 / params.beta
    assert d >= c0 / params.beta  # beta = 2 beta_star here
    assert d <= 1.0


# -- Phi ----------------------------------------------------------------------


def test_phi_constant_profile_linear(constant_profile):
    # gamma = 0, h = 2: Phi(x) = 2x
    for x in (1e-3, 1.0, 1e3):
        assert _phi_of(constant_profile, x) == pytest.approx(2.0 * x, rel=1e-10)


def test_phi_monotone_rescaled(canonical_profile):
    params = canonical_profile.params
    x = canonical_profile.x_values
    cum = _phi_nodes(canonical_profile)
    sel = x >= 1.0
    expo = (1.0 - params.gamma) * (params.beta - params.beta_star) / params.beta
    scaled = x[sel] ** (-expo) * cum[sel]
    assert np.all(np.diff(scaled) > -1e-12 * scaled[:-1])


def test_phi_lower_bound(canonical_profile):
    params = canonical_profile.params
    c0 = _c0_of(canonical_profile)
    x = canonical_profile.x_values
    cum = _phi_nodes(canonical_profile)
    sel = x >= 1.0
    bound = c0 * x[sel] ** (1.0 - params.gamma) * x[sel] ** (-1.0 / params.beta)
    assert np.all(cum[sel] >= bound * (1.0 - 1e-9))


# -- bounds ---------------------------------------------------------------------


def test_check_bounds_canonical(canonical_profile):
    upper_ok, lower_ok, details = tail.check_bounds(canonical_profile)
    assert upper_ok and lower_ok
    assert details["hineq_ok"]
    assert details["lower_chain_ok"]
    assert details["upper_margin"] > 0.0


def test_check_bounds_names_the_worst_upper_node(canonical_profile):
    # one h raised 1e-3 above 1/(1 + x**(1/beta)) at x ~ 10
    x = canonical_profile.x_values
    i = int(np.searchsorted(x, 10.0))
    h = canonical_profile.h_values.copy()
    h[i] = 1.0 / (1.0 + x[i] ** (1.0 / canonical_profile.params.beta)) + 1e-3
    upper_ok, lower_ok, details = tail.check_bounds(replace(canonical_profile, h_values=h))
    assert not upper_ok and lower_ok
    assert details["upper_margin"] < -1e-4
    assert details["upper_worst_x"] == x[i]


def test_check_bounds_chain_constant_all_sweep(sweep_profiles):
    # the bound the derivation chain actually supports holds on every row
    for row in sweep_profiles["rows"]:
        det = row["details"]
        assert det["lower_chain_ok"], (row["gamma"], row["frac"])
        assert det["hineq_ok"], (row["gamma"], row["frac"])
        assert row["report"].upper_bound_ok, (row["gamma"], row["frac"])


def test_literal_lower_bound_splits_at_two_beta_star(sweep_profiles):
    # with the factor (1-gamma)(beta-beta_star) dropped, the stated constant
    # c0/beta is provable only for beta >= 2 beta_star (fraction <= 1/2);
    # beyond that the profiles genuinely violate it
    for row in sweep_profiles["rows"]:
        if row["frac"] <= 0.5:
            assert row["report"].lower_bound_ok, (row["gamma"], row["frac"])
        else:
            assert not row["report"].lower_bound_ok, (row["gamma"], row["frac"])


@pytest.fixture(scope="module")
def degenerate_profile():
    return pipeline.build_profile(make_params(0.0, 1.0))


def test_check_bounds_degenerate_skips_chain(degenerate_profile):
    upper_ok, lower_ok, details = tail.check_bounds(degenerate_profile)
    assert details["degenerate"]
    assert details["hineq_skipped"] and details["lower_skipped"]
    assert upper_ok and lower_ok


def test_check_bounds_refuses_beta_below_beta_star(canonical_profile):
    # SimilarityParams built by hand bypass make_params; check_bounds keeps the rule
    params = replace(canonical_profile.params, beta=0.9)
    with pytest.raises(DomainError, match="beta must be >= beta_star"):
        tail.check_bounds(replace(canonical_profile, params=params))


def test_check_bounds_requires_normalized(constant_profile):
    with pytest.raises(DomainError):
        tail.check_bounds(constant_profile)


# -- integral-equation residual --------------------------------------------------


def test_residual_constant_profile(constant_profile):
    samples = np.geomspace(constant_profile.x_min * 4, constant_profile.x_max / 4, 50)
    assert tail.residual_sss4b(constant_profile, samples) <= 1e-9


def test_residual_canonical(canonical_profile):
    samples = np.geomspace(1e-4, 1e4, 200)
    assert tail.residual_sss4b(canonical_profile, samples) <= 1e-6


def test_residual_detects_perturbation(canonical_profile):
    h = canonical_profile.h_values.copy()
    k = len(h) // 2
    h[k] *= 1.01
    broken = replace(canonical_profile, h_values=h)
    x_k = canonical_profile.x_values[k]
    assert tail.residual_sss4b(broken, [x_k]) > 1e-3
    # localized: far samples are unaffected
    assert tail.residual_sss4b(broken, [x_k * 1e-3]) < 1e-6


def test_residual_invariant_under_rescale(canonical_profile):
    from diagcoag.profile import rescale

    samples = np.geomspace(1e-3, 1e3, 40)
    r1 = tail.residual_sss4b(canonical_profile, samples)
    r2 = tail.residual_sss4b(rescale(canonical_profile, 1.7), samples / 1.7)
    assert r2 == pytest.approx(r1, rel=1e-6)


def test_residual_matches_the_per_sample_loop(sweep_profiles):
    for row in sweep_profiles["rows"]:
        prof = row["profile"]
        for samples in _residual_sample_sets(prof):
            assert tail.residual_sss4b(prof, samples) == _residual_loop(prof, samples)


def test_residual_matches_the_per_sample_loop_on_a_deep_tail():
    # deep_tail cell (0.9, 0.5), where an array power of x would move the residual
    prof = pipeline.build_profile(params_from_rho(0.9, 0.9 + 0.5 * (1.0 - 0.9)))
    for samples in _residual_sample_sets(prof):
        assert tail.residual_sss4b(prof, samples) == _residual_loop(prof, samples)


@pytest.mark.parametrize(
    "samples", [[], [math.nan], [1.0, math.nan]], ids=["empty", "nan", "one-nan"]
)
def test_residual_refuses_an_empty_or_nan_sample_set(canonical_profile, samples):
    with pytest.raises(DomainError, match="non-empty set inside the stored domain"):
        tail.residual_sss4b(canonical_profile, samples)


# -- slope fit --------------------------------------------------------------------


def test_fit_slope_canonical(canonical_profile):
    slope = tail.fit_slope(canonical_profile)
    assert slope == pytest.approx(-0.5, abs=0.005)


def test_fit_slope_constant(constant_profile):
    slope = tail.fit_slope(constant_profile)
    assert abs(slope) < 1e-10


def test_fit_slope_gamma_minus_one():
    # gamma = -1, beta = 1: h-slope is -1; g = x^-(1+gamma) h = h there
    prof = pipeline.build_profile(make_params(-1.0, 1.0))
    slope = tail.fit_slope(prof)
    assert slope == pytest.approx(-1.0, rel=0.01)
    g_slope = slope - (1.0 + prof.params.gamma)
    assert g_slope == pytest.approx(-(1.0 + prof.params.rho), rel=0.01)


def test_fit_slope_window_validation(canonical_profile):
    # the default window spans two decades only when x_max >= 100
    for x_max in (99.0, 0.5):
        n = int(np.searchsorted(canonical_profile.x_values, x_max, side="right"))
        short = replace(
            canonical_profile,
            h_values=canonical_profile.h_values[:n],
            dh_values=canonical_profile.dh_values[:n],
        )
        assert short.x_max <= x_max
        with pytest.raises(RangeError, match="fit window too narrow"):
            tail.fit_slope(short)


# -- report ----------------------------------------------------------------------


def test_tail_report_integrates_once_per_check(canonical_profile, monkeypatch):
    # the bound checks and the residual read one stacked quadrature of Phi and
    # int s**(-gamma) h^2 ds; c0 = Phi(1) is the report's one Hermite evaluation
    calls = {"cumtrapz_corrected": 0, "hermite_eval": 0}

    def counted(name):
        inner = getattr(tail, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(tail, name, counted(name))
    tail.build_tail_report(canonical_profile)
    assert calls["cumtrapz_corrected"] == 1
    assert calls["hermite_eval"] == 1


def test_tail_report_peak_memory_on_a_long_tail():
    # deep_tail cell (0.9, 0.9), 10,477 nodes: the quadrature fills its rows
    # in place, and the bound checks build their arrays after it
    prof = pipeline.build_profile(params_from_rho(0.9, 0.9 + 0.9 * (1.0 - 0.9)))
    tail.build_tail_report(prof)  # numpy imports some helpers on a first call
    tracemalloc.start()
    try:
        tail.build_tail_report(prof)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 910 * 1024


def test_tail_report_holds_python_scalars(canonical_profile):
    report, details = tail.build_tail_report(canonical_profile)
    assert type(report.max_residual_sss4b) is float
    assert all(type(v) in (bool, int, float) for v in details.values()), details
    assert details["c0"] == report.c0


def test_degenerate_tail_report_carries_its_c0(degenerate_profile):
    report, details = tail.build_tail_report(degenerate_profile)
    assert details["c0"] == report.c0 == _c0_of(degenerate_profile)


# -- module-level properties -------------------------------------------------------


@pytest.mark.parametrize("slope_err_rel, holds", [(0.005, True), (0.02, False)])
def test_bounds_hold_gates_the_tail_slope(canonical_profile, slope_err_rel, holds):
    report, details = tail.build_tail_report(canonical_profile)
    assert tail.bounds_hold(report, details)
    details["slope_err_rel"] = slope_err_rel
    assert tail.bounds_hold(report, details) is holds


def test_sandwich_where_provable(sweep_profiles):
    for row in sweep_profiles["rows"]:
        prof = row["profile"]
        params = row["params"]
        x = prof.x_values
        sel = x >= 1.0
        h = prof.h_values[sel]
        xb = x[sel] ** (1.0 / params.beta)
        upper = 1.0 / (1.0 + xb)
        factor = (1.0 - params.gamma) * (params.beta - params.beta_star)
        lower = min(1.0, factor) * row["report"].c0 / params.beta / xb
        assert np.all(h <= upper + 1e-9)
        assert np.all(h >= lower - 1e-9)


def test_slope_consistency(sweep_profiles):
    for row in sweep_profiles["rows"]:
        beta = row["params"].beta
        assert abs(row["report"].slope_fit + 1.0 / beta) <= 0.01
        assert row["report"].rho_check == pytest.approx(row["rho"], abs=0.01)
        assert row["report"].d_estimate <= 1.0
