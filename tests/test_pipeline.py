import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from diagcoag import pipeline, tail
from diagcoag.errors import ConvergenceError, DomainError, IterationLimitError, MonotonicityError
from diagcoag.expansion import default_z, fixed_point, h_from_expansion
from diagcoag.params import beta_star_of, make_params, params_from_rho
from diagcoag.profile import integrate


def _record_calls(monkeypatch, *names):
    """List, in order, the calls build_profile makes to the named pipeline functions."""
    order = []
    for name in names:
        real = getattr(pipeline, name)

        def recording(*args, _name=name, _real=real, **kwargs):
            order.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, recording)
    return order


def test_invariant_violation_is_reported_without_reseeding(monkeypatch):
    params = make_params(0.0, 2.0)
    calls = _record_calls(monkeypatch, "fixed_point")

    def failing_integrate(seed, x_max):
        raise MonotonicityError("h failed to decrease at x = 1", x=1.0)

    monkeypatch.setattr(pipeline, "integrate", failing_integrate)
    with pytest.raises(MonotonicityError):
        pipeline.build_profile(params)
    assert calls == ["fixed_point"]


def test_oversize_explicit_z_fails_once_without_halving(monkeypatch):
    # an explicit z is used as given: at 0.5 the iterate leaves its ball
    params = make_params(-1.0, 2.0)
    calls = _record_calls(monkeypatch, "fixed_point")
    with pytest.raises(ConvergenceError, match=r"z=0\.5 too large"):
        pipeline.build_profile(params, z=0.5)
    assert calls == ["fixed_point"]
    assert pipeline.build_profile(params, z=0.25).normalized


def test_exhausted_expansion_is_not_retried_at_a_smaller_z(monkeypatch):
    # kappa = 0.9959 does not depend on z: tol 1e-12 needs ~6,700 iterations
    params = make_params(-1.0, 60.0)
    calls = _record_calls(monkeypatch, "fixed_point")
    with pytest.raises(IterationLimitError, match="not reached in 2000 iterations"):
        pipeline.build_profile(params)
    assert calls == ["fixed_point"]


@pytest.mark.parametrize(
    "gamma, frac", [(0.0, 0.3), (0.9, 0.3)], ids=["sweep15 cell", "deep_tail cell"]
)
def test_one_tail_extension_reaches_the_target_of_the_final_d(monkeypatch, gamma, frac):
    # one march, then normalize: the target of the d at the march's end holds
    params = params_from_rho(gamma, gamma + frac * (1.0 - gamma))
    calls = _record_calls(monkeypatch, "integrate", "normalize")
    profile = pipeline.build_profile(params)
    assert calls == ["integrate", "normalize"]
    d, _ = tail.estimate_d(profile)
    assert math.log2(profile.x_max) >= tail.target_octaves(params.beta, d)


def _cell(gamma, frac):
    return params_from_rho(gamma, gamma + frac * (1.0 - gamma))


# Every path of build_profile: (parameters, keyword arguments).
_BUILD_PATHS = {
    "sweep15 cell": (lambda: _cell(0.0, 0.1), {}),
    "deep_tail cell": (lambda: _cell(0.9, 0.3), {}),
    "constant branch": (lambda: make_params(0.0, 2.0), {"c": 0.0}),
    "explicit x_max": (lambda: make_params(0.0, 2.0), {"x_max": 1e12}),
    "degenerate": (lambda: make_params(0.0, beta_star_of(0.0)), {}),
}


@pytest.mark.parametrize("case", _BUILD_PATHS)
def test_each_build_makes_exactly_one_integrate_call(monkeypatch, case):
    params, kwargs = _BUILD_PATHS[case]
    params = params()
    calls = _record_calls(monkeypatch, "integrate")
    pipeline.build_profile(params, **kwargs)
    assert calls == ["integrate"]


def _stop_rule_holds(profile, n):
    """integrate's stop rule at the march's node count n, read off the normalized
    profile: past 2**40 z, h < 0.45 and log2 x at the target of estimate_d's d there."""
    head = replace(profile, h_values=profile.h_values[:n], dh_values=profile.dh_values[:n])
    beta = profile.params.beta
    d = head.x_max ** (1.0 / beta) * head.h_values[-1]
    return (
        head.x_max >= 2.0**40 * profile.z * (1.0 - 1e-12)
        and head.h_values[-1] < 0.45
        and math.log2(head.x_max) >= tail.target_octaves(beta, d)
    )


@pytest.mark.parametrize("gamma, frac", [(0.0, 0.1), (0.0, 0.5), (-1.0, 0.9), (0.9, 0.3)])
def test_the_march_stops_at_the_first_interval_end_where_the_rule_holds(gamma, frac):
    profile = pipeline.build_profile(_cell(gamma, frac))
    n = len(profile.h_values)
    assert _stop_rule_holds(profile, n)
    assert not _stop_rule_holds(profile, n - profile.m)


@pytest.mark.parametrize("gamma, frac", [(0.0, 0.1), (0.9, 0.3)])
def test_the_march_to_the_stop_rule_is_a_prefix_of_a_longer_march(gamma, frac):
    params = _cell(gamma, frac)
    seed = h_from_expansion(fixed_point(params, 1.0, default_z(params, 1.0)))
    short = integrate(seed)
    longer = integrate(seed, short.x_max * 2.0**10)
    n = len(short.h_values)
    assert longer.tau0 == short.tau0 and len(longer.h_values) > n
    assert np.array_equal(longer.h_values[:n], short.h_values)
    assert np.array_equal(longer.dh_values[:n], short.dh_values)


def test_octave_density_below_32_fails_before_the_seed(monkeypatch):
    calls = _record_calls(monkeypatch, "default_z", "fixed_point")
    with pytest.raises(DomainError, match="m must be >= 32 nodes per octave; got 16"):
        pipeline.build_profile(make_params(0.0, 2.0), m=16)
    assert calls == []


# The one message of the octave budget: the octaves needed, gamma and beta.
_OVER_BUDGET = r"profile needs [0-9.]+ octaves, more than the budget of 600 \(gamma=.*, beta=.*\)"


def test_tail_beyond_the_octave_budget_fails_before_the_seed(monkeypatch):
    params = make_params(0.9, 100.0)
    assert tail.target_octaves(params.beta, 1.0) > pipeline.MAX_OCTAVES
    calls = _record_calls(monkeypatch, "default_z", "fixed_point", "integrate")
    with pytest.raises(ConvergenceError, match=_OVER_BUDGET) as info:
        pipeline.build_profile(params)
    assert calls == []
    assert info.value.x is None


def test_tail_beyond_the_octave_budget_fails_during_the_half_search(monkeypatch):
    # beta = 66.7: the target alone fits the budget, but the march's first
    # check, at the seed's end, adds the seed's 20 octaves; build_profile
    # makes that same check before the seed
    params = params_from_rho(0.95, 0.95 + 0.3 * 0.05)
    assert tail.target_octaves(params.beta, 1.0) <= pipeline.MAX_OCTAVES
    calls = _record_calls(monkeypatch, "default_z", "fixed_point", "integrate", "normalize")
    with pytest.raises(ConvergenceError, match=r"profile needs 609\.545 octaves"):
        pipeline.build_profile(params)
    assert calls == []


@pytest.mark.parametrize("gamma, frac", [(0.95, 0.5), (0.8, 0.1)])
def test_octave_budget_fires_at_the_first_interval_end_past_it(gamma, frac):
    # the march checks stored plus needed octaves once per octave (m steps)
    with pytest.raises(ConvergenceError, match=_OVER_BUDGET) as info:
        pipeline.build_profile(_cell(gamma, frac))
    octaves = float(re.search(r"needs ([0-9.]+) octaves", str(info.value)).group(1))
    assert pipeline.MAX_OCTAVES < octaves <= pipeline.MAX_OCTAVES + 1.0


@pytest.mark.parametrize("gamma, frac", [(0.95, 0.5), (0.8, 0.1)])
def test_octave_budget_error_names_the_node_the_march_reached(gamma, frac):
    # h stays above 1/2 on these marches, so the octaves still needed are the
    # target at d = 1, and the march stops at the first interval end where
    # the octaves stored plus that target exceed the budget
    params = _cell(gamma, frac)
    seed = h_from_expansion(fixed_point(params, 1.0, default_z(params, 1.0)))
    with pytest.raises(ConvergenceError, match=_OVER_BUDGET) as info:
        integrate(seed)
    reached = integrate(seed, info.value.x)  # the same nodes, up to x
    assert reached.x_max == info.value.x and reached.h_values[-1] > 0.5
    assert (len(reached.h_values) - len(seed.h_values)) % seed.m == 0
    stored = (len(reached.h_values) - 1) / seed.m
    need = tail.target_octaves(params.beta, 1.0)
    assert stored - 1.0 + need <= pipeline.MAX_OCTAVES < stored + need


class _Seeded(Exception):
    pass


@pytest.mark.parametrize(
    "params, kwargs",
    [
        (make_params(0.9, 100.0), {"x_max": 1e3}),
        (make_params(0.9, 100.0), {"c": 0.0}),
        (make_params(0.99, beta_star_of(0.99)), {}),
    ],
    ids=["explicit x_max", "constant branch", "degenerate"],
)
def test_octave_budget_applies_only_to_tail_extension(monkeypatch, params, kwargs):
    assert tail.target_octaves(params.beta, 1.0) > pipeline.MAX_OCTAVES

    def seeded(*args, **kw):
        raise _Seeded

    monkeypatch.setattr(pipeline, "fixed_point", seeded)
    with pytest.raises(_Seeded):
        pipeline.build_profile(params, **kwargs)


@pytest.mark.parametrize("gamma, frac", [(0.0, 0.5), (0.9, 0.3), (0.95, 0.7)])
def test_octave_floor_is_below_what_a_successful_build_stores(gamma, frac):
    params = params_from_rho(gamma, gamma + frac * (1.0 - gamma))
    profile = pipeline.build_profile(params)
    stored = math.log2(profile.x_max / profile.x_min)
    assert stored >= tail.target_octaves(params.beta, 1.0)


@pytest.mark.parametrize("beta", [40.0, 65.0])  # beta > ~65.6 fails the budget up front
def test_underflowing_expansion_node_fails_once_without_nan(monkeypatch, beta):
    # default_z picks z ~ 1e-48 .. 1e-78 here; x**(1-gamma+mu) is 0 at the
    # lowest node, so T cannot be evaluated and the seed fails on its one call
    calls = _record_calls(monkeypatch, "fixed_point")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        row = pipeline.sweep_row(-5.0, -5.0 + 1.0 / beta)
    assert row["status"] == "error"
    assert row["error"].startswith("x**(1-gamma+mu) underflows to 0 at the lowest")
    assert calls == ["fixed_point"]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_sweep_status_is_the_tail_verdict(sweep_profiles):
    statuses = set()
    for entry in sweep_profiles["rows"]:
        row = pipeline.sweep_row(entry["gamma"], entry["rho"])
        holds = tail.bounds_hold(entry["report"], entry["details"])
        assert row["status"] == ("ok" if holds else "bound_failure")
        assert row["slope_err_rel"] == entry["details"]["slope_err_rel"]
        statuses.add(row["status"])
    # criterion 05's rows fail the stated lower bound, the others pass
    assert statuses == {"ok", "bound_failure"}
