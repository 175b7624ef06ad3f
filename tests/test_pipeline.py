import math
import warnings

import pytest

from diagcoag import pipeline, tail
from diagcoag.errors import ConvergenceError, IterationLimitError, MonotonicityError
from diagcoag.params import beta_star_of, make_params, params_from_rho


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

    def failing_integrate(seed, params, x_max):
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
    # the target is set from d before the extension; it must still hold after it
    params = params_from_rho(gamma, gamma + frac * (1.0 - gamma))
    calls = _record_calls(monkeypatch, "integrate", "normalize")
    profile = pipeline.build_profile(params)
    assert calls[calls.index("normalize") + 1 :] == ["integrate"]
    d, _ = tail.estimate_d(profile)
    assert profile.x_max >= pipeline._tail_x_target(params.beta, d)


def test_tail_beyond_the_octave_budget_fails_before_the_seed(monkeypatch):
    params = make_params(0.9, 100.0)
    assert pipeline.tail_octaves_floor(params.beta) > pipeline.MAX_SEARCH_OCTAVES
    calls = _record_calls(monkeypatch, "default_z", "fixed_point", "integrate")
    with pytest.raises(ConvergenceError, match="tail extension would exceed 600 octaves"):
        pipeline.build_profile(params)
    assert calls == []


def test_tail_beyond_the_octave_budget_fails_during_the_half_search(monkeypatch):
    # beta = 66.7 passes the up-front bound, but h > 1/2 on the first
    # 2**40 z march puts x_min of the normalized gauge that far below 1
    params = params_from_rho(0.95, 0.95 + 0.3 * 0.05)
    assert pipeline.tail_octaves_floor(params.beta) <= pipeline.MAX_SEARCH_OCTAVES
    calls = _record_calls(monkeypatch, "fixed_point", "integrate", "normalize")
    with pytest.raises(ConvergenceError, match="tail extension would exceed 600 octaves"):
        pipeline.build_profile(params)
    assert calls == ["fixed_point", "integrate"]


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
    assert pipeline.tail_octaves_floor(params.beta) > pipeline.MAX_SEARCH_OCTAVES

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
    assert stored >= pipeline.tail_octaves_floor(params.beta)


@pytest.mark.parametrize("beta", [40.0, 70.0])
def test_underflowing_expansion_node_fails_once_without_nan(monkeypatch, beta):
    # default_z picks z ~ 1e-48 .. 1e-84 here; x**(1-gamma+mu) is 0 at the
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
