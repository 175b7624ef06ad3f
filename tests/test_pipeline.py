import math
import warnings

import numpy as np
import pytest

from diagcoag import pipeline
from diagcoag.errors import ConvergenceError, IterationLimitError, MonotonicityError
from diagcoag.params import beta_star_of, make_params, params_from_rho

def test_invariant_violation_is_reported_without_reseeding(monkeypatch):
    params = make_params(0.0, 2.0)
    seeds = []
    real_fixed_point = pipeline.fixed_point

    def counting_fixed_point(*args, **kwargs):
        seeds.append(args)
        return real_fixed_point(*args, **kwargs)

    def failing_integrate(seed, params, x_max):
        raise MonotonicityError("h failed to decrease at x = 1", x=1.0)

    monkeypatch.setattr(pipeline, "fixed_point", counting_fixed_point)
    monkeypatch.setattr(pipeline, "integrate", failing_integrate)
    with pytest.raises(MonotonicityError):
        pipeline.build_profile(params)
    assert len(seeds) == 1


def test_oversize_explicit_z_is_halved_until_the_expansion_converges():
    params = make_params(-1.0, 2.0)
    rescued = pipeline.build_profile(params, z=0.5)
    direct = pipeline.build_profile(params, z=0.25)
    assert rescued.z == direct.z
    assert rescued.c == direct.c
    assert rescued.tau0 == direct.tau0
    assert np.array_equal(rescued.h_values, direct.h_values)
    assert np.array_equal(rescued.dh_values, direct.dh_values)


def test_exhausted_expansion_is_not_retried_at_a_smaller_z(monkeypatch):
    # kappa = 0.9959 does not depend on z: tol 1e-12 needs ~6,700 iterations
    params = make_params(-1.0, 60.0)
    calls = _count_calls(monkeypatch, "fixed_point")
    with pytest.raises(IterationLimitError, match="not reached in 2000 iterations"):
        pipeline.build_profile(params)
    assert calls == {"fixed_point": 1}


def _count_calls(monkeypatch, *names):
    """Count the calls build_profile makes to the named pipeline functions."""
    calls = {name: 0 for name in names}
    for name in names:
        real = getattr(pipeline, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counting)
    return calls


def test_tail_beyond_the_octave_budget_fails_before_the_seed(monkeypatch):
    params = make_params(0.9, 100.0)
    assert pipeline.tail_octaves_floor(params.beta) > pipeline.MAX_SEARCH_OCTAVES
    calls = _count_calls(monkeypatch, "default_z", "fixed_point", "integrate")
    with pytest.raises(ConvergenceError, match="tail extension would exceed 600 octaves"):
        pipeline.build_profile(params)
    assert calls == {"default_z": 0, "fixed_point": 0, "integrate": 0}


def test_tail_beyond_the_octave_budget_fails_during_the_half_search(monkeypatch):
    # beta = 66.7 passes the up-front bound, but h > 1/2 on the first
    # 2**40 z march puts x_min of the normalized gauge that far below 1
    params = params_from_rho(0.95, 0.95 + 0.3 * 0.05)
    assert pipeline.tail_octaves_floor(params.beta) <= pipeline.MAX_SEARCH_OCTAVES
    calls = _count_calls(monkeypatch, "fixed_point", "integrate", "normalize")
    with pytest.raises(ConvergenceError, match="tail extension would exceed 600 octaves"):
        pipeline.build_profile(params)
    assert calls == {"fixed_point": 1, "integrate": 1, "normalize": 0}


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
    # lowest node, and every smaller z of the halving ladder underflows more
    calls = _count_calls(monkeypatch, "fixed_point")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        row = pipeline.sweep_row(-5.0, -5.0 + 1.0 / beta)
    assert row["status"] == "error"
    assert row["error"].startswith("x**(1-gamma+mu) underflows to 0 at the lowest")
    assert calls == {"fixed_point": 1}
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
