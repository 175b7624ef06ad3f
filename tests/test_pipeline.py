import numpy as np
import pytest

from diagcoag import pipeline
from diagcoag.errors import MonotonicityError
from diagcoag.params import make_params


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
