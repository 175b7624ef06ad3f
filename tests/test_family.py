"""The family curve d(gamma, rho) between its two ends.

d falls from 1/(1+theta), its limit as rho falls to gamma, towards 0 as rho
rises to 1.  On a grid inside the pipeline's reach, d must fall strictly in
rho by more than the two cells' rigorous error bounds, and stay inside
(0, 1/(1+theta)).  The grid starts at frac = 0.1: at gamma = 0.5 a frac of
0.05 ends in the octave budget.
"""

import pytest

from diagcoag import pipeline, tail
from diagcoag.params import params_from_rho

GAMMAS = (-1.0, 0.0, 0.5)
FRACS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)


@pytest.fixture(scope="module")
def family():
    """gamma -> [(rho, d, d_error_bound, theta)] in increasing rho."""
    curves = {}
    for gamma in GAMMAS:
        curve = []
        for frac in FRACS:
            params = params_from_rho(gamma, gamma + frac * (1.0 - gamma))
            d, bound = tail.estimate_d(pipeline.build_profile(params))
            curve.append((params.rho, d, bound, params.theta))
        curves[gamma] = curve
    return curves


@pytest.mark.parametrize("gamma", GAMMAS)
def test_d_falls_in_rho_by_more_than_its_error_bounds(family, gamma):
    curve = family[gamma]
    for (rho0, d0, bound0, _), (rho1, d1, bound1, _) in zip(curve, curve[1:]):
        assert d0 - d1 > bound0 + bound1, (
            f"gamma={gamma}: d={d0!r} at rho={rho0:g} and d={d1!r} at rho={rho1:g} "
            f"are not apart by more than their bounds {bound0:.3g} + {bound1:.3g}"
        )


@pytest.mark.parametrize("gamma", GAMMAS)
def test_d_lies_below_its_rho_to_gamma_limit(family, gamma):
    for rho, d, _, theta in family[gamma]:
        assert 0.0 < d < 1.0 / (1.0 + theta), f"gamma={gamma}, rho={rho:g}: d={d!r}"
