import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagcoag.errors import DomainError
from diagcoag.mu import solve_mu
from diagcoag.params import (
    SimilarityParams,
    beta_from_rho,
    beta_star_of,
    make_params,
    params_from_rho,
    rho_from_beta,
    theta_of,
)

gammas = st.floats(min_value=-4.0, max_value=0.99)
fractions = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


def test_make_params_canonical():
    p = make_params(gamma=0.0, beta=2.0)
    assert p.beta_star == 1.0
    assert p.theta == 0.5
    assert p.rho == 0.5
    assert abs(p.mu - 1.0) < 1e-13
    assert not p.degenerate


def test_make_params_degenerate_flag():
    p = make_params(gamma=0.0, beta=1.0)
    assert p.degenerate
    assert p.beta == p.beta_star == 1.0


def test_make_params_negative_gamma():
    p = make_params(gamma=-1.0, beta=1.0)
    assert p.beta_star == 0.5
    assert p.theta == 0.25
    # rho = 0 exceeds gamma = -1: admissible (profiles increasing at infinity
    # appear only for gamma < -1 and rho < 0)
    assert p.rho == 0.0
    assert not p.degenerate


def test_make_params_rejects_bad_domains():
    with pytest.raises(DomainError):
        make_params(gamma=1.5, beta=2.0)
    with pytest.raises(DomainError):
        make_params(gamma=1.0, beta=2.0)
    with pytest.raises(DomainError):
        make_params(gamma=0.0, beta=0.5)


def test_beta_from_rho_examples():
    assert beta_from_rho(0.0, 0.5) == 2.0
    assert abs(beta_from_rho(0.5, 0.75) - 4.0) < 1e-14
    with pytest.raises(DomainError):
        beta_from_rho(0.0, 1.0)
    with pytest.raises(DomainError):
        beta_from_rho(0.0, 0.0)


def test_rho_from_beta_examples():
    assert rho_from_beta(0.0, 2.0) == 0.5
    assert rho_from_beta(-1.0, 1.0) == 0.0
    assert abs(rho_from_beta(0.5, 4.0) - 0.75) < 1e-15
    with pytest.raises(DomainError):
        rho_from_beta(0.0, -1.0)


@given(gamma=gammas, frac=fractions)
@settings(max_examples=200, deadline=None)
def test_rho_beta_round_trip(gamma, frac):
    rho = gamma + frac * (1.0 - gamma)
    beta = beta_from_rho(gamma, rho)
    assert beta >= beta_star_of(gamma)
    assert abs(rho_from_beta(gamma, beta) - rho) <= 1e-14


@given(g1=gammas, g2=gammas)
@settings(max_examples=100, deadline=None)
def test_theta_increasing(g1, g2):
    lo, hi = sorted((g1, g2))
    assert theta_of(lo) <= theta_of(hi)
    if hi - lo > 1e-12:  # resolvable separation in double precision
        assert theta_of(lo) < theta_of(hi)


def test_theta_limit_at_one():
    assert theta_of(1.0 - 1e-12) == pytest.approx(1.0, abs=1e-11)
    assert 0.0 < theta_of(-4.0) < 1.0


def test_similarity_params_store_only_gamma_beta_and_mu():
    assert [f.name for f in dataclasses.fields(SimilarityParams)] == ["gamma", "beta", "mu"]


@given(gamma=gammas, frac=fractions)
@settings(max_examples=100, deadline=None)
def test_derived_constants_are_the_public_functions(gamma, frac):
    p = make_params(gamma, beta_from_rho(gamma, gamma + frac * (1.0 - gamma)))
    assert p.theta == theta_of(gamma)
    assert p.beta_star == beta_star_of(gamma)
    assert p.rho == rho_from_beta(gamma, p.beta)


_OWNER_GAMMAS = (-5.0, -1.0, 0.0, 0.5, 0.99)


@pytest.mark.parametrize("gamma", _OWNER_GAMMAS)
@pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
def test_limit_and_lam_are_the_paper_constants(gamma, frac):
    p = params_from_rho(gamma, gamma + frac * (1.0 - gamma))
    assert p.limit == 1.0 / (1.0 - p.theta)
    assert 2.0 * p.limit == 2.0 / (1.0 - p.theta)  # doubling commutes with rounding
    assert p.lam == (1.0 - gamma) * (p.beta - p.beta_star)
    assert p.lam > 0.0


@pytest.mark.parametrize("gamma", _OWNER_GAMMAS)
def test_lam_vanishes_at_the_degenerate_beta(gamma):
    p = make_params(gamma, beta_star_of(gamma))
    assert p.degenerate and p.lam == 0.0
    assert p.limit == 1.0 / (1.0 - p.theta)


@given(gamma=gammas)
@settings(max_examples=50, deadline=None)
def test_degenerate_exactly_at_the_snapped_beta(gamma):
    bstar = beta_star_of(gamma)
    for beta in (bstar, bstar * (1.0 - 5e-13), bstar * (1.0 + 5e-13)):
        p = make_params(gamma, beta)
        assert p.beta == bstar
        assert p.degenerate
    assert not make_params(gamma, bstar * (1.0 + 1e-11)).degenerate


@pytest.mark.parametrize(
    "gamma, beta",
    [(1.5, 2.0), (1.0, 2.0), (0.0, 0.5), (-1.0, 0.4), (0.5, 1.9), (0.0, 1.0 - 1e-11)],
)
def test_make_params_and_solve_mu_refuse_alike(gamma, beta):
    with pytest.raises(DomainError) as made:
        make_params(gamma, beta)
    with pytest.raises(DomainError) as solved:
        solve_mu(gamma, beta)
    assert str(made.value) == str(solved.value)
