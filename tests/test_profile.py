import math
import tracemalloc
from dataclasses import replace
from io import StringIO

import numpy as np
import pytest

from diagcoag import pipeline, profile as profile_mod, tail
from diagcoag._quad import hermite_cubic, hermite_eval
from diagcoag.errors import DiagcoagError, DomainError, MonotonicityError, PositivityError, RangeError
from diagcoag.expansion import DEFAULT_TOL, default_z, empty_grid, fixed_point, h_from_expansion
from diagcoag.params import beta_star_of, make_params, params_from_rho
from diagcoag.profile import (
    Profile,
    check_invariants,
    integrate,
    normalize,
    read_profile_csv,
    rescale,
    rhs,
    write_profile_csv,
    write_table,
)

from test_expansion import apply_T_from_scratch, cell_params


@pytest.fixture(scope="module")
def canon():
    return make_params(0.0, 2.0)


# -- rhs ----------------------------------------------------------------------


def test_rhs_constant_is_stationary(canon):
    assert rhs(3.7, 2.0, 2.0, canon) == 0.0


def test_rhs_arithmetic(canon):
    assert rhs(1.0, 1.0, 2.0, canon) == pytest.approx(-1.0, abs=1e-15)
    assert rhs(2.0, 1.0, 1.0, canon) == pytest.approx(-0.125, abs=1e-15)


# -- integrate ----------------------------------------------------------------


def test_integrate_constant_branch(canon):
    grid = fixed_point(canon, c=0.0, z=0.25)
    seed = h_from_expansion(grid)
    prof = integrate(seed, x_max=0.25 * 2.0**40)
    assert prof.x_max / prof.x_min > 1e12
    assert np.max(np.abs(prof.h_values - 2.0) / 2.0) <= 1e-10


def test_integrate_fat_tail_structure(canon):
    grid = fixed_point(canon, c=1.0, z=0.125)
    seed = h_from_expansion(grid)
    prof = integrate(seed, x_max=0.125 * 2.0**30)
    assert np.all(np.diff(prof.h_values) < 0.0)
    assert prof.h_values[-1] < 1e-3
    # x^(1/beta) h approaches a positive constant
    p = prof.x_values ** 0.5 * prof.h_values
    assert p[-1] > 0.0
    assert abs(p[-1] - p[-prof.m]) < 1e-4 * p[-1]


def test_integrate_fourth_order(canon):
    # seed and march at each density: both are fourth order in dtau
    z = 0.125
    x_max = z * 2.0**20
    end = {}
    for m in (32, 64, 128):
        seed = h_from_expansion(fixed_point(canon, c=1.0, z=z, nodes_per_octave=m))
        end[m] = integrate(seed, x_max).h_values[-1]
    ratio = (end[32] - end[64]) / (end[64] - end[128])
    assert 12.0 < ratio < 20.0


def test_integrate_requires_history(canon):
    grid = fixed_point(canon, c=1.0, z=0.125)
    seed = h_from_expansion(grid)
    short = replace(seed, h_values=seed.h_values[-32:], dh_values=seed.dh_values[-32:],
                    tau0=seed.tau0 + (len(seed.h_values) - 32) * seed.dtau)
    with pytest.raises(DomainError):
        integrate(short, 1.0)


def test_finite_difference_residual(canon, canonical_profile):
    prof = canonical_profile
    theta, beta = canon.theta, canon.beta
    h = prof.h_values
    x = prof.x_values
    m, dtau = prof.m, prof.dtau
    # centered differences in tau at interior nodes that have exact delays
    i = np.arange(m + 1, len(h) - 1)
    dh_dtau = (h[i + 1] - h[i - 1]) / (2.0 * dtau)
    resid = beta * dh_dtau - (h[i] ** 2 - theta * h[i - m] ** 2 - h[i])
    rel = np.abs(resid) / np.maximum(np.abs(h[i]), 1e-30)
    assert np.max(rel) < 5.0 * dtau**2


def _whole_history_integrate(seed, params, x_max):
    """Reference march: the earlier ``integrate`` body, which listed and
    re-arrayed the whole history on every call.  ``integrate`` must match it
    bit for bit."""
    m = seed.m
    n_have = len(seed.h_values)
    dtau = seed.dtau
    theta = params.theta
    beta = params.beta
    strict = seed.c > 0.0

    tau_last = seed.tau0 + dtau * (n_have - 1)
    n_new = int(math.ceil((math.log(x_max) - tau_last) / dtau - 1e-12))
    n_total = n_have + n_new

    h = np.empty(n_total)
    hd = np.empty(n_total)
    h[:n_have] = seed.h_values
    hd[:n_have] = seed.dh_values
    hl = h.tolist()
    hdl = hd.tolist()

    def f(hv, hh):
        return (hv * hv - theta * hh * hh - hv) / beta

    half = 0.5 * dtau
    eighth = dtau / 8.0
    for n in range(n_have - 1, n_total - 1):
        i = n - m
        h_b0 = hl[i]
        h_b1 = hl[i + 1]
        h_mid = 0.5 * (h_b0 + h_b1) + eighth * (hdl[i] - hdl[i + 1])
        hn = hl[n]
        k1 = f(hn, h_b0)
        k2 = f(hn + half * k1, h_mid)
        k3 = f(hn + half * k2, h_mid)
        k4 = f(hn + dtau * k3, h_b1)
        hnext = hn + (dtau / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if not hnext > 0.0:
            if hn <= 1e-250:
                n_total = n + 1
                hl = hl[:n_total]
                hdl = hdl[:n_total]
                break
            raise PositivityError("h lost positivity", x=math.exp(seed.tau0 + dtau * (n + 1)))
        if strict and not hnext < hn:
            raise MonotonicityError("h failed to decrease", x=math.exp(seed.tau0 + dtau * (n + 1)))
        hl[n + 1] = hnext
        hdl[n + 1] = f(hnext, h_b1)

    out = replace(seed, params=params, h_values=np.array(hl), dh_values=np.array(hdl))
    check_invariants(out)
    return out


def _assert_same_profile(got, want):
    assert np.array_equal(got.h_values, want.h_values)
    assert np.array_equal(got.dh_values, want.dh_values)
    assert (got.tau0, got.c, got.z, got.m) == (want.tau0, want.c, want.z, want.m)
    assert got.normalized == want.normalized


def _hand_seed(params, h_values, c=1.0):
    """An m = 64 seed from given node values, with dh/dtau = x dh/dx from
    differences in x."""
    h = np.asarray(h_values, dtype=float)
    m = 64
    x = np.exp(-5.0 + (math.log(2.0) / m) * np.arange(len(h)))
    return Profile(params=params, m=m, tau0=-5.0, h_values=h,
                   dh_values=np.gradient(h, x) * x, c=c, z=x[0])


def test_integrate_matches_whole_history_march(canon):
    grid = fixed_point(canon, c=1.0, z=0.125)
    seed = h_from_expansion(grid)
    first = integrate(seed, 0.125 * 2.0**30)
    ref_first = _whole_history_integrate(seed, canon, 0.125 * 2.0**30)
    _assert_same_profile(first, ref_first)
    # re-entry: continue the returned profile
    _assert_same_profile(
        integrate(first, first.x_max * 2.0**12),
        _whole_history_integrate(ref_first, canon, first.x_max * 2.0**12),
    )
    # tail extension: continue a normalized profile
    norm = normalize(first)
    _assert_same_profile(
        integrate(norm, norm.x_max * 2.0**20),
        _whole_history_integrate(norm, canon, norm.x_max * 2.0**20),
    )


@pytest.mark.parametrize("m", [32, 128])
def test_integrate_matches_whole_history_march_at_other_densities(canon, m):
    # the march steps in blocks of min(m, remaining nodes); both calls end
    # inside a delay interval
    seed = h_from_expansion(fixed_point(canon, c=1.0, z=0.125, nodes_per_octave=m))
    x_max = 0.125 * 2.0 ** (12 + 5 / m)
    first = integrate(seed, x_max)
    ref_first = _whole_history_integrate(seed, canon, x_max)
    _assert_same_profile(first, ref_first)
    x_max = first.x_max * 2.0 ** (3 + 7 / m)
    _assert_same_profile(
        integrate(first, x_max), _whole_history_integrate(ref_first, canon, x_max)
    )


def test_scratch_layers_compose_to_the_pipeline_layers():
    # T from scratch iterated by fixed_point's rule, then the whole-history
    # march, against fixed_point and integrate, on a slowly contracting cell
    params = cell_params(-1.0, 0.1)
    z = default_z(params)
    grid = empty_grid(params, z, c=1.0)
    weight = grid.nodes ** (-grid.epsilon)
    for _ in range(2000):
        new_j, _ = apply_T_from_scratch(grid)
        change = float(np.max(np.abs(new_j - grid.j_values) * weight))
        grid = replace(grid, j_values=new_j)
        if change <= DEFAULT_TOL:
            break
    else:
        pytest.fail("the scratch iteration did not converge")
    x_max = z * 2.0**40
    want = _whole_history_integrate(h_from_expansion(grid), params, x_max)
    got = integrate(h_from_expansion(fixed_point(params, c=1.0, z=z)), x_max)
    _assert_same_profile(got, want)


def test_integrate_underflow_truncation_matches_whole_history_march():
    # beta == beta_star; the last node is below the 1e-250 floor while its
    # delayed node is O(1), so the first step overshoots to h <= 0 and the
    # march stops there with the history it has
    params = make_params(0.0, 1.0)
    seed = _hand_seed(params, np.logspace(0.0, -256.0, 65))
    out = integrate(seed, seed.x_max * 2.0**4)
    assert len(out.h_values) == len(seed.h_values)
    _assert_same_profile(out, _whole_history_integrate(seed, params, seed.x_max * 2.0**4))


def test_integrate_truncates_at_a_subnormal_tie(canon):
    # a power-law tail deep in the subnormals: once the per-step decrement
    # rounds to zero the next node ties, and the march stops at the floor
    seed = _hand_seed(canon, np.logspace(-300.0, -321.0, 65))
    out = integrate(seed, seed.x_max * 2.0**16)
    assert seed.x_max < out.x_max < seed.x_max * 2.0**16
    assert np.all(np.diff(out.h_values) < 0.0)
    assert out.h_values[-1] <= 1e-250
    _assert_same_profile(out, _whole_history_integrate(seed, canon, out.x_max))
    # the earlier march raised at the tied node
    with pytest.raises(MonotonicityError) as tie:
        _whole_history_integrate(seed, canon, seed.x_max * 2.0**16)
    assert tie.value.x == pytest.approx(out.x_max * 2.0 ** (1 / 64))
    # a continuation stops at once
    _assert_same_profile(integrate(out, out.x_max * 2.0), out)


@pytest.mark.parametrize(
    "values, error",
    [
        (np.full(65, 3.0), MonotonicityError),  # above the fixed point: h grows
        (np.logspace(0.0, -200.0, 65), PositivityError),  # overshoots above the floor
    ],
)
def test_integrate_errors_match_whole_history_march(canon, values, error):
    seed = _hand_seed(canon, values)
    with pytest.raises(error) as got:
        integrate(seed, seed.x_max * 2.0)
    with pytest.raises(error) as want:
        _whole_history_integrate(seed, canon, seed.x_max * 2.0)
    assert type(got.value) is type(want.value)
    assert got.value.x == want.value.x == pytest.approx(seed.x_max * 2.0 ** (1 / 64))


def _steps_before(seed, x):
    """New nodes a march from ``seed`` had written when it stopped at node x."""
    return round((math.log(x) - seed.tau0) / seed.dtau) - len(seed.h_values)


@pytest.mark.parametrize(
    "values, c, error",
    [
        # decreasing from above the fixed point 2 for a while, then growing
        (np.linspace(2.5072, 2.2, 65), 1.0, MonotonicityError),
        # the constant branch just above its fixed point grows without bound
        # and overflows to inf, then to nan
        (np.full(65, 2.0 + 1e-3), 0.0, PositivityError),
    ],
)
def test_late_errors_match_whole_history_march(canon, values, c, error):
    # the sliding history has been written out and cut back at least once
    # before these errors, which land inside a delay interval
    seed = _hand_seed(canon, values, c=c)
    with pytest.raises(error) as got:
        integrate(seed, seed.x_max * 2.0**24)
    with pytest.raises(error) as want:
        _whole_history_integrate(seed, canon, seed.x_max * 2.0**24)
    assert got.value.x == want.value.x
    steps = _steps_before(seed, got.value.x)
    assert steps >= 4 * seed.m and steps % seed.m != 0


def test_late_floor_truncation_matches_whole_history_march(canon):
    # a power-law tail that ties in the subnormals inside a delay interval,
    # several written-out chunks after the seed
    seed = _hand_seed(canon, np.logspace(-300.0, -320.0, 65))
    out = integrate(seed, seed.x_max * 2.0**24)
    steps = len(out.h_values) - len(seed.h_values)
    assert steps >= 4 * seed.m and steps % seed.m != 0
    _assert_same_profile(out, _whole_history_integrate(seed, canon, out.x_max))
    # the earlier march raised at the tied node, the one after out's last
    with pytest.raises(MonotonicityError) as tie:
        _whole_history_integrate(seed, canon, seed.x_max * 2.0**24)
    assert tie.value.x == pytest.approx(out.x_max * 2.0 ** (1 / seed.m))


def test_continuation_from_inside_a_delay_interval_matches_whole_history_march(
    canonical_profile,
):
    # a normalized profile cut half an interval past a multiple of m,
    # continued to a target that ends inside a chunk
    prof = canonical_profile
    m = prof.m
    n = 40 * m + m // 2
    cut = replace(prof, h_values=prof.h_values[:n], dh_values=prof.dh_values[:n])
    x_max = cut.x_max * 2.0 ** (9 + 37 / m)
    _assert_same_profile(
        integrate(cut, x_max), _whole_history_integrate(cut, cut.params, x_max)
    )


def test_integrate_peak_memory_is_a_few_output_arrays(canon):
    # the march holds a few delay intervals as Python floats and writes the
    # nodes into preallocated arrays (20,673 of them to 2**300); to the stop
    # rule it preallocates up to 2**40 z and doubles the arrays as needed
    # (twice for the rho = 0.1 seed: from 3,841 nodes to 15,363, for 11,457 stored)
    seeds = [h_from_expansion(fixed_point(canon, c=1.0, z=0.125))]
    slow = params_from_rho(0.0, 0.1)
    seeds.append(h_from_expansion(fixed_point(slow, c=1.0, z=default_z(slow))))
    integrate(seeds[0], 1.0)  # first-call allocations
    for seed, x_max in [(seeds[0], 2.0**300), (seeds[0], None), (seeds[1], None)]:
        tracemalloc.start()
        try:
            out = integrate(seed, x_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * (out.h_values.nbytes + out.dh_values.nbytes)


@pytest.mark.parametrize("gamma", [0.8, 0.9])
def test_march_reproduces_exact_tail_at_twice_beta_star(gamma):
    # at beta = 2 beta_star, h = d x^(-1/beta) solves the equation exactly
    # (theta 2^(2/beta) = 1), so the compensated tail p is flat at d
    params = make_params(gamma, 2.0 * beta_star_of(gamma))
    prof = pipeline.build_profile(params)
    d, _ = tail.estimate_d(prof)
    p = tail.p_of(prof)
    assert np.max(np.abs(p[prof.x_values >= 16.0] - d)) <= 1e-13


# -- rescale ------------------------------------------------------------------


def test_rescale_identity(canonical_profile):
    assert rescale(canonical_profile, 1.0) is canonical_profile


def test_rescale_by_two_shifts_nodes(canonical_profile):
    prof = canonical_profile
    out = rescale(prof, 2.0)
    assert np.array_equal(out.h_values, prof.h_values)
    assert out.tau0 == pytest.approx(prof.tau0 - math.log(2.0), abs=1e-15)
    # values previously at 2x are now reported at x: grid moved one octave
    m = prof.m
    assert np.allclose(
        np.asarray(out.h_at(prof.x_values[: -m])),
        prof.h_values[m:],
        rtol=1e-12,
    )


def test_rescale_invalid(canonical_profile):
    with pytest.raises(DomainError):
        rescale(canonical_profile, -2.0)


@pytest.mark.parametrize("a", [math.inf, math.nan])
def test_rescale_refuses_a_factor_that_is_not_finite(canonical_profile, a):
    with pytest.raises(DomainError, match="finite and positive"):
        rescale(canonical_profile, a)


def test_rescale_and_normalize_leave_dh_dtau_untouched(canon):
    # a shift in tau moves the grid, not the values h and dh/dtau at its nodes
    prof = integrate(h_from_expansion(fixed_point(canon, c=1.0, z=0.125)), 0.125 * 2.0**30)
    for out in (rescale(prof, 2.0), normalize(prof)):
        assert out.tau0 != prof.tau0
        assert np.array_equal(out.h_values, prof.h_values)
        assert np.array_equal(out.dh_values, prof.dh_values)


def test_h_at_the_nodes_is_h_values(canonical_profile):
    prof = canonical_profile
    assert np.allclose(prof.h_at(prof.x_values), prof.h_values, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("x", [1e300, 1e-300, [1.0, 1e300]], ids=["above", "below", "array"])
def test_h_at_off_the_grid_is_a_domain_error(canonical_profile, x):
    # no extrapolation: a typed failure, which is still a ValueError
    with pytest.raises(DomainError, match="query outside stored grid"):
        canonical_profile.h_at(x)
    with pytest.raises(DomainError, match="query outside stored grid"):
        canonical_profile.g_at(x)


def test_rescale_overflowing_gauge_factor_is_range_error(canonical_profile):
    # mu > 1 here, so a**mu leaves the double range although a does not
    prof = replace(canonical_profile, params=make_params(0.0, 1.5))
    assert prof.params.mu > 1.0
    with pytest.raises(RangeError, match=r"a = 1e\+300"):
        rescale(prof, 1e300)


@pytest.mark.parametrize(
    "a, named",
    [
        (5e-324, "c = 4.94066e-323, z = inf"),  # z overflows
        (1e308, "c = inf, z = 1.19346e-310"),  # c overflows; z is subnormal
    ],
)
def test_rescale_refuses_a_gauge_out_of_double_range(canonical_profile, a, named):
    assert canonical_profile.c > 1.0
    with pytest.raises(RangeError) as err:
        rescale(canonical_profile, a)
    assert str(err.value) == (
        f"gauge factor a = {a:g} is out of floating-point range for this profile: "
        f"{named} (mu = 1)"
    )


def test_rescale_refuses_a_gauge_whose_c_underflows_to_zero(canonical_profile):
    # c alone leaves the fat-tail branch: a**mu underflows to 0 at mu = 2.37734
    prof = replace(canonical_profile, params=make_params(0.0, 1.1))
    with pytest.raises(RangeError) as err:
        rescale(prof, 1e-150)
    assert str(err.value) == (
        "gauge factor a = 1e-150 is out of floating-point range for this profile: "
        "c = 0, z = 1.19346e+148 (mu = 2.37734)"
    )


# -- normalize ----------------------------------------------------------------


def test_normalize_hits_half(canonical_profile):
    assert canonical_profile.normalized
    assert float(canonical_profile.h_at(1.0)) == pytest.approx(0.5, abs=1e-12)


def test_normalize_idempotent(canonical_profile):
    again = normalize(canonical_profile)
    # the rescale factor is 1 within the bisection tolerance
    assert again.tau0 == pytest.approx(canonical_profile.tau0, abs=1e-11)


def test_hermite_cubic_is_the_cell_cubic_of_hermite_eval(canonical_profile):
    # the one cubic behind dense evaluation and normalize's scalar bisection
    p = canonical_profile
    k = len(p.h_values) // 2
    h0, h1 = p.h_values[k:k + 2].tolist()
    d0, d1 = p.dh_values[k:k + 2].tolist()
    assert hermite_cubic(0.0, h0, h1, d0, d1, p.dtau) == h0
    assert hermite_cubic(1.0, h0, h1, d0, d1, p.dtau) == h1
    for s in (0.125, 0.5, 0.875):
        tau = p.tau0 + p.dtau * (k + s)
        want = hermite_eval(tau, p.tau0, p.dtau, p.h_values, p.dh_values)
        assert hermite_cubic((tau - p.tau0) / p.dtau - k, h0, h1, d0, d1, p.dtau) == want


def _reference_normalize(profile):
    """The earlier ``normalize``: bisection on ``hermite_eval`` over the whole
    profile.  ``normalize`` must give the same profile bit for bit."""
    h = profile.h_values
    idx = int(np.argmax(h < 0.5))
    dtau = profile.dtau
    lo = profile.tau0 + dtau * (idx - 1)
    hi = profile.tau0 + dtau * idx
    hd = profile.dh_values
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = float(hermite_eval(mid, profile.tau0, dtau, profile.h_values, hd))
        if abs(val - 0.5) <= profile_mod.NORMALIZE_TOL:
            lo = hi = mid
            break
        if val > 0.5:
            lo = mid
        else:
            hi = mid
    return replace(rescale(profile, math.exp(0.5 * (lo + hi))), normalized=True)


class _Captured(Exception):
    """Stops ``build_profile`` at its ``normalize`` call, carrying the input."""


def _raise_captured(profile):
    raise _Captured(profile)


_BENCH_GRIDS = (
    ((-1.0, 0.0, 0.5), (0.1, 0.3, 0.5, 0.7, 0.9)),  # sweep15
    ((0.8, 0.9, 0.95, 0.99), (0.3, 0.5, 0.7, 0.9)),  # deep_tail
)


def test_normalize_matches_whole_profile_bisection(monkeypatch):
    # the profiles build_profile normalizes on the benchmark's grids
    monkeypatch.setattr(pipeline, "normalize", _raise_captured)
    inputs = []
    for gammas, fracs in _BENCH_GRIDS:
        for gamma in gammas:
            for frac in fracs:
                params = params_from_rho(gamma, gamma + frac * (1.0 - gamma))
                try:
                    pipeline.build_profile(params)
                except _Captured as got:
                    inputs.append(got.args[0])
                except DiagcoagError:
                    pass  # six deep_tail cells exceed the octave budget first
    assert len(inputs) == 25
    for prof in inputs:
        _assert_same_profile(normalize(prof), _reference_normalize(prof))


def test_normalize_constant_profile_range_error(canon):
    prof = pipeline.build_profile(canon, c=0.0)
    with pytest.raises(RangeError):
        normalize(prof)


def test_normalized_supersolution_bound(canonical_profile):
    x = canonical_profile.x_values
    sel = x >= 1.0
    bound = 1.0 / (1.0 + x[sel] ** 0.5)
    assert np.all(canonical_profile.h_values[sel] <= bound + 1e-9)


# -- invariants and serialization ----------------------------------------------


def test_check_invariants_passes(canonical_profile):
    check_invariants(canonical_profile)


def test_check_invariants_peak_memory_is_a_few_node_arrays(canon):
    # the two buffers of the resolvable-decrement mask; no node array x
    prof = integrate(h_from_expansion(fixed_point(canon, c=1.0, z=0.125)), 2.0**300)
    check_invariants(prof)  # first-call allocations
    tracemalloc.start()
    try:
        check_invariants(prof)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * prof.h_values.nbytes


_RESOLVED = [-1.0] * 4


@pytest.mark.parametrize(
    "h, dh, error, message, node",
    [
        ([1.5, 1.0, 0.0, -1.0], _RESOLVED, PositivityError, "h <= 0 at x = 0.375935", 2),
        ([1.9, 2.0, 1.8, 1.7], _RESOLVED, DomainError, "h >= 1/(1-theta) at x = 0.371885", None),
        ([2.0, 1.8, 1.7, 1.6], _RESOLVED, DomainError, "h >= 1/(1-theta) at x = 0.367879", None),
        ([1.9, 1.8, 1.8, 1.7], _RESOLVED, MonotonicityError,
         "h not strictly decreasing at x = 0.375935", 2),
        # ties and the limit are allowed where the decrement is below float resolution
        ([2.0, 1.8, 1.7, 1.6], [-1e-17, -1.0, -1.0, -1.0], None, None, None),
        ([1.9, 1.8, 1.8, 1.7], [-1.0, -1e-17, -1.0, -1.0], None, None, None),
    ],
    ids=["positivity", "above limit", "at limit", "tie", "unresolved limit", "unresolved tie"],
)
def test_check_invariants_verdicts(canon, h, dh, error, message, node):
    x = np.exp(-1.0 + (math.log(2.0) / 64) * np.arange(4))
    prof = Profile(params=canon, m=64, tau0=-1.0, h_values=np.array(h),
                   dh_values=np.array(dh), c=1.0, z=x[0])
    if error is None:
        check_invariants(prof)
        return
    with pytest.raises(error) as err:
        check_invariants(prof)
    assert type(err.value) is error
    assert str(err.value) == message
    if node is not None:
        assert err.value.x == float(prof.x_values[node])


def test_profile_bounds(canonical_profile):
    h = canonical_profile.h_values
    assert np.all(h > 0.0)
    assert np.all(h < 2.0)


def test_csv_round_trip(tmp_path, canonical_profile):
    path = tmp_path / "prof.csv"
    write_profile_csv(canonical_profile, path)
    p = canonical_profile
    rows = zip(p.x_values, p.h_values, p.g_values, p.dh_values)
    expected = "x,h,g,dhdtau\n" + "".join(",".join(f"{v:.17g}" for v in r) + "\n" for r in rows)
    assert path.read_bytes() == expected.encode()
    back = read_profile_csv(path)
    assert np.array_equal(back.h_values, canonical_profile.h_values)
    assert np.array_equal(back.dh_values, canonical_profile.dh_values)
    assert back.m == canonical_profile.m
    assert back.normalized == canonical_profile.normalized
    assert back.params.beta == canonical_profile.params.beta


def test_csv_header_mismatch(tmp_path, canonical_profile):
    path = tmp_path / "prof.csv"
    write_profile_csv(canonical_profile, path)
    path.write_text(path.read_text().replace("x,h,g,dhdtau", "x,h,g,dh", 1))
    with pytest.raises(DomainError, match="header"):
        read_profile_csv(path)


def _savetxt_bytes(table, header):
    buf = StringIO()
    np.savetxt(buf, table, fmt="%.17g", delimiter=",", header=header, comments="")
    return buf.getvalue().encode()


def test_profile_csv_longer_than_one_chunk_matches_savetxt(tmp_path):
    # gamma 0.5, frac 0.1 stores 22,168 nodes: 43 full chunks and a partial one
    p = pipeline.build_profile(params_from_rho(0.5, 0.55))
    chunk = profile_mod._TABLE_CHUNK_ROWS
    assert len(p.h_values) > chunk and len(p.h_values) % chunk != 0
    path = tmp_path / "long.csv"
    write_profile_csv(p, path)
    table = np.column_stack([p.x_values, p.h_values, p.g_values, p.dh_values])
    assert path.read_bytes() == _savetxt_bytes(table, "x,h,g,dhdtau")


@pytest.mark.parametrize("rows", [1, 2 * profile_mod._TABLE_CHUNK_ROWS], ids=["one row", "two chunks"])
def test_write_table_matches_savetxt(tmp_path, rows):
    rng = np.random.default_rng(rows)
    table = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(-300, 300, (rows, 4))
    table[0, :3] = (0.0, -0.0, 5e-324)  # exact zeros and a subnormal
    path = tmp_path / "table.csv"
    write_table(path, "a,b,c,d", table)
    assert path.read_bytes() == _savetxt_bytes(table, "a,b,c,d")
