import math
from dataclasses import replace
from io import StringIO

import numpy as np
import pytest

from diagcoag import pipeline, profile as profile_mod, tail
from diagcoag.errors import DomainError, MonotonicityError, PositivityError, RangeError
from diagcoag.expansion import fixed_point, h_from_expansion
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
    # shared high-resolution expansion so the march alone sets the error
    z = 0.125
    grid = fixed_point(canon, c=1.0, z=z, nodes_per_octave=256)
    x_max = z * 2.0**20
    end = {}
    for m in (32, 64, 128):
        seed = h_from_expansion(grid, m=m)
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
    strict = seed.c > 1e-300

    tau_last = seed.tau0 + dtau * (n_have - 1)
    n_new = int(math.ceil((math.log(x_max) - tau_last) / dtau - 1e-12))
    n_total = n_have + n_new

    h = np.empty(n_total)
    hd = np.empty(n_total)
    h[:n_have] = seed.h_values
    hd[:n_have] = seed._dh_dtau()
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

    x = np.exp(seed.tau0 + dtau * np.arange(n_total))
    out = replace(seed, params=params, h_values=np.array(hl), dh_values=np.array(hdl) / x)
    check_invariants(out)
    return out


def _assert_same_profile(got, want):
    assert np.array_equal(got.h_values, want.h_values)
    assert np.array_equal(got.dh_values, want.dh_values)
    assert (got.tau0, got.c, got.z, got.m) == (want.tau0, want.c, want.z, want.m)
    assert got.normalized == want.normalized


def _hand_seed(params, h_values, c=1.0):
    """An m = 64 seed from given node values, with dh/dx from differences."""
    h = np.asarray(h_values, dtype=float)
    m = 64
    x = np.exp(-5.0 + (math.log(2.0) / m) * np.arange(len(h)))
    return Profile(params=params, m=m, tau0=-5.0, h_values=h,
                   dh_values=np.gradient(h, x), c=c, z=x[0])


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


def test_rescale_overflowing_gauge_factor_is_range_error(canonical_profile):
    # mu > 1 here, so a**mu leaves the double range although a does not
    prof = replace(canonical_profile, params=make_params(0.0, 1.5))
    assert prof.params.mu > 1.0
    with pytest.raises(RangeError, match=r"a = 1e\+300"):
        rescale(prof, 1e300)


# -- normalize ----------------------------------------------------------------


def test_normalize_hits_half(canonical_profile):
    assert canonical_profile.normalized
    assert float(canonical_profile.h_at(1.0)) == pytest.approx(0.5, abs=1e-12)


def test_normalize_idempotent(canonical_profile):
    again = normalize(canonical_profile)
    # the rescale factor is 1 within the bisection tolerance
    assert again.tau0 == pytest.approx(canonical_profile.tau0, abs=1e-11)


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


def test_profile_bounds(canonical_profile):
    h = canonical_profile.h_values
    assert np.all(h > 0.0)
    assert np.all(h < 2.0)


def test_csv_round_trip(tmp_path, canonical_profile):
    path = tmp_path / "prof.csv"
    write_profile_csv(canonical_profile, path)
    p = canonical_profile
    rows = zip(p.x_values, p.h_values, p.g_values, p.dh_values)
    expected = "x,h,g,dhdx\n" + "".join(",".join(f"{v:.17g}" for v in r) + "\n" for r in rows)
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
    path.write_text(path.read_text().replace("x,h,g,dhdx", "x,h,g,dh", 1))
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
    assert path.read_bytes() == _savetxt_bytes(table, "x,h,g,dhdx")


@pytest.mark.parametrize("rows", [1, 2 * profile_mod._TABLE_CHUNK_ROWS], ids=["one row", "two chunks"])
def test_write_table_matches_savetxt(tmp_path, rows):
    rng = np.random.default_rng(rows)
    table = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(-300, 300, (rows, 4))
    table[0, :3] = (0.0, -0.0, 5e-324)  # exact zeros and a subnormal
    path = tmp_path / "table.csv"
    write_table(path, "a,b,c,d", table)
    assert path.read_bytes() == _savetxt_bytes(table, "a,b,c,d")
