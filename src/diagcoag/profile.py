"""Profile continuation by integrating the rescaled delay equation.

The rescaled profile h(x) = x**(1+gamma) g(x) obeys the pantograph equation

    h'(x) = (h(x)**2 - theta*h(x/2)**2 - h(x)) / (beta*x).

In tau = log x the right-hand side loses its explicit x dependence and the
delayed argument x/2 becomes the constant shift log 2, so a uniform tau grid
with spacing log(2)/m makes the delay land exactly m nodes back (method of
steps with exact delay alignment).  Classical 4-stage Runge-Kutta marches in
tau; half-step delayed values are read from history by cubic Hermite
interpolation, which keeps the interpolation error below the truncation
error of the integrator.  A march reads only the last delay interval (m+1
nodes) of the history it continues, and goes one delay interval at a time:
the interval's delayed squares and Hermite midpoints read only nodes written
before it, so they are formed as arrays, and only the Runge-Kutta stages run
step by step.  It ends at a given x_max, or by itself where the tail is
resolved.  A profile stores dh/dtau, the march's own variable, so no stage
converts it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._quad import hermite_eval
from .errors import (
    ConvergenceError,
    DomainError,
    MonotonicityError,
    PositivityError,
    RangeError,
)
from .params import SimilarityParams, make_params

_LN2 = math.log(2.0)

# Below this value the amplitude c is treated as zero (constant branch):
# monotonicity is then not required and equality with 1/(1-theta) is allowed.
_C_ZERO = 1e-300

NORMALIZE_TOL = 1e-12

# Hard cap on the total integration span, as octaves of the stored domain.
MAX_OCTAVES = 600


@dataclass(frozen=True)
class Profile:
    """Sampled profile h on a uniform grid in tau = log x.

    ``dh_values`` stores dh/dtau = x dh/dx, which a shift in tau leaves
    unchanged.  ``c`` is the bifurcation amplitude in the current gauge
    (rescaling x -> a*x maps c -> c*a**mu); ``z`` is the hand-off point below
    which the values came from the local expansion.
    Instances are immutable; share freely.
    """

    params: SimilarityParams
    m: int
    tau0: float
    h_values: np.ndarray
    dh_values: np.ndarray
    c: float
    z: float
    normalized: bool = False

    @property
    def dtau(self) -> float:
        return _LN2 / self.m

    @property
    def tau_grid(self) -> np.ndarray:
        return self.tau0 + self.dtau * np.arange(len(self.h_values))

    @property
    def x_values(self) -> np.ndarray:
        return np.exp(self.tau_grid)

    @property
    def x_min(self) -> float:
        return math.exp(self.tau0)

    @property
    def x_max(self) -> float:
        return math.exp(self.tau0 + self.dtau * (len(self.h_values) - 1))

    @property
    def g_values(self) -> np.ndarray:
        x = self.x_values
        return x ** (-(1.0 + self.params.gamma)) * self.h_values

    def h_at(self, x) -> np.ndarray | float:
        """Dense evaluation of h by cubic Hermite interpolation."""
        tau = np.log(np.asarray(x, dtype=float))
        return hermite_eval(tau, self.tau0, self.dtau, self.h_values, self.dh_values)

    def g_at(self, x) -> np.ndarray | float:
        x_arr = np.asarray(x, dtype=float)
        return x_arr ** (-(1.0 + self.params.gamma)) * self.h_at(x)


def rhs(
    x: float | np.ndarray,
    h_at_x: float | np.ndarray,
    h_at_half: float | np.ndarray,
    params: SimilarityParams,
) -> float | np.ndarray:
    """h'(x) of the delay equation given h(x) and h(x/2); elementwise on arrays."""
    theta = params.theta
    return (h_at_x * h_at_x - theta * h_at_half * h_at_half - h_at_x) / (params.beta * x)


def _resolvable_decrement(profile: Profile) -> np.ndarray:
    """Nodes where the true per-step decrement of h exceeds float resolution.

    Near the origin h approaches its limit like x**mu; once c*x**mu falls
    below the ulp of h the sampled values tie exactly and strictness cannot
    be observed in double precision.
    """
    step = np.abs(profile.dh_values)
    step *= profile.dtau
    floor = np.abs(profile.h_values)
    floor *= 64.0 * np.finfo(float).eps
    return step > floor


def check_invariants(profile: Profile) -> None:
    """Raise unless positivity and (for c > 0) monotone decrease hold.

    Monotonicity is strict wherever the decrement is resolvable in double
    precision; exact ties are tolerated where it is not (deep in the
    expansion region for large mu).  Node x is formed only to name a failure.
    """
    h = profile.h_values
    limit = 1.0 / (1.0 - profile.params.theta)
    bad = np.nonzero(~(h > 0.0))[0]
    if bad.size:
        x = float(profile.x_values[bad[0]])
        raise PositivityError(f"h <= 0 at x = {x:g}", x=x)
    if profile.c > _C_ZERO:
        resolvable = _resolvable_decrement(profile)
        bad = np.nonzero((h > limit) | ((h == limit) & resolvable))[0]
        if bad.size:
            raise DomainError(f"h >= 1/(1-theta) at x = {profile.x_values[bad[0]]:g}")
        diffs = np.diff(h)
        bad = np.nonzero((diffs > 0.0) | ((diffs == 0.0) & resolvable[:-1]))[0]
        if bad.size:
            x = float(profile.x_values[bad[0] + 1])
            raise MonotonicityError(f"h not strictly decreasing at x = {x:g}", x=x)
    else:
        if np.max(np.abs(h - limit)) > 1e-9 * limit:
            raise DomainError("constant-branch profile drifted from 1/(1-theta)")


def _check_nodes_per_octave(m: int) -> None:
    """Raise ``DomainError`` unless the march's grid has at least 32 nodes per octave."""
    if m < 32:
        raise DomainError(f"octave density m must be >= 32 nodes per octave; got {m}")


def _check_octaves(params: SimilarityParams, octaves: float, x: float | None = None) -> None:
    """Raise ``ConvergenceError`` when a profile needs more than ``MAX_OCTAVES``.

    ``x`` is the node a march has reached, carried by the error.
    """
    if octaves > MAX_OCTAVES:
        raise ConvergenceError(
            f"profile needs {octaves:.6g} octaves, more than the budget of {MAX_OCTAVES} "
            f"(gamma={params.gamma}, beta={params.beta})",
            x=x,
        )


def integrate(seed: Profile, x_max: float | None = None) -> Profile:
    """Continue a profile by the method of steps, with its parameters: to the first
    node at or past x_max, or, when x_max is None, to the stop rule.

    The rule is checked at the seed's end and at each delay-interval end, and
    holds at the first one at or past x = 2**40 z where h < 0.45 and, for a
    fat tail (c > 0, beta > beta_star), log2 x in the normalized gauge reaches
    ``tail.target_octaves(beta, d)`` of the d ``tail.estimate_d`` would
    return there; the constant branch stops at 2**40 z.  The h = 1/2
    crossing is found once, as ``normalize`` finds it.  A check that does not
    stop the march raises ``ConvergenceError`` if the stored octaves plus
    those still needed (the target at d = 1 before the crossing, the target
    minus the normalized log2 x after it) exceed ``MAX_OCTAVES``; its ``x``
    is the last node the march reached.

    The seed must carry at least one delay interval (m+1 nodes) of history.
    The nodes go into arrays preallocated to x_max (to 2**40 z without it,
    doubled as the stop rule needs), and are bit-identical to those of a
    march that re-reads the whole history (``tests/test_profile.py``), on a
    first call and on every continuation.  Monotonicity or positivity
    violations abort with the offending x; the step is too coarse, and
    nothing retries: pass a seed with a larger m.  A tail that reaches the
    double-precision floor (h <= 1e-250 and the next value zero or tied)
    ends the march there.
    """
    from . import tail  # deferred: tail imports this module

    m = seed.m
    _check_nodes_per_octave(m)
    n_have = len(seed.h_values)
    if n_have < m + 1:
        raise DomainError("seed history shorter than one delay interval")
    if x_max is not None and not seed.x_max < x_max < math.inf:
        raise DomainError(f"x_max must be finite and past the seed's x_max; got {x_max:g}")

    dtau = seed.dtau
    theta = seed.params.theta
    beta = seed.params.beta
    strict = seed.c > _C_ZERO
    fat = x_max is None and strict and not seed.params.degenerate
    need = tail.target_octaves(beta, 1.0) if fat else 0.0  # since d < 1
    tau0_normal = None  # tau0 of the normalized gauge, once h crosses 1/2

    tau_last = seed.tau0 + dtau * (n_have - 1)
    x_first = 2.0**40 * seed.z if x_max is None else x_max
    n_first = n_have + int(math.ceil((math.log(x_first) - tau_last) / dtau - 1e-12))
    h = np.empty(max(n_first, n_have))
    hd = np.empty(len(h))
    h[:n_have] = seed.h_values
    hd[:n_have] = seed.dh_values

    half = 0.5 * dtau
    eighth = dtau / 8.0
    sixth = dtau / 6.0
    hn = float(h[n_have - 1])
    h_b0 = float(h[n_have - 1 - m])
    # Stage k1 of a step is dh/dtau at its node: the seed's last node needs
    # it computed, every later node has it from the step that made it.
    k1 = (hn * hn - theta * h_b0 * h_b0 - hn) / beta
    n = n_have
    while n < n_first or x_max is None:
        if x_max is None:  # the stop rule, then the octave budget
            if fat and hn < 0.5:
                if tau0_normal is None:  # as ``normalize`` and ``rescale`` shift it
                    tau_half = _half_tau(h[:n], hd[:n], seed.tau0, dtau)
                    tau0_normal = seed.tau0 - math.log(math.exp(tau_half))
                x = math.exp(tau0_normal + dtau * (n - 1))
                need = tail.target_octaves(beta, x ** (1.0 / beta) * hn) - math.log2(x)
            if n >= n_first and (not strict or (hn < 0.45 and need <= 0.0)):
                break
            # stored octaves + needed; the error names the last node, in the seed's gauge
            _check_octaves(seed.params, (n - 1) / m + need, math.exp(seed.tau0 + dtau * (n - 1)))
        # One delay interval: its steps read only nodes written before it.
        steps = min(m, n_first - n) if n < n_first else m
        if n + steps > len(h):
            h = np.concatenate((h[:n], np.empty(len(h))))
            hd = np.concatenate((hd[:n], np.empty(len(hd))))
        lo = n - m - 1
        h_b = h[lo:lo + steps + 1]  # delayed nodes: h_b[k], h_b[k + 1] for step k
        hd_b = hd[lo:lo + steps + 1]
        q_b = theta * h_b
        q_b *= h_b
        # Hermite midpoints of the delayed history intervals.
        h_mid = h_b[:-1] + h_b[1:]
        h_mid *= 0.5
        slope = hd_b[:-1] - hd_b[1:]
        slope *= eighth
        h_mid += slope
        q_mid = theta * h_mid
        q_mid *= h_mid
        h_new = []
        hd_new = []
        put_h = h_new.append
        put_hd = hd_new.append
        for q_m, q_b1 in zip(q_mid.tolist(), q_b[1:].tolist()):
            hv = hn + half * k1
            k2 = (hv * hv - q_m - hv) / beta
            hv = hn + half * k2
            k3 = (hv * hv - q_m - hv) / beta
            hv = hn + dtau * k3
            k4 = (hv * hv - q_b1 - hv) / beta
            hnext = hn + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            if not (hnext > 0.0 and (hnext < hn or not strict)):
                # Double-precision floor: a decaying tail (power law or
                # exponential) underflows to zero or ties in subnormals;
                # truncate the march there.
                positive = hnext > 0.0
                node = n + len(h_new)  # the node this step would have made
                if hn <= 1e-250 and (not positive or hnext == hn):
                    break
                x_bad = math.exp(seed.tau0 + dtau * node)
                if not positive:
                    raise PositivityError(f"h lost positivity at x = {x_bad:g}", x=x_bad)
                raise MonotonicityError(f"h failed to decrease at x = {x_bad:g}", x=x_bad)
            hn = hnext
            k1 = (hnext * hnext - q_b1 - hnext) / beta
            put_h(hnext)
            put_hd(k1)
        done = len(h_new)
        h[n:n + done] = h_new
        hd[n:n + done] = hd_new
        n += done
        if done < steps:  # the double-precision floor
            break

    out = replace(seed, h_values=h[:n], dh_values=hd[:n])
    check_invariants(out)
    return out


def rescale(profile: Profile, a: float) -> Profile:
    """Apply the scaling invariance h(x) -> h(a*x): a pure shift in tau.

    The node values h and dh/dtau are unchanged; the grid, amplitude c and
    hand-off point z are re-expressed in the new gauge.  Raises
    ``DomainError`` unless a is finite and positive, and ``RangeError`` when
    the new gauge leaves the double range: c must stay finite and on its side
    of ``_C_ZERO`` (so the profile keeps its branch), z finite and normal.
    """
    if not 0.0 < a < math.inf:
        raise DomainError(f"rescale factor a must be finite and positive; got {a:g}")
    if a == 1.0:
        return profile
    mu = profile.params.mu
    try:
        c = profile.c * a**mu
    except OverflowError:
        c = math.inf
    z = profile.z / a
    same_branch = (c > _C_ZERO) == (profile.c > _C_ZERO)
    if not (c < math.inf and same_branch and np.finfo(float).tiny <= z < math.inf):
        raise RangeError(
            f"gauge factor a = {a:g} is out of floating-point range for this "
            f"profile: c = {c:g}, z = {z:g} (mu = {mu:g})"
        )
    return replace(
        profile,
        tau0=profile.tau0 - math.log(a),
        c=c,
        z=z,
        normalized=False,
    )


def _half_tau(h: np.ndarray, dh: np.ndarray, tau0: float, dtau: float) -> float:
    """tau where h crosses 1/2, by monotone bisection on the Hermite cubic, in scalar
    arithmetic, of the two nodes that bracket it on the grid tau0 + k dtau.
    Raises ``RangeError`` unless 1/2 is attained inside the stored domain."""
    if not (h[0] > 0.5 > h[-1]):
        raise RangeError(
            "h does not straddle 1/2 on the stored domain "
            f"[{math.exp(tau0):g}, {math.exp(tau0 + dtau * (len(h) - 1)):g}]; range "
            f"({h[-1]:g}, {h[0]:g})"
        )
    k = int(np.argmax(h < 0.5)) - 1  # h[k] >= 1/2 > h[k + 1]
    lo = tau0 + dtau * k
    hi = tau0 + dtau * (k + 1)
    h0, h1 = h[k:k + 2].tolist()
    d0, d1 = dh[k:k + 2].tolist()

    def eval_h(tau: float) -> float:
        s = (tau - tau0) / dtau - k
        s2 = s * s
        s3 = s2 * s
        return (
            h0 * (1.0 - 3.0 * s2 + 2.0 * s3)
            + h1 * (3.0 * s2 - 2.0 * s3)
            + dtau * (d0 * (s - 2.0 * s2 + s3) + d1 * (s3 - s2))
        )

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = eval_h(mid)
        if abs(val - 0.5) <= NORMALIZE_TOL:
            lo = hi = mid
            break
        if val > 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def normalize(profile: Profile) -> Profile:
    """Rescale so that h(1) = 1/2 (gauge fixing for the tail analysis), at the
    crossing ``_half_tau`` finds (extend x_max first when it raises
    ``RangeError``).  Of the profile, only tau0, c, z and ``normalized`` change."""
    tau_star = _half_tau(profile.h_values, profile.dh_values, profile.tau0, profile.dtau)
    out = rescale(profile, math.exp(tau_star))
    return replace(out, normalized=True)


# ---------------------------------------------------------------------------
# Serialization: CSV table plus a JSON metadata sidecar.

_CSV_HEADER = "x,h,g,dhdtau"
# Rows formatted per string operation by ``write_table``: large enough to
# spread the per-call cost, small enough that the text held at once stays
# a few hundred kilobytes whatever the table's length.
_TABLE_CHUNK_ROWS = 512


def write_table(path: str | Path, header: str, table: np.ndarray) -> None:
    """Write a float table as CSV: the header line, then rows at 17 digits.

    The bytes equal those of ``np.savetxt(path, table, fmt="%.17g",
    delimiter=",", header=header, comments="")``; the rows are formatted a
    chunk at a time with one ``%`` per chunk instead of one per row.
    """
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), _TABLE_CHUNK_ROWS):
            chunk = table[start:start + _TABLE_CHUNK_ROWS]
            fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


def sidecar_path(csv_path: str | Path) -> Path:
    p = Path(csv_path)
    return p.with_name(p.stem + ".meta.json")


def profile_metadata(profile: Profile) -> dict:
    return {
        "gamma": profile.params.gamma,
        "beta": profile.params.beta,
        "mu": profile.params.mu,
        "c": profile.c,
        "z": profile.z,
        "m": profile.m,
        "x_min": profile.x_min,
        "x_max": profile.x_max,
        "normalized": profile.normalized,
    }


def write_profile_csv(profile: Profile, path: str | Path) -> None:
    """Write the profile table (17 significant digits) and its sidecar."""
    table = np.column_stack(
        [profile.x_values, profile.h_values, profile.g_values, profile.dh_values]
    )
    write_table(path, _CSV_HEADER, table)
    sidecar_path(path).write_text(json.dumps(profile_metadata(profile), indent=2) + "\n")


def read_profile_csv(path: str | Path) -> Profile:
    """Reconstruct a profile from its CSV table and metadata sidecar.

    Raises ``DomainError`` when either file is missing or malformed: a
    sidecar that is not JSON, lacks a key, has an m that is not an integer
    >= 1 or a ``normalized`` that is not a boolean, a header that differs, a
    table with no data rows, a non-numeric or non-finite cell or x <= 0, a row
    without exactly four fields, or a profile that fails ``check_invariants``.
    """
    source = sidecar_path(path)  # the file being parsed, for the error message
    try:
        meta = json.loads(source.read_text())
        params = make_params(meta["gamma"], meta["beta"])
        m, normalized = meta["m"], meta["normalized"]
        if type(m) is not int or m < 1 or type(normalized) is not bool:
            raise DomainError(f"malformed profile file {source}: m = {m!r} must be a positive "
                              f"integer and normalized = {normalized!r} a boolean")
        c, z = float(meta["c"]), float(meta["z"])
        source = Path(path)
        with open(path) as fh:
            header = fh.readline().strip()
            has_rows = any(line.strip() for line in fh)  # stops at the first row
        if header != _CSV_HEADER:
            raise DomainError(f"unexpected profile CSV header in {source}: {header!r}, expected "
                              f"{_CSV_HEADER!r}; re-make the profile with `diagcoag profile`")
        if not has_rows:
            raise DomainError(f"malformed profile file {source}: the table has no data rows")
        # By name, not through the open handle: numpy parses a named file in
        # blocks, but iterates an open handle line by line, which is slower.
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] != 4:
            raise DomainError(f"malformed profile file {source}: rows of {data.shape[1]} fields, not 4")
        if not (np.isfinite(data).all() and (data[:, 0] > 0.0).all()):
            raise DomainError(f"malformed profile file {source}: a cell is not finite or x <= 0")
        tau = np.log(data[:, 0])
        if not np.allclose(np.diff(tau), _LN2 / m, rtol=0, atol=1e-9):
            raise DomainError("profile CSV grid is not uniform in log x at spacing ln2/m")
        profile = Profile(
            params=params,
            m=m,
            tau0=float(tau[0]),
            h_values=data[:, 1].copy(),
            dh_values=data[:, 3].copy(),
            c=c,
            z=z,
            normalized=normalized,
        )
        check_invariants(profile)
    except FileNotFoundError as exc:
        raise DomainError(f"profile file not found: {exc.filename}") from exc
    except DomainError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, MonotonicityError, PositivityError) as exc:
        # ValueError covers json's decode error and loadtxt's bad cells and rows,
        # the other two a table that fails ``check_invariants``.
        raise DomainError(f"malformed profile file {source}: {exc!r}") from exc
    return profile
