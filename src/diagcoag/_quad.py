"""Cumulative quadrature on uniform logarithmic grids.

All integrals in this package are taken over geometric grids, i.e. uniform
grids in tau = log x.  The workhorse is the trapezoid rule with the leading
Euler-Maclaurin endpoint correction,

    int phi dtau ~ trapz(phi) - dtau^2/12 * (phi'(b) - phi'(a)),

which is exact for cubics, telescopes into cumulative form, and upgrades the
composite rule to fourth order whenever the integrand derivative is known
(analytically or from a second-order finite difference).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def cumtrapz_corrected(
    phi: np.ndarray, dphi: np.ndarray, dtau: float, out: np.ndarray
) -> np.ndarray:
    """Cumulative integral of phi over [tau_0, tau_i] for every node i, into ``out``.

    ``dphi`` holds d(phi)/dtau at the nodes and is consumed: the end
    correction is formed in its place.  ``out`` has phi's shape and is
    returned; its entry 0 is 0.  No full-size temporary is allocated.
    Stacked integrands (nodes along the last axis) are integrated row by row.
    """
    out[..., 0] = 0.0
    np.add(phi[..., 1:], phi[..., :-1], out=out[..., 1:])
    np.add.accumulate(out[..., 1:], axis=-1, out=out[..., 1:])
    out *= 0.5 * dtau  # entry 0 stays 0: one pass over the whole array
    dphi -= dphi[..., :1].copy()  # a copy: an overlapping operand copies all of dphi
    dphi *= dtau * dtau / 12.0
    out -= dphi
    return out


def hermite_eval(
    tau: np.ndarray | float,
    tau0: float,
    dtau: float,
    values: np.ndarray,
    dvalues: np.ndarray,
) -> np.ndarray | float:
    """Cubic Hermite evaluation on a uniform grid.

    ``values``/``dvalues`` are the nodal values and tau-derivatives; queries
    outside the grid raise ``DomainError`` (no extrapolation).
    """
    t = np.asarray(tau, dtype=float)
    pos = (t - tau0) / dtau
    n = len(values)
    if np.any(pos < -1e-9) or np.any(pos > n - 1 + 1e-9):
        raise DomainError("hermite_eval: query outside stored grid")
    k = np.clip(np.floor(pos).astype(int), 0, n - 2)
    out = hermite_cubic(pos - k, values[k], values[k + 1], dvalues[k], dvalues[k + 1], dtau)
    if np.isscalar(tau):
        return float(out)
    return out


def hermite_cubic(s, h0, h1, d0, d1, dtau: float):
    """The cubic Hermite interpolant at s in [0, 1] of one grid cell of width ``dtau``,
    from its end values h0, h1 and tau-derivatives d0, d1; floats or arrays alike."""
    s2 = s * s
    s3 = s2 * s
    return (
        h0 * (1.0 - 3.0 * s2 + 2.0 * s3)
        + h1 * (3.0 * s2 - 2.0 * s3)
        + dtau * (d0 * (s - 2.0 * s2 + s3) + d1 * (s3 - s2))
    )
