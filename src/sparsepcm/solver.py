"""Membership update for the sparsity-regularized algorithms.

For a single point/cluster pair the stationarity condition of the cost
in the membership u is

    f(u) = d + gamma * ln(u) + lam * p * u**(p-1) = 0,   u in (0, 1],

with d the squared distance. With q = 1 - p and r = d/gamma, the
substitution w = q*(ln u + r) turns it into w*e**w = z with

    z = -(lam*p*q/gamma) * e**(q*r),

so the roots are u = exp(w/q - r) over the real branches of the Lambert
W function (Corless, Gonnet, Hare, Jeffrey & Knuth, "On the Lambert W
function", Adv. Comput. Math. 5 (1996) 329-359). The larger root is the
principal branch W0, which exists for z >= -1/e. It beats the zero
solution exactly when W0(z) > -p, that is when

    ln(-z) = ln(lam*p*q/gamma) + q*r < ln(p) - p;

otherwise the optimal membership is exactly 0. Since p*e**(-p) < 1/e the
test also settles whether a root exists, and every kept entry has
W0(z) in (-p, 0], away from the branch point at -1. Both the test and
the value depend only on d/gamma and lam/gamma, so the solve has no
tolerance and no units.

update_memberships(d, gamma, lam, p) solves every entry of an N x m
matrix at once from the squared distances alone; it never reads the
representatives. With lam = 0 everything collapses to the classical
exponential membership exp(-d/gamma).
"""

from __future__ import annotations

import math

import numpy as np


def compute_lambda(gamma_min, p, K):
    """Sparsity weight putting the zero-membership radius just past gamma_min.

    K * gamma_min * e**(p-2) / (p*(1-p)). With K slightly below 1 the
    smallest-scale cluster keeps nonzero memberships exactly for points
    with d a bit beyond gamma_min; K = 0 disables sparsity.
    """
    if gamma_min <= 0:
        raise ValueError("gamma_min must be positive")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0,1)")
    if not 0.0 <= K < 1.0:
        raise ValueError("K must lie in [0,1)")
    return K * gamma_min * math.exp(p - 2.0) / (p * (1.0 - p))


def _lambert_w0(z):
    """Principal branch W0 of w*e**w = z for an array z in (-1/e, 0].

    Starts from the branch-point series for z < -0.25 and from z*(1 - z)
    elsewhere, then takes three Halley steps. They reach the accuracy
    the equation allows: a few ulps, growing like eps/(1 + w) next to the
    branch point at z = -1/e, w = -1.
    """
    s = np.sqrt(2.0 * (math.e * z + 1.0))
    w = np.where(z < -0.25, s * (1.0 - s / 3.0) - 1.0, z * (1.0 - z))
    for _ in range(3):
        ew = np.exp(w)
        f = w * ew - z
        w = w - f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
    return w


def update_memberships(d: np.ndarray, gamma: np.ndarray, lam: float, p: float) -> np.ndarray:
    """Solve every entry of the N x m membership matrix for the squared
    distances d, the m scales gamma, the sparsity weight lam and the norm
    exponent p."""
    d = np.asarray(d, dtype=float)
    # d/gamma past float range is the exact limit of a zero membership
    with np.errstate(over="ignore"):
        r = d / gamma[None, :]
    if lam == 0.0:
        return np.exp(-r)
    q = 1.0 - p
    # lam*p*q/gamma can underflow to 0 for vanishing lam; ln 0 = -inf is
    # the correct limit and gives z = -0, W0 = 0, u = exp(-r)
    with np.errstate(divide="ignore"):
        log_mz = np.log(lam * p * q / gamma)[None, :] + q * r
    keep = log_mz < math.log(p) - p
    u = np.zeros_like(d)
    w = _lambert_w0(-np.exp(log_mz[keep]))
    u[keep] = np.exp(w / q - r[keep])
    return u
