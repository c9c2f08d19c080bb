"""Membership update for the sparsity-regularized algorithms.

For a single point/cluster pair the stationarity condition of the cost
in the membership u is

    f(u) = d + gamma * ln(u) + lam * p * u**(p-1) = 0,   u in (0, 1],

with d the squared distance. f has a unique minimum at
u_hat = a**(1/(1-p)) with a = lam*p*(1-p)/gamma, where it takes the value
f(u_hat) = d + gamma/(1-p) * (1 + ln a). If f(u_hat) >= 0 the cost is
nondecreasing and the optimal membership is exactly 0; this includes
every u_hat >= 1, since then a >= 1 and f(u_hat) > d. Otherwise a < 1/e,
so u_hat < 1, and with f(1) = d + lam*p > 0 f has two roots, the larger
one in (u_hat, 1). That root is the candidate; it is kept only if it
beats the zero solution, which reduces to the closed-form test
u2 > thr = (lam*(1-p)/gamma)**(1/(1-p)).

update_memberships solves every entry of an N x m matrix at once. The
larger root is found by Newton's method in t = ln u, where
f(t) = d + gamma*t + lam*p*e**((p-1)*t) is convex with f(0) > 0: started
at t = 0 the iterates descend monotonically onto the root, with no
bracket. An iterate that falls to ln(thr) settles the entry as 0, since
the root lies below it.

With lam = 0 everything collapses to the classical exponential
membership exp(-d/gamma).
"""

from __future__ import annotations

import math

import numpy as np

from .core import ClusterModel, NumericalError

# With the threshold stop Newton needs under ten steps; the cap turns a
# runaway iteration into an error instead of an endless loop.
_MAX_NEWTON = 100
# an entry is solved once |f| <= _TOL * (d + gamma + lam + 1)
_TOL = 1e-10


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


def _log_sparsity_threshold(gamma, lam, p):
    """ln of (lam*(1-p)/gamma)**(1/(1-p)), the value the root must exceed
    to beat the zero solution."""
    return (math.log(lam * (1.0 - p)) - np.log(gamma)) / (1.0 - p)


def _newton_log(d, gamma, t_stop, lam, p):
    """Newton iteration in t = ln u for the larger root of
    f(t) = d + gamma*t + lam*p*e**((p-1)*t).

    All array arguments are equal-length 1-D arrays. f is convex with
    f(0) > 0, so from t = 0 the iterates descend onto the larger root
    without overshooting it. An entry stops when
    |f| <= _TOL*(d+gamma+lam+1), or with result -inf as soon as its
    iterate falls to t_stop. Returns ln of the roots.
    """
    out = np.full(d.shape[0], -np.inf)
    ftol = _TOL * (d + gamma + lam + 1.0)
    sel = np.arange(d.shape[0])
    t = np.zeros(d.shape[0])
    c = lam * p
    for _ in range(_MAX_NEWTON):
        e = c * np.exp((p - 1.0) * t)
        f = d + gamma * t + e
        done = np.abs(f) <= ftol
        out[sel[done]] = t[done]
        t = t - f / (gamma - (1.0 - p) * e)
        keep = ~done & (t > t_stop)
        if not keep.any():
            return out
        sel, d, gamma, ftol, t, t_stop = (
            sel[keep], d[keep], gamma[keep], ftol[keep], t[keep], t_stop[keep]
        )
    raise NumericalError(
        f"Newton iteration did not converge for {sel.size} entries"
    )


def update_memberships(d: np.ndarray, model: ClusterModel) -> np.ndarray:
    """Solve every entry of the N x m membership matrix for the squared
    distances d to the model's representatives."""
    d = np.asarray(d, dtype=float)
    gamma, lam, p = model.gamma, model.lam, model.p
    if lam == 0.0:
        return np.exp(-d / gamma[None, :])
    a = lam * p * (1.0 - p) / gamma
    # f(u_hat) in closed form, finite however small u_hat is. a can
    # underflow to 0 for vanishing lam; log(0) = -inf is the correct
    # limit and only the sign is used.
    with np.errstate(divide="ignore"):
        fhat = d + gamma / (1.0 - p) * (1.0 + np.log(a))
    interior = fhat < 0.0
    u = np.zeros_like(d)
    if interior.any():
        rows, cols = np.nonzero(interior)
        # f' >= gamma*(1-p) > 0 right of the threshold, so stopping there
        # keeps Newton off the flat bottom of f; a root at or below it
        # loses to the zero solution anyway.
        log_thr = _log_sparsity_threshold(gamma, lam, p)[cols]
        t = _newton_log(d[rows, cols], gamma[cols], log_thr, lam, p)
        u[rows, cols] = np.where(t > log_thr, np.exp(t), 0.0)
    return u
