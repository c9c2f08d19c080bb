"""Per-entry membership subproblem for the sparsity-regularized algorithms.

For a single point/cluster pair the stationarity condition of the cost
in the membership u is

    f(u) = d + gamma * ln(u) + lam * p * u**(p-1) = 0,   u in (0, 1],

with d the squared distance. f has a unique interior minimum at
u_hat = [lam*p*(1-p)/gamma]**(1/(1-p)). If f(u_hat) >= 0 the cost is
increasing on (0,1] and the optimal membership is exactly 0. Otherwise
f has two roots and the larger one is the candidate; it is kept only if
it beats the zero solution, which reduces to the closed-form test
u2 > thr = (lam*(1-p)/gamma)**(1/(1-p)).

The larger root is found by Newton's method in t = ln u, where
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

from .core import ClusterModel, MembershipSolution, NumericalError

# With the threshold stop Newton needs under ten steps; the slowest case,
# a near-double root traced by solve_membership, needs about twenty.
_MAX_NEWTON = 100
_DEFAULT_TOL = 1e-10


def f_value(u, d, gamma, lam, p):
    """Derivative of the per-entry cost. Scalar or array in u; u must be > 0."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise ValueError("f_value is defined on u > 0 only")
    out = d + gamma * np.log(u) + lam * p * u ** (p - 1.0)
    return float(out) if out.ndim == 0 else out


def u_hat(gamma, lam, p):
    """Location of the interior minimum of f; 0 when lam = 0."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if lam == 0.0:
        return 0.0
    a = lam * p * (1.0 - p) / gamma
    return a ** (1.0 / (1.0 - p))


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


def _f_hat_closed(d, gamma, lam, p):
    """f evaluated at u_hat without forming u_hat**(p-1).

    Substituting u_hat gives d + gamma/(1-p) * (1 + ln A) with
    A = lam*p*(1-p)/gamma, which stays finite however small u_hat is.
    """
    a = lam * p * (1.0 - p) / gamma
    # a can underflow to 0 for vanishing lam; log(0) = -inf is the
    # correct limit (the minimum value is unbounded below) and only the
    # sign of the result is consumed.
    with np.errstate(divide="ignore"):
        return d + gamma / (1.0 - p) * (1.0 + np.log(a))


def _log_sparsity_threshold(gamma, lam, p):
    """ln of (lam*(1-p)/gamma)**(1/(1-p)), the value the root must exceed
    to beat the zero solution."""
    return (math.log(lam * (1.0 - p)) - np.log(gamma)) / (1.0 - p)


def _newton_log(d, gamma, t, t_stop, lam, p, tol):
    """Newton iteration in t = ln u for a root of
    f(t) = d + gamma*t + lam*p*e**((p-1)*t).

    All array arguments are equal-length 1-D arrays. f is convex, so
    from a start right of the larger root the iterates descend onto it,
    and from a start left of the smaller root they climb onto it; in
    neither case do they overshoot. An entry stops when
    |f| <= tol*(d+gamma+lam+1), or with result -inf as soon as its
    iterate falls to t_stop. Returns ln of the roots.
    """
    out = np.full(d.shape[0], -np.inf)
    ftol = tol * (d + gamma + lam + 1.0)
    sel = np.arange(d.shape[0])
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


def _solve_batch(d, gamma, lam, p, tol=_DEFAULT_TOL):
    """Vectorized memberships for a matrix of squared distances.

    d is N x m, gamma length m. Returns the N x m membership array.
    """
    d = np.asarray(d, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if lam == 0.0:
        return np.exp(-d / gamma[None, :])
    uh = np.array([u_hat(g, lam, p) for g in gamma])
    fhat = _f_hat_closed(d, gamma[None, :], lam, p)
    u = np.zeros_like(d)
    interior = (uh[None, :] < 1.0) & (fhat < 0.0)
    # Degenerate case: u_hat at or past 1. f(1) = d + lam*p > 0 always
    # (d >= 0, lam > 0), so there is no root in (0,1]; the boundary value
    # u = 1 is only preferable when the cost there is negative.
    boundary = uh[None, :] >= 1.0
    if boundary.any():
        g1 = d - gamma[None, :] + lam
        f1 = d + lam * p
        u[boundary & (f1 < 0.0) & (g1 < 0.0)] = 1.0
        interior &= ~boundary
    if interior.any():
        rows, cols = np.nonzero(interior)
        # f' >= gamma*(1-p) > 0 right of the threshold, so stopping there
        # keeps Newton off the flat bottom of f; a root at or below it
        # loses to the zero solution anyway.
        log_thr = _log_sparsity_threshold(gamma, lam, p)[cols]
        t = _newton_log(
            d[rows, cols], gamma[cols], np.zeros(rows.size), log_thr,
            lam, p, tol,
        )
        u[rows, cols] = np.where(t > log_thr, np.exp(t), 0.0)
    return u


def solve_membership(d, gamma, lam, p, tol=_DEFAULT_TOL) -> MembershipSolution:
    """Solve one membership entry, returning the full trace.

    Shares the batch code path entry-for-entry, so looping this over a
    matrix reproduces the vectorized update exactly.
    """
    if not np.isfinite(d) or d < 0:
        raise ValueError("d must be a finite nonnegative real")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0,1)")
    if lam == 0.0:
        return MembershipSolution(
            u_hat=0.0,
            f_at_u_hat=float("-inf"),
            root_low=None,
            root_high=None,
            chosen=math.exp(-d / gamma),
        )
    uh = u_hat(gamma, lam, p)
    fhat = float(_f_hat_closed(d, gamma, lam, p))
    chosen = float(
        _solve_batch(np.array([[d]]), np.array([gamma]), lam, p, tol)[0, 0]
    )

    def root_from(u0):
        t = _newton_log(
            np.array([d]), np.array([gamma]), np.array([math.log(u0)]),
            np.array([-np.inf]), lam, p, tol,
        )
        return float(np.exp(t[0]))

    root_low = None
    root_high = None
    if uh < 1.0 and fhat < 0.0:
        root_high = root_from(1.0)
        # the smaller root lives in (0, u_hat); walk down to a positive f.
        # u_hat can underflow to 0 for vanishing lam, in which case the
        # small root is below float range and stays unreported.
        lo = uh * 0.5
        while lo > 0.0 and f_value(lo, d, gamma, lam, p) <= 0.0:
            lo *= 0.5
        if lo > 0.0:
            root_low = root_from(lo)
    return MembershipSolution(
        u_hat=uh, f_at_u_hat=fhat, root_low=root_low, root_high=root_high,
        chosen=chosen,
    )


def update_memberships(d: np.ndarray, model: ClusterModel) -> np.ndarray:
    """Solve every entry of the N x m membership matrix for the squared
    distances d to the model's representatives."""
    return _solve_batch(d, model.gamma, model.lam, model.p)
