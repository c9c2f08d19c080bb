"""Per-entry membership subproblem for the sparsity-regularized algorithms.

For a single point/cluster pair the stationarity condition of the cost
in the membership u is

    f(u) = d + gamma * ln(u) + lam * p * u**(p-1) = 0,   u in (0, 1],

with d the squared distance. f has a unique interior minimum at
u_hat = [lam*p*(1-p)/gamma]**(1/(1-p)). If f(u_hat) >= 0 the cost is
increasing on (0,1] and the optimal membership is exactly 0. Otherwise
f has two roots and the larger one, found by bisection on (u_hat, 1],
is the candidate; it is kept only if it beats the zero solution, which
reduces to the closed-form test u2 > (lam*(1-p)/gamma)**(1/(1-p)).

With lam = 0 everything collapses to the classical exponential
membership exp(-d/gamma).
"""

from __future__ import annotations

import math

import numpy as np

from .core import ClusterModel, MembershipSolution, NumericalError

# Enough halvings to collapse [tiny, 1] to one float spacing: the root
# e**(-d/gamma) can sit arbitrarily deep in the subnormals, and each
# pass drops entries as they converge, so the ceiling only matters for
# those stragglers.
_MAX_BISECT = 1200
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


def _sparsity_threshold(gamma, lam, p):
    """The root must exceed this to beat the zero solution."""
    return (lam * (1.0 - p) / gamma) ** (1.0 / (1.0 - p))


def _bisect_batch(d, gamma, lo, hi, lam, p, tol):
    """Bisection for the larger root of f on per-entry brackets.

    All arguments are equal-length 1-D arrays except lam, p, tol. The
    bracket must satisfy f(lo) < 0 < f(hi). Iterates until
    |f(mid)| <= tol*(d+gamma+lam+1) or the bracket hits float spacing.
    """
    n = d.shape[0]
    root = np.full(n, np.nan)
    if n == 0:
        return root
    scale = d + gamma + lam + 1.0
    sel = np.arange(n)
    lo = lo.copy()
    hi = hi.copy()
    de, ge, sc = d.copy(), gamma.copy(), scale.copy()
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        logmid = np.log(mid)
        fm = de + ge * logmid + lam * p * np.exp((p - 1.0) * logmid)
        done = (np.abs(fm) <= tol * sc) | (mid <= lo) | (mid >= hi)
        if done.any():
            root[sel[done]] = mid[done]
        keep = ~done
        if not keep.any():
            return root
        neg = fm < 0.0
        lo = np.where(neg, mid, lo)[keep]
        hi = np.where(neg, hi, mid)[keep]
        sel, de, ge, sc = sel[keep], de[keep], ge[keep], sc[keep]
    raise NumericalError(
        f"bisection did not converge for {sel.size} entries",
        bracket=(float(lo[0]), float(hi[0])),
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
    # Degenerate bracket: u_hat at or past 1. f(1) = d + lam*p > 0 always
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
        roots = _bisect_batch(
            d[rows, cols],
            gamma[cols],
            uh[cols],
            np.ones(rows.size),
            lam,
            p,
            tol,
        )
        thr = _sparsity_threshold(gamma[cols], lam, p)
        u[rows, cols] = np.where(roots > thr, roots, 0.0)
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
    root_low = None
    root_high = None
    if uh < 1.0 and fhat < 0.0:
        root_high = float(
            _bisect_batch(
                np.array([d]), np.array([gamma]), np.array([uh]),
                np.array([1.0]), lam, p, tol,
            )[0]
        )
        # the smaller root lives in (0, u_hat); walk down to a positive f.
        # u_hat can underflow to 0 for vanishing lam, in which case the
        # small root is below float range and stays unreported.
        lo = uh * 0.5
        while lo > 0.0 and f_value(lo, d, gamma, lam, p) <= 0.0:
            lo *= 0.5
        if lo > 0.0:
            root_low = _bisect_down(lo, uh, d, gamma, lam, p, tol)
    return MembershipSolution(
        u_hat=uh, f_at_u_hat=fhat, root_low=root_low, root_high=root_high,
        chosen=chosen,
    )


def _bisect_down(lo, hi, d, gamma, lam, p, tol):
    """Bisection for the smaller root, where f(lo) > 0 > f(hi)."""
    scale = d + gamma + lam + 1.0
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        fm = d + gamma * math.log(mid) + lam * p * mid ** (p - 1.0)
        if abs(fm) <= tol * scale or mid <= lo or mid >= hi:
            return float(mid)
        if fm > 0.0:
            lo = mid
        else:
            hi = mid
    raise NumericalError("bisection did not converge", bracket=(lo, hi))


def update_memberships(d: np.ndarray, model: ClusterModel) -> np.ndarray:
    """Solve every entry of the N x m membership matrix for the squared
    distances d to the model's representatives."""
    return _solve_batch(d, model.gamma, model.lam, model.p)
