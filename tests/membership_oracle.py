"""Per-entry reference for the sparse membership solve.

The solver answers one (d, gamma, lam, p) entry only as part of a
matrix. These helpers state the subproblem from scratch, for lam > 0:
the cost's derivative

    f(u) = d + gamma * ln(u) + lam * p * u**(p-1),

its interior minimum u_hat, the sparsity threshold the larger root must
exceed to beat u = 0, and that root itself, found by scipy's brentq on
the bracket [u_hat, 1]. No root-finding code is shared with the solver.
"""

import math

import numpy as np
from scipy.optimize import brentq

from sparsepcm.solver import update_memberships


def f(u, d, gamma, lam, p):
    """Derivative of the per-entry cost at u > 0."""
    return d + gamma * math.log(u) + lam * p * u ** (p - 1.0)


def u_hat(gamma, lam, p):
    """Where f has its minimum; f decreases left of it and increases right."""
    return (lam * p * (1.0 - p) / gamma) ** (1.0 / (1.0 - p))


def threshold(gamma, lam, p):
    """The smallest nonzero membership that beats the zero solution."""
    return (lam * (1.0 - p) / gamma) ** (1.0 / (1.0 - p))


def larger_root(d, gamma, lam, p):
    """The larger root of f in (0, 1], or None when f has no root there.

    f(1) = d + lam*p > 0, so [u_hat, 1] brackets the root exactly when
    u_hat < 1 and f(u_hat) < 0.
    """
    lo = u_hat(gamma, lam, p)
    if lo >= 1.0 or f(lo, d, gamma, lam, p) >= 0.0:
        return None
    return brentq(f, lo, 1.0, args=(d, gamma, lam, p), xtol=1e-15)


def chosen(d, gamma, lam, p):
    """The membership the production solver gives the single entry."""
    u = update_memberships(np.array([[d]], dtype=float), np.array([gamma], dtype=float), lam, p)
    return float(u[0, 0])
