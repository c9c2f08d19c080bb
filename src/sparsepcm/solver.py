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
exponential membership exp(-d/gamma). A caller that solves again and
again, as the main loop does, hands it a column-major result array to
solve in; the solve allocates its own temporaries.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConfigurationError


def compute_lambda(gamma_min, p, K):
    """Sparsity weight putting the zero-membership radius just past gamma_min.

    K * gamma_min * e**(p-2) / (p*(1-p)). With K slightly below 1 the
    smallest-scale cluster keeps nonzero memberships exactly for points
    with d a bit beyond gamma_min; K = 0 disables sparsity.
    """
    if not 0.0 < gamma_min < math.inf:
        raise ConfigurationError("gamma_min must be positive and finite")
    if not 0.0 < p < 1.0:
        raise ConfigurationError("p must lie in (0,1)")
    if not 0.0 <= K < 1.0:
        raise ConfigurationError("K must lie in [0,1)")
    return K * gamma_min * math.exp(p - 2.0) / (p * (1.0 - p))


def _lambert_w0(z):
    """Principal branch W0 of w*e**w = z for an array z in (-1/e, 0].

    Starts from the branch-point series for z < -0.25 and from z*(1 - z)
    elsewhere, then takes three Halley steps. They reach the accuracy
    the equation allows: a few ulps, growing like eps/(1 + w) next to the
    branch point at z = -1/e, w = -1.

    One (5, z.size) array holds the result (its first row) and the
    temporaries. Each step is
    w - f / (ew*(w+1) - (w+2)*f/(2*w+2)) with f = w*ew - z, evaluated
    in place one operation at a time, operands swapped only where the
    operation commutes, so the result has the expression's bits.
    """
    w, ew, f, t, g = np.empty((5, z.size))
    # s = sqrt(2*(e*z + 1)) in t, the series s*(1 - s/3) - 1 in ew
    np.multiply(z, math.e, out=t)
    t += 1.0
    t *= 2.0
    np.sqrt(t, out=t)
    np.divide(t, 3.0, out=ew)
    np.subtract(1.0, ew, out=ew)
    ew *= t
    ew -= 1.0
    np.subtract(1.0, z, out=w)
    w *= z
    np.copyto(w, ew, where=z < -0.25)
    for _ in range(3):
        np.exp(w, out=ew)
        np.multiply(w, ew, out=f)
        f -= z
        np.add(w, 1.0, out=t)
        t *= ew
        np.add(w, 2.0, out=g)
        g *= f
        np.multiply(w, 2.0, out=ew)
        ew += 2.0
        g /= ew
        t -= g
        f /= t
        w -= f
    return w


def update_memberships(d: np.ndarray, gamma: np.ndarray, lam: float, p: float,
                       out=None) -> np.ndarray:
    """Solve every entry of the N x m membership matrix for the squared
    distances d, the m scales gamma, the sparsity weight lam and the norm
    exponent p.

    The memberships go into out, an F-contiguous N x m float64 array,
    which is returned; without out they go into a new column-major one.
    d may be in either order. The solve runs in out; d is left unchanged.
    Every entry is computed by the same operations whatever the buffer and
    d's layout, so it has the same bits.
    """
    d = np.asarray(d, dtype=float)
    if out is None:
        out = np.empty(d.shape, order="F")
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64
              and out.shape == d.shape and out.flags.writeable
              and out.flags.f_contiguous):
        # the flat view of out below would be a copy, and the solve lost
        raise ConfigurationError(
            f"out must be a writeable F-contiguous float64 array of shape {d.shape}")
    q = 1.0 - p
    # out holds r = d/gamma until the kept entries are solved. d/gamma past
    # float range is the exact limit of a zero membership. lam*p*q/gamma
    # can underflow to 0 for vanishing lam; ln 0 = -inf is the correct
    # limit and gives z = -0, W0 = 0, u = exp(-r)
    with np.errstate(over="ignore", divide="ignore"):
        r = np.divide(d, gamma[None, :], out=out)
        log_c = np.log(lam * p * q / gamma)[None, :]
    if lam == 0.0:
        np.negative(r, out=r)
        np.exp(r, out=r)
    else:
        log_mz = np.multiply(q, r, order="F")
        log_mz += log_c
        # from here on log_mz and out are flat views, column by column, so
        # one flat index addresses both
        log_mz, flat = log_mz.ravel(order="F"), out.ravel(order="F")
        keep = (log_mz < math.log(p) - p).nonzero()[0]
        z = log_mz.take(keep)
        np.exp(z, out=z)
        np.negative(z, out=z)
        w = _lambert_w0(z)
        w /= q
        w -= flat.take(keep)
        np.exp(w, out=w)
        out.fill(0.0)
        flat[keep] = w
    return out
