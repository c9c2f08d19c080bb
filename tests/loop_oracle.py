"""Reference main loop that allocates fresh arrays at every step.

This is the plain form of sparsepcm.algorithms.run: each iteration builds
its distance matrix, its memberships and every temporary of the
membership solve anew, column-major as the production loop's, and the
solve is written as whole-array expressions. The production loop writes
its distances and memberships into the two buffers of its FCM run, and
its solve allocates only its own temporaries, with the same arithmetic
on every entry and the same column sums, so the two must agree bit for
bit. The loop is built from the package's public functions; only the
steps that write into those buffers, the membership solve and the theta
update, are spelled out here, and the scales come from
bookkeeping_oracle's grouped form, one N x l pass.
"""

import math
import time

import numpy as np

from sparsepcm.algorithms import (
    assign_labels,
    eliminate_clusters,
    remove_duplicates,
)
from sparsepcm.core import DegenerateRunError, IterationRecord, RunReport, squared_distances
from sparsepcm.fcm import eta_init_sapcm, gamma_init_pcm, run_fcm
from sparsepcm.metrics import score
from sparsepcm.solver import compute_lambda

from bookkeeping_oracle import adapt_eta_grouped


def lambert_w0(z):
    """W0 on (-1/e, 0]: the branch-point series or z*(1 - z), then three
    Halley steps, each a fresh array."""
    s = np.sqrt(2.0 * (math.e * z + 1.0))
    w = np.where(z < -0.25, s * (1.0 - s / 3.0) - 1.0, z * (1.0 - z))
    for _ in range(3):
        ew = np.exp(w)
        f = w * ew - z
        w = w - f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
    return w


def memberships(d, gamma, lam, p):
    """The N x m sparse memberships, in d's layout, through boolean-mask
    gathers and scatters of fresh arrays."""
    with np.errstate(over="ignore"):
        r = d / gamma[None, :]
    if lam == 0.0:
        return np.exp(-r)
    q = 1.0 - p
    with np.errstate(divide="ignore"):
        log_mz = np.log(lam * p * q / gamma)[None, :] + q * r
    keep = log_mz < math.log(p) - p
    u = np.zeros_like(d)
    w = lambert_w0(-np.exp(log_mz[keep]))
    u[keep] = np.exp(w / q - r[keep])
    return u


def update_theta(u, data, live):
    """Membership-weighted means of the live columns of u."""
    return (u.T @ data.points)[live] / u.sum(axis=0)[live, None]


def run(data, config):
    """The RunReport of algorithms.run(data, config), wall_time aside."""
    t0 = time.perf_counter()
    adaptive = config.algorithm in ("sapcm", "apcm")
    fcm = run_fcm(data, config.m_ini, config.theta_tol, seed=config.seed)
    if adaptive:
        eta = eta_init_sapcm(fcm)
        eta_hat = float(eta.min())
        gamma = eta_hat * eta / config.alpha
    else:
        gamma = gamma_init_pcm(fcm)
    theta = fcm.theta
    lam = compute_lambda(float(gamma.min()), config.p, config.K)
    history = []
    for t in range(config.max_iter):
        u = memberships(squared_distances(data, theta), gamma, lam, config.p)
        if adaptive:
            labels = assign_labels(u)
            live = np.bincount(labels, minlength=len(gamma) + 1)[1:] > 0
        else:
            live = u.sum(axis=0) > 0.0
        if not live.any():
            raise DegenerateRunError("every membership is zero")
        new_theta = update_theta(u, data, live)
        move = float(np.sqrt(np.square(new_theta - theta[live]).sum(axis=1)).max())
        history.append(IterationRecord(iteration=t, theta=theta, gamma=gamma, lam=lam,
                                       m=len(gamma), max_move=move))
        theta, gamma = new_theta, gamma[live]
        if adaptive:
            labels = eliminate_clusters(labels, live)
            eta = adapt_eta_grouped(data, labels, len(theta), 1e-3 * config.theta_tol)
            gamma = eta_hat * eta / config.alpha
            lam = compute_lambda(float(gamma.min()), config.p, config.K)
        if move < config.theta_tol:
            break
    if not adaptive:
        keep = remove_duplicates(theta, gamma)
        theta, gamma = theta[keep], gamma[keep]
    u = memberships(squared_distances(data, theta), gamma, lam, config.p)
    labels = assign_labels(u)
    return RunReport(
        algorithm=config.algorithm, m_ini=config.m_ini, m_final=len(gamma),
        iterations=len(history), converged=bool(move < config.theta_tol),
        fcm_iterations=fcm.iterations, fcm_converged=fcm.converged,
        wall_time=time.perf_counter() - t0, theta_final=theta, gamma_final=gamma,
        lam_final=lam, labels_final=labels, seed=config.seed,
        metrics=score(data, labels, theta), history=history, memberships=u,
    )
