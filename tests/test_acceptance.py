"""Acceptance gate: nine numbered criteria, one summary line each.

Every test computes its full battery first, records an "ACCEPTANCE n:"
line through the session log (printed in the terminal summary), and
only then asserts. Criteria 4 to 8 run on regenerated draws of the
benchmark generators, so they are tolerance bands around historical
single-draw reference results rather than bit-exact targets; the
conforming-seed bar is 8/10 for ten-seed batteries and 4/5 for
five-seed batteries, fixed before measurement.
"""

import time

import numpy as np

import membership_oracle
import test_properties as props
from reference_tables import GAMMA_INIT, INIT, PCM_ITER8, SPCM_ITER5
from sparsepcm.algorithms import AlgoConfig, run
from sparsepcm.core import ClusterModel, squared_distances
from sparsepcm.datagen import make_fixture
from sparsepcm.fcm import run_fcm
from sparsepcm.solver import compute_lambda, update_memberships

_STEP = 1e-6
_NGRID = 1_000_000  # grid points u = k * _STEP, k = 0.._NGRID
_N_TUPLES = 10_000


def _draw_tuples(n=_N_TUPLES, seed=20260813):
    """Random (d, gamma, lam, p) covering the solver's working range.

    gamma log-uniform over [0.05, 5]; lam always derived from (gamma,
    p, K) the same way the algorithms derive it; d spans d/gamma ratios
    from 1e-3 to 30 plus a slice of exact zeros.
    """
    rng = np.random.default_rng(seed)
    gamma = np.exp(rng.uniform(np.log(0.05), np.log(5.0), size=n))
    p = rng.uniform(0.15, 0.85, size=n)
    K = rng.uniform(0.05, 0.95, size=n)
    lam = np.array([compute_lambda(g, pp, kk) for g, pp, kk in zip(gamma, p, K)])
    ratio = np.exp(rng.uniform(np.log(1e-3), np.log(30.0), size=n))
    d = gamma * ratio
    d[rng.random(n) < 0.10] = 0.0
    return d, gamma, lam, p


def _g_on_grid(k, d, gamma, lam, p):
    """Per-entry objective on grid indices k >= 1 (k = 0 has value 0)."""
    u = k * _STEP
    return d * u + gamma * (u * np.log(u) - u) + lam * u**p


def _block_bound(a_k, b_k, d, gamma, lam, p):
    """Lower bound of the objective over grid blocks [a_k, b_k].

    The objective splits into d*u and lam*u**p (nondecreasing, minimal
    at the left edge) plus gamma*(u ln u - u) (decreasing on (0, 1],
    minimal at the right edge), so the sum of the three edge values can
    never exceed any value inside the block.
    """
    a = a_k * _STEP
    b = b_k * _STEP
    return d * a + lam * a**p + gamma * (b * np.log(b) - b)


def _grid_argmin_pruned(d, gamma, lam, p, block=1000, sub=25):
    """Exact argmin index over the full grid, skipping provably losing
    blocks. Ties resolve to the lowest index, like a literal scan."""
    ks = [np.array([0])]
    vs = [np.array([0.0])]
    edges = np.arange(0, _NGRID + 1, block)
    ge = _g_on_grid(edges[1:], d, gamma, lam, p)
    ks.append(edges[1:])
    vs.append(ge)
    best = min(0.0, float(ge.min()))
    slack = 1e-12 * (abs(best) + 1.0)

    lb = _block_bound(edges[:-1], edges[1:], d, gamma, lam, p)
    starts = edges[:-1][lb <= best + slack]
    if starts.size:
        sub_edges = (starts[:, None] + np.arange(0, block + 1, sub)).ravel()
        sub_edges = sub_edges[sub_edges > 0]
        gs = _g_on_grid(sub_edges, d, gamma, lam, p)
        ks.append(sub_edges)
        vs.append(gs)
        best = min(best, float(gs.min()))
        slack = 1e-12 * (abs(best) + 1.0)

        sa = (starts[:, None] + np.arange(0, block, sub)).ravel()
        lb2 = _block_bound(sa, sa + sub, d, gamma, lam, p)
        sa = sa[lb2 <= best + slack]
        if sa.size:
            fine = (sa[:, None] + np.arange(0, sub + 1)).ravel()
            fine = fine[fine > 0]
            ks.append(fine)
            vs.append(_g_on_grid(fine, d, gamma, lam, p))

    ks = np.concatenate(ks)
    vs = np.concatenate(vs)
    return int(ks[vs == vs.min()].min())


def _grid_argmin_literal(d, gamma, lam, p, chunk=250_000):
    """The same argmin by brute force over every grid point."""
    best_k, best_v = 0, 0.0
    for lo in range(1, _NGRID + 1, chunk):
        k = np.arange(lo, min(lo + chunk, _NGRID + 1))
        g = _g_on_grid(k, d, gamma, lam, p)
        i = int(np.argmin(g))
        if g[i] < best_v:
            best_v, best_k = float(g[i]), int(k[i])
    return best_k


def _aligned(u, theta, ref):
    """Reorder membership columns by representative x so they line up
    with the reference tables (left cluster first)."""
    order = np.argsort(theta[:, 0])
    return u[:, order], ref


def _recomputed_memberships(data, report, p=0.5):
    model = ClusterModel(
        theta=report.theta_final, gamma=report.gamma_final,
        lam=report.lam_final, p=p,
    )
    return update_memberships(squared_distances(data, report.theta_final), model)


def test_acceptance_1_solver_matches_grid_oracle(acceptance_log):
    """Criterion 1: the membership solver agrees with a brute-force
    argmin of the per-entry objective on a step-1e-6 grid, |du| <= 1e-4
    over at least 10,000 randomized tuples, in under a minute. The
    pruned oracle is itself checked against the literal full scan on a
    subsample."""
    t0 = time.perf_counter()
    d, gamma, lam, p = _draw_tuples()

    chosen = np.array([membership_oracle.chosen(*t) for t in zip(d, gamma, lam, p)])
    oracle = np.array(
        [_grid_argmin_pruned(*t) * _STEP for t in zip(d, gamma, lam, p)]
    )
    err = np.abs(chosen - oracle)
    max_err = float(err.max())

    rng = np.random.default_rng(7)
    sample = rng.choice(_N_TUPLES, size=15, replace=False)
    agree = sum(
        _grid_argmin_literal(d[i], gamma[i], lam[i], p[i])
        == _grid_argmin_pruned(d[i], gamma[i], lam[i], p[i])
        for i in sample
    )
    elapsed = time.perf_counter() - t0

    ok = max_err <= 1e-4 and agree == len(sample) and elapsed < 60.0
    acceptance_log(
        f"ACCEPTANCE 1: {'PASS' if ok else 'FAIL'} "
        f"({_N_TUPLES} tuples, max |du| {max_err:.2e} <= 1e-4, "
        f"oracle vs full scan {agree}/{len(sample)}, {elapsed:.1f}s < 60s)"
    )
    assert max_err <= 1e-4, f"worst tuple off by {max_err}"
    assert agree == len(sample), "pruned oracle disagreed with full scan"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_acceptance_2_plain_reduction(acceptance_log):
    """Criterion 2: with lam = 0 the solver is exp(-d/gamma) to 1e-12,
    and a sparse run configured with K = 0 retraces the classic run
    exactly (1e-9 per iteration) on the two-blob benchmark."""
    d, gamma, _, p = _draw_tuples()
    u0 = np.array(
        [membership_oracle.chosen(di, gi, 0.0, pi) for di, gi, pi in zip(d, gamma, p)]
    )
    exp_err = float(np.abs(u0 - np.exp(-d / gamma)).max())

    data = make_fixture("example1", seed=0)
    rep_pcm = run(data, AlgoConfig(algorithm="pcm", m_ini=5, seed=0))
    rep_k0 = run(data, AlgoConfig(algorithm="spcm", m_ini=5, K=0.0, seed=0))
    same_len = len(rep_pcm.history) == len(rep_k0.history)
    traj_err = max(
        float(np.abs(a.theta - b.theta).max())
        for a, b in zip(rep_pcm.history, rep_k0.history)
    )

    ok = exp_err <= 1e-12 and same_len and traj_err <= 1e-9
    acceptance_log(
        f"ACCEPTANCE 2: {'PASS' if ok else 'FAIL'} "
        f"(lam=0 max err {exp_err:.1e} <= 1e-12; K=0 trajectory gap "
        f"{traj_err:.1e} <= 1e-9 over {len(rep_pcm.history)} iterations)"
    )
    assert exp_err <= 1e-12
    assert same_len, "iteration counts diverged"
    assert traj_err <= 1e-9


def test_acceptance_3_seventeen_point_tables(acceptance_log):
    """Criterion 3: on the pinned 17-point set with m = 2, the fuzzy
    initialization matches its reference table within 0.02, the
    converged sparse memberships match theirs within 0.02 including the
    exact-zero pattern, and the classic memberships reconstructed from
    the eighth recorded iteration match theirs within 0.03 (the classic
    run does not stop there: its representatives keep drifting toward
    coincidence, so the table is a pinned snapshot). Under a second."""
    t0 = time.perf_counter()
    data = make_fixture("experiment1")

    fcm = run_fcm(data, 2, seed=0)
    u_init, ref_init = _aligned(fcm.u_fcm, fcm.theta, INIT)
    init_err = float(np.abs(u_init - ref_init).max())

    rep_s = run(data, AlgoConfig(algorithm="spcm", m_ini=2, seed=0))
    u_s = _recomputed_memberships(data, rep_s)
    u_s, ref_s = _aligned(u_s, rep_s.theta_final, SPCM_ITER5)
    spcm_err = float(np.abs(u_s - ref_s).max())
    zeros_match = bool(np.array_equal(u_s == 0.0, ref_s == 0.0))

    rep_p = run(data, AlgoConfig(algorithm="pcm", m_ini=2, seed=0))
    assert len(rep_p.history) >= 8, "classic run ended before 8 iterations"
    snap = rep_p.history[7]
    u8 = np.exp(-squared_distances(data, snap.theta) / snap.gamma)
    u8, ref_p = _aligned(u8, snap.theta, PCM_ITER8)
    pcm_err = float(np.abs(u8 - ref_p).max())

    gamma_err = float(np.abs(np.sort(snap.gamma) - np.sort(GAMMA_INIT)).max())
    elapsed = time.perf_counter() - t0

    ok = (
        init_err <= 0.02 and spcm_err <= 0.02 and zeros_match
        and pcm_err <= 0.03 and elapsed < 1.0
    )
    acceptance_log(
        f"ACCEPTANCE 3: {'PASS' if ok else 'FAIL'} "
        f"(init err {init_err:.4f} <= 0.02; sparse err {spcm_err:.4f} <= 0.02, "
        f"zero pattern {'exact' if zeros_match else 'WRONG'}; classic err "
        f"{pcm_err:.4f} <= 0.03; gamma err {gamma_err:.4f}; {elapsed:.2f}s < 1s)"
    )
    assert init_err <= 0.02
    assert spcm_err <= 0.02
    assert zeros_match, "sparse zero pattern differs"
    assert pcm_err <= 0.03
    assert elapsed < 1.0


def test_acceptance_4_two_blob_batteries(acceptance_log):
    """Criterion 4: ten regenerated draws of the overlapping two-blob
    set. The classic run (m_ini = 5) must collapse to one cluster and
    the sparse run must keep both clusters with SR >= 92 and MD <= 0.2,
    each in at least 8 of 10 seeds."""
    pcm_ok = spcm_ok = 0
    for s in range(10):
        data = make_fixture("example1", seed=s)
        rep_p = run(data, AlgoConfig(algorithm="pcm", m_ini=5, seed=s))
        pcm_ok += rep_p.m_final == 1
        rep_s = run(data, AlgoConfig(algorithm="spcm", m_ini=5, seed=s))
        m = rep_s.metrics
        spcm_ok += (
            rep_s.m_final == 2 and m["sr"] >= 92.0 and m["md"] <= 0.2
        )
    ok = pcm_ok >= 8 and spcm_ok >= 8
    acceptance_log(
        f"ACCEPTANCE 4: {'PASS' if ok else 'FAIL'} "
        f"(pcm m=1: {pcm_ok}/10; spcm m=2 sr>=92 md<=0.2: {spcm_ok}/10; "
        f"bar 8/10 each)"
    )
    assert pcm_ok >= 8, f"classic collapse in only {pcm_ok}/10 seeds"
    assert spcm_ok >= 8, f"sparse two-cluster recovery in only {spcm_ok}/10 seeds"


def test_acceptance_5_adaptive_blob_batteries(acceptance_log):
    """Criterion 5: ten regenerated draws of the two imbalanced blob
    sets, m_ini = 5. On the overlapping variant the sparse adaptive run
    (alpha = 2) must find both clusters with SR >= 92 while the plain
    adaptive run (alpha = 1.6) collapses to one; on the separated
    variant both modes (alpha = 1.0 sparse, 1.5 plain) must find both
    clusters with the sparse MD within 0.05 of the 0.05 reference
    (gate: MD <= 0.10)."""
    ex3_s = ex3_a = ex4_s = ex4_a = 0
    for s in range(10):
        data3 = make_fixture("example3", seed=s)
        r = run(data3, AlgoConfig(algorithm="sapcm", m_ini=5, alpha=2.0, seed=s))
        ex3_s += r.m_final == 2 and r.metrics["sr"] >= 92.0
        r = run(data3, AlgoConfig(algorithm="apcm", m_ini=5, alpha=1.6, seed=s))
        ex3_a += r.m_final == 1

        data4 = make_fixture("example4", seed=s)
        r = run(data4, AlgoConfig(algorithm="sapcm", m_ini=5, alpha=1.0, seed=s))
        ex4_s += r.m_final == 2 and r.metrics["md"] <= 0.10
        r = run(data4, AlgoConfig(algorithm="apcm", m_ini=5, alpha=1.5, seed=s))
        ex4_a += r.m_final == 2
    ok = min(ex3_s, ex3_a, ex4_s, ex4_a) >= 8
    acceptance_log(
        f"ACCEPTANCE 5: {'PASS' if ok else 'FAIL'} "
        f"(overlap sparse m=2 sr>=92: {ex3_s}/10; overlap plain m=1: {ex3_a}/10; "
        f"separated sparse m=2 md<=0.10: {ex4_s}/10; separated plain m=2: "
        f"{ex4_a}/10; bar 8/10 each)"
    )
    assert ex3_s >= 8, f"overlap sparse clause in only {ex3_s}/10 seeds"
    assert ex3_a >= 8, f"overlap plain collapse in only {ex3_a}/10 seeds"
    assert ex4_s >= 8, f"separated sparse clause in only {ex4_s}/10 seeds"
    assert ex4_a >= 8, f"separated plain clause in only {ex4_a}/10 seeds"


def test_acceptance_6_three_scale_battery(acceptance_log):
    """Criterion 6: five regenerated draws of the three-cluster set with
    widely different sizes. The sparse adaptive run (m_ini = 10,
    alpha = 0.15) must find all three clusters with every per-cluster
    SR >= 99; the plain sparse run (m_ini = 10) must end with two
    clusters and lose the middle class entirely (its per-cluster SR at
    0). Whole battery under two minutes."""
    t0 = time.perf_counter()
    sapcm_ok = spcm_ok = 0
    for s in range(5):
        data = make_fixture("experiment2", seed=s)
        r = run(data, AlgoConfig(algorithm="sapcm", m_ini=10, alpha=0.15, seed=s))
        sapcm_ok += (
            r.m_final == 3 and min(r.metrics["sr_per_cluster"]) >= 99.0
        )
        r = run(data, AlgoConfig(algorithm="spcm", m_ini=10, seed=s))
        spcm_ok += r.m_final == 2 and r.metrics["sr_per_cluster"][1] <= 1.0
    elapsed = time.perf_counter() - t0
    ok = sapcm_ok >= 4 and spcm_ok >= 4 and elapsed < 120.0
    acceptance_log(
        f"ACCEPTANCE 6: {'PASS' if ok else 'FAIL'} "
        f"(sparse adaptive m=3 per-sr>=99: {sapcm_ok}/5; sparse m=2 middle "
        f"class lost: {spcm_ok}/5; bar 4/5 each; {elapsed:.1f}s < 120s)"
    )
    assert sapcm_ok >= 4, f"adaptive clause in only {sapcm_ok}/5 seeds"
    assert spcm_ok >= 4, f"sparse clause in only {spcm_ok}/5 seeds"
    assert elapsed < 120.0, f"battery took {elapsed:.1f}s"


def test_acceptance_7_noise_battery(acceptance_log):
    """Criterion 7: five regenerated draws of the three-cluster set plus
    uniform noise. The sparse adaptive run (m_ini = 10, alpha = 0.18)
    must find the three clusters with per-cluster SR >= 99 and
    MD <= 0.6, and must leave at least half of the noise points
    unassigned (label 0)."""
    full_ok = noise_ok = 0
    for s in range(5):
        data = make_fixture("experiment3", seed=s)
        r = run(data, AlgoConfig(algorithm="sapcm", m_ini=10, alpha=0.18, seed=s))
        noise_zero = float(
            np.mean(r.labels_final[data.truth_labels == 0] == 0)
        )
        noise_ok += noise_zero >= 0.5
        full_ok += (
            r.m_final == 3
            and min(r.metrics["sr_per_cluster"]) >= 99.0
            and r.metrics["md"] <= 0.6
            and noise_zero >= 0.5
        )
    ok = full_ok >= 4
    acceptance_log(
        f"ACCEPTANCE 7: {'PASS' if ok else 'FAIL'} "
        f"(m=3 per-sr>=99 md<=0.6 noise->0: {full_ok}/5, bar 4/5; "
        f"noise->0 alone: {noise_ok}/5)"
    )
    assert full_ok >= 4, f"all clauses held in only {full_ok}/5 seeds"


def test_acceptance_8_iris_battery(acceptance_log, iris_data):
    """Criterion 8: the bundled 150x4 iris table over five seeds. The
    sparse adaptive run (m_ini = 3, alpha = 2.2) must find three
    clusters with RM within 91.24 +- 2 and SR within 92.67 +- 3; the
    sparse and classic runs (m_ini = 10) must both end with two
    clusters (the two overlapping species merge)."""
    sapcm_ok = spcm_ok = pcm_ok = 0
    for s in range(5):
        r = run(iris_data, AlgoConfig(algorithm="sapcm", m_ini=3, alpha=2.2, seed=s))
        sapcm_ok += (
            r.m_final == 3
            and abs(r.metrics["rm"] - 91.24) <= 2.0
            and abs(r.metrics["sr"] - 92.67) <= 3.0
        )
        spcm_ok += run(
            iris_data, AlgoConfig(algorithm="spcm", m_ini=10, seed=s)
        ).m_final == 2
        pcm_ok += run(
            iris_data, AlgoConfig(algorithm="pcm", m_ini=10, seed=s)
        ).m_final == 2
    ok = min(sapcm_ok, spcm_ok, pcm_ok) >= 4
    acceptance_log(
        f"ACCEPTANCE 8: {'PASS' if ok else 'FAIL'} "
        f"(adaptive m=3 rm~91.24 sr~92.67: {sapcm_ok}/5; sparse m=2: "
        f"{spcm_ok}/5; classic m=2: {pcm_ok}/5; bar 4/5 each)"
    )
    assert sapcm_ok >= 4, f"adaptive clause in only {sapcm_ok}/5 seeds"
    assert spcm_ok >= 4, f"sparse m=2 in only {spcm_ok}/5 seeds"
    assert pcm_ok >= 4, f"classic m=2 in only {pcm_ok}/5 seeds"


def test_acceptance_9_property_suites(acceptance_log):
    """Criterion 9: the six randomized invariant suites, one thousand
    cases each: membership falls with distance, grows with scale, the
    zero-vs-root rule is consistent, the adaptive cluster count never
    increases, representative updates stay in the data box, and the
    metrics ignore label identities."""
    suites = [
        props.test_membership_nonincreasing_in_distance,
        props.test_membership_nondecreasing_in_gamma,
        props.test_zero_choice_matches_threshold_rule,
        props.test_adaptive_cluster_count_never_increases,
        props.test_theta_update_stays_inside_data_box,
        props.test_metric_scores_ignore_label_identities,
    ]
    for fn in suites:
        fn()
    acceptance_log(
        f"ACCEPTANCE 9: PASS ({len(suites)} property suites, 1000 cases each)"
    )
