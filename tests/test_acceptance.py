"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the measured quantities.

Criteria 1-6, 8, 10-12 are exact or oracle-backed checks at their stated
tolerances; 2, 3, 7, 9 reproduce the curvature-bias and debiasing phenomena
on the seeded toy fixture (7 is a soft criterion: both trajectory series are
printed alongside the check)."""

import json

import numpy as np

from quadbias.cg import CgConfig, cg_minimize, debiased_cg
from quadbias.diagnostics import (
    bias_summary,
    eigendirection_scan,
    overlap_matrix,
    spectral_transfer,
    DirectionSet,
)
from quadbias.laplace import (
    accumulate_kfac,
    build_posterior,
    debias_kfac,
    draw_noise,
    predictive,
    sample_params,
)
from quadbias.linalg import Rng, sym_eigh
from quadbias.metrics import ProbTable, accuracy, auroc, ece, nll, predictive_entropy
from quadbias.model import Batch, KfacBlock, LayoutEntry, Mlp, MlpArchitecture, ParamVector, softmax
from quadbias.linalg import DenseSymMatrix
from quadbias.quadratic import (
    build_quadratic,
    directional_curvature,
    directional_slope,
    fullbatch_quadratic,
    synthetic_quadratic,
    value_at,
)

from conftest import TOY_BETA, small_problem
from random_matrices import haar_orthogonal, random_spd


def _report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_batch_mean_identity(toy_dataset, toy_mlp, toy_theta):
    """Eq. (5): mean of mini-batch directional slope/curvature over a disjoint
    equal partition equals the full-batch value, to 1e-10 relative."""
    data = toy_dataset.train_batch()
    sub = Batch(data.inputs[:512], data.targets[:512])
    batches = [
        Batch(sub.inputs[i : i + 64], sub.targets[i : i + 64])
        for i in range(0, 512, 64)
    ]
    quads = [
        build_quadratic(toy_mlp, toy_theta, b, "ggn", TOY_BETA) for b in batches
    ]
    q_full = fullbatch_quadratic(toy_mlp, toy_theta, sub, "ggn", TOY_BETA,
                                 chunk_size=64)
    from quadbias.linalg import top_k_eigenpairs

    eig = top_k_eigenpairs(quads[0].curvature, toy_theta.n_params, 10, Rng(0))
    worst_slope = worst_curv = 0.0
    for i in range(10):
        d = eig.basis[:, i]
        slopes = [directional_slope(q, toy_theta, d) for q in quads]
        curvs = [directional_curvature(q, d) for q in quads]
        fs = directional_slope(q_full, toy_theta, d)
        fc = directional_curvature(q_full, d)
        worst_slope = max(worst_slope, abs(np.mean(slopes) - fs) / abs(fs))
        worst_curv = max(worst_curv, abs(np.mean(curvs) - fc) / abs(fc))
    ok = worst_slope <= 1e-10 and worst_curv <= 1e-10
    _report(1, ok, f"max rel err slope {worst_slope:.2e}, curvature {worst_curv:.2e} (tol 1e-10)")


def test_criterion_02_curvature_overestimation(toy_dataset, toy_mlp, toy_theta):
    """Same-batch top-eigenvector curvature exceeds the full-batch curvature
    for >= 90% of 20 source batches at batch size 32; median ratio > 1.2."""
    parts = toy_dataset.partition(32, seed=0, drop_last=True)[:20]
    _, reports = eigendirection_scan(
        toy_mlp, toy_theta, toy_dataset.train_batch(), parts,
        k=1, kind="ggn", beta=TOY_BETA, rng=Rng(0),
    )
    ratios = np.array([
        rep.curvatures[0, rep.source_column()] / rep.curvatures[0, -1]
        for rep in reports
    ])
    frac = float(np.mean(ratios > 1.0))
    med = float(np.median(ratios))
    ok = frac >= 0.9 and med > 1.2
    _report(2, ok, f"overestimated fraction {frac:.2f} (need >= 0.90), median ratio {med:.2f} (need > 1.2)")


def test_criterion_03_batch_size_trend(toy_dataset, toy_mlp, toy_theta):
    """Median same-batch curvature relative error strictly decreasing across
    batch sizes 32 -> 128 -> 512, for a majority of 5 seeds."""
    good = 0
    series = {}
    for seed in range(5):
        medians = []
        for bs in (32, 128, 512):
            parts = toy_dataset.partition(bs, seed=seed, drop_last=True)
            n_src = min(4, len(parts))
            _, reports = eigendirection_scan(
                toy_mlp, toy_theta, toy_dataset.train_batch(), parts,
                k=10, kind="ggn", beta=TOY_BETA, rng=Rng(seed),
                source_indices=list(range(n_src)),
            )
            errs = np.concatenate([
                s.relative_errors for s in bias_summary(reports, "curvature")
            ])
            medians.append(float(np.median(errs)))
        series[seed] = medians
        good += all(a > b for a, b in zip(medians, medians[1:]))
    ok = good >= 3
    _report(3, ok, f"strictly decreasing for {good}/5 seeds; medians {series}")


def test_criterion_04_overlap_properties():
    """Overlap entries in [0,1]; full-basis rows sum to 1; spectral transfer
    matches direct quadratic forms; equal-spectra inequalities hold on 1000
    random constructions."""
    rng = Rng(42)
    # dense pair, P <= 64
    h_b = random_spd(rng, 48, cond=12.0)
    h_bt = random_spd(rng, 48, cond=12.0)
    eig_b, eig_bt = sym_eigh(h_b), sym_eigh(h_bt)
    om = overlap_matrix(
        DirectionSet(0, eig_b.basis),
        DirectionSet(1, eig_bt.basis),
    )
    in_range = om.omega.min() >= 0.0 and om.omega.max() <= 1.0 + 1e-12
    rows_ok = np.max(np.abs(om.row_sums() - 1.0)) <= 1e-10
    pred = spectral_transfer(eig_b, eig_bt, om)
    direct = np.array([
        float(eig_b.basis[:, i] @ h_bt @ eig_b.basis[:, i]) for i in range(48)
    ])
    transfer_err = float(np.max(np.abs(pred - direct) / np.abs(direct)))
    transfer_ok = transfer_err <= 1e-10

    violations = 0
    for trial in range(1000):
        r = Rng(1000 + trial)
        dim = 4 + trial % 29  # dims 4..32
        lam = np.sort(r.uniform(dim))[::-1]
        u = haar_orthogonal(r, dim)
        v = haar_orthogonal(r, dim)
        h = (v * lam) @ v.T
        top = float(u[:, 0] @ h @ u[:, 0])
        bottom = float(u[:, -1] @ h @ u[:, -1])
        if top > lam[0] + 1e-10 or bottom < lam[-1] - 1e-10:
            violations += 1
    ok = in_range and rows_ok and transfer_ok and violations == 0
    _report(4, ok, f"entries in range {in_range}, row sums within 1e-10 {rows_ok}, "
                   f"transfer max rel err {transfer_err:.2e}, inequality violations {violations}/1000")


def test_criterion_05_cg_correctness():
    """Random SPD 50x50 systems: CG matches the direct solve to 1e-8 relative
    within 50 iterations, directions are conjugate, same-batch magnitudes are
    positive, descent is monotone."""
    worst_rel = worst_conj = 0.0
    all_pos = all_monotone = True
    for seed in range(5):
        r = Rng(500 + seed)
        h = random_spd(r, 50, cond=8.0)
        g = r.normal(50)
        q = synthetic_quadratic(h, g)
        trace = cg_minimize(q, CgConfig(epsilon=1e-10 * np.linalg.norm(g),
                                        p_max=50))
        direct = np.linalg.solve(h, -g)
        worst_rel = max(worst_rel, float(
            np.linalg.norm(trace.final() - direct) / np.linalg.norm(direct)
        ))
        d = trace.directions.T
        curvs = [float(di @ h @ di) for di in d]
        for i in range(len(d)):
            hi = h @ d[i]
            for j in range(i + 1, len(d)):
                worst_conj = max(
                    worst_conj, abs(d[j] @ hi) / np.sqrt(curvs[i] * curvs[j])
                )
        all_pos &= all(t > 0 for t in trace.magnitudes)
        vals = [value_at(q, th) for th in trace.iterates()]
        all_monotone &= all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    ok = worst_rel <= 1e-8 and worst_conj <= 1e-8 and all_pos and all_monotone
    _report(5, ok, f"solve rel err {worst_rel:.2e} (tol 1e-8), conjugacy {worst_conj:.2e} (tol 1e-8), "
                   f"tau>0 {all_pos}, monotone {all_monotone}")


def test_criterion_06_debiased_cg_identities(toy_dataset, toy_mlp, toy_theta):
    """B~ = B reproduces the single-batch trajectory bitwise; the recursive
    gradients match fresh ones to 1e-10 over 30 iterations; exactly 2
    curvature matvecs per debiased iteration."""
    batches = toy_dataset.minibatches(32, seed=3, drop_last=True)
    q_a = build_quadratic(toy_mlp, toy_theta, batches[0], "ggn", TOY_BETA)
    q_a2 = build_quadratic(toy_mlp, toy_theta, batches[0], "ggn", TOY_BETA)
    cfg = CgConfig(epsilon=1e-14, p_max=30)
    dir_trace, deb_trace = debiased_cg(q_a, q_a2, cfg)
    dir_iterates, deb_iterates = list(dir_trace.iterates()), list(deb_trace.iterates())
    bitwise = (
        len(dir_iterates) == len(deb_iterates)
        and all(np.array_equal(a, b) for a, b in zip(dir_iterates, deb_iterates))
        and dir_trace.magnitudes == deb_trace.magnitudes
    )

    # recursion check on an independent pair over 30 iterations
    rng = Rng(77)
    h_b = random_spd(rng, 80, cond=40.0)
    h_bt = random_spd(rng, 80, cond=40.0)
    g_b, g_bt = rng.normal(80), rng.normal(80)
    q_b = synthetic_quadratic(h_b, g_b)
    q_bt = synthetic_quadratic(h_bt, g_bt)
    _, deb = debiased_cg(q_b, q_bt, CgConfig(epsilon=1e-16, p_max=30))
    recursion_err = 0.0
    for p, theta in enumerate(deb.iterates()):
        fresh = np.linalg.norm(h_bt @ theta + g_bt)
        recursion_err = max(recursion_err,
                            abs(deb.residual_norms[p] - fresh) / fresh)
    recursion_ok = deb.n_steps == 30 and recursion_err <= 1e-10

    before = q_b.curvature.matvec_count + q_bt.curvature.matvec_count
    _, deb2 = debiased_cg(q_b, q_bt, CgConfig(epsilon=1e-16, p_max=10))
    count = q_b.curvature.matvec_count + q_bt.curvature.matvec_count - before
    count_ok = count == 2 * deb2.n_steps and deb2.n_steps == 10

    ok = bitwise and recursion_ok and count_ok
    _report(6, ok, f"bitwise congruence {bitwise}, recursion max rel err {recursion_err:.2e} "
                   f"(tol 1e-10), matvecs per iteration {count / max(deb2.n_steps, 1):.1f} (need 2)")


def test_criterion_07_debiased_cg_stability(toy_dataset, toy_mlp, toy_theta):
    """Fig. 5 phenomenon (soft criterion): with delta = 0 and K = 30, the
    debiased run's final full-batch quadratic value stays at or below the
    anchor value, and beats the single-batch final in >= 3 of 5 seeds."""
    q_full = fullbatch_quadratic(toy_mlp, toy_theta,
                                 toy_dataset.train_batch(), "ggn", TOY_BETA,
                                 chunk_size=512)
    q0 = value_at(q_full, toy_theta.values)
    cfg = CgConfig(epsilon=1e-12, p_max=30)
    finals_ok = wins = 0
    for seed in range(5):
        b64 = toy_dataset.minibatches(64, seed=seed, drop_last=True)[0]
        q_single = build_quadratic(toy_mlp, toy_theta, b64, "ggn", TOY_BETA)
        trace = cg_minimize(q_single, cfg)
        single_series = [value_at(q_full, th) for th in trace.iterates()]

        halves = toy_dataset.minibatches(32, seed=seed, drop_last=True)
        q_dir = build_quadratic(toy_mlp, toy_theta, halves[0], "ggn", TOY_BETA)
        q_mag = build_quadratic(toy_mlp, toy_theta, halves[1], "ggn", TOY_BETA)
        _, deb = debiased_cg(q_dir, q_mag, cfg)
        deb_series = [value_at(q_full, th) for th in deb.iterates()]

        finals_ok += deb_series[-1] <= q0
        wins += deb_series[-1] <= single_series[-1]
        # archive both series in the test log
        print(f"  seed {seed} single q_D series: "
              + " ".join(f"{v:.5f}" for v in single_series))
        print(f"  seed {seed} debiased q_D series: "
              + " ".join(f"{v:.5f}" for v in deb_series))
    ok = finals_ok == 5 and wins >= 3
    _report(7, ok, f"q(theta_K;D) <= q(theta_0;D) for {finals_ok}/5 seeds, "
                   f"debiased <= single for {wins}/5 (need >= 3); q0 = {q0:.5f}")


def _diag_posterior_block(m, n):
    layout = (
        LayoutEntry(0, "weight", (m, n), 0),
        LayoutEntry(0, "bias", (n,), m * n),
    )
    return ParamVector(np.zeros(m * n + n), layout)


def test_criterion_08_kfac_laplace():
    """Dense covariance oracle at 1e-10; MC sampling covariance within 5% at
    1e5 draws; the debiased block reproduces second-batch directional
    curvatures along every eigenvector at 1e-10; self-debiasing is the
    identity at 1e-12."""
    rng = Rng(88)
    a = random_spd(rng, 4, cond=6.0)
    b = random_spd(rng, 4, cond=6.0)
    n_train, beta = 25, 0.4
    mean = _diag_posterior_block(4, 4)
    block = KfacBlock(0, DenseSymMatrix(a), DenseSymMatrix(b))
    post = build_posterior([block], mean, n_train, beta)
    dense_cov = np.linalg.inv(n_train * (np.kron(a, b) + beta * np.eye(16)))
    eig = post._eigs[0]
    u = np.kron(eig.eig_a.basis, eig.eig_b.basis)
    rebuilt = (u / (n_train * (eig.kron_eigs + beta))) @ u.T
    cov_err = np.linalg.norm(rebuilt - dense_cov) / np.linalg.norm(dense_cov)

    base = Rng(99)
    draws = np.array([sample_params(post, base.split(i)).values[:16]
                      for i in range(10**5)])
    emp = np.cov(draws.T)
    mc_err = np.linalg.norm(emp - dense_cov) / np.linalg.norm(dense_cov)

    c = random_spd(rng, 4, cond=6.0)
    d = random_spd(rng, 4, cond=6.0)
    block_bt = KfacBlock(0, DenseSymMatrix(c), DenseSymMatrix(d))
    debiased = debias_kfac([block], [block_bt])[0]
    k_b = np.kron(a, b)
    k_bt = np.kron(c, d)
    k_hat = np.kron(debiased.factor_a.entries, debiased.factor_b.entries)
    eig_full = sym_eigh(k_b)
    dir_err = 0.0
    for i in range(16):
        ui = eig_full.basis[:, i]
        want = float(ui @ k_bt @ ui)
        got = float(ui @ k_hat @ ui)
        dir_err = max(dir_err, abs(got - want) / abs(want))

    self_deb = debias_kfac([block], [block])[0]
    self_err = max(
        np.max(np.abs(self_deb.factor_a.entries - a)),
        np.max(np.abs(self_deb.factor_b.entries - b)),
    )
    ok = cov_err <= 1e-10 and mc_err <= 0.05 and dir_err <= 1e-10 and self_err <= 1e-12
    _report(8, ok, f"dense cov err {cov_err:.2e} (tol 1e-10), MC cov err {mc_err:.3f} (tol 0.05), "
                   f"debias directional err {dir_err:.2e} (tol 1e-10), self-debias err {self_err:.2e} (tol 1e-12)")


def test_criterion_09_debiased_la_phenomenon(toy_dataset, toy_mlp, toy_theta):
    """Fig. 6 phenomenon: over the prior grid {1e-4..1, 10}, at the smallest
    prior precision the debiased LA's NLL is at least as close to the
    full-batch LA's as the single-batch one, in >= 4 of 5 seeds (debiased at
    half the batch size)."""
    grid = tuple(np.logspace(-4, 0, 13)) + (10.0,)
    beta_min = min(grid)
    n_train = toy_dataset.n_train
    test_x, test_y = toy_dataset.test_inputs, toy_dataset.test_labels

    full_blocks = accumulate_kfac(toy_mlp, toy_theta, toy_dataset.train_batch(),
                                  "mc_sample", Rng(0).split(50), 512)

    def nll_for(blocks, beta, seed):
        post = build_posterior(blocks, toy_theta, n_train, beta)
        probs = predictive(post, toy_mlp, toy_mlp.linearize(toy_theta, test_x),
                           draw_noise(post, 40, seed))
        return nll(ProbTable(probs, test_y))

    full_curve = {beta: nll_for(full_blocks, beta, 1000) for beta in grid}
    nll_full = full_curve[beta_min]

    closer = 0
    details = []
    for seed in range(5):
        b64 = toy_dataset.minibatches(64, seed=seed, drop_last=True)[0]
        halves = toy_dataset.minibatches(32, seed=seed, drop_last=True)
        blocks_single = toy_mlp.kfac_factors(toy_theta, b64, "mc_sample",
                                             Rng(seed).split(11))
        blocks_deb = debias_kfac(
            toy_mlp.kfac_factors(toy_theta, halves[0], "mc_sample",
                                 Rng(seed).split(12)),
            toy_mlp.kfac_factors(toy_theta, halves[1], "mc_sample",
                                 Rng(seed).split(13)),
        )
        nll_single = nll_for(blocks_single, beta_min, 2000 + seed)
        nll_deb = nll_for(blocks_deb, beta_min, 2000 + seed)
        win = abs(nll_deb - nll_full) <= abs(nll_single - nll_full)
        closer += win
        details.append(f"s{seed}: single {nll_single:.3f} deb {nll_deb:.3f}")
    ok = closer >= 4
    _report(9, ok, f"debiased closer to full-batch (NLL {nll_full:.3f}) in {closer}/5 seeds "
                   f"(need >= 4); " + "; ".join(details))


def test_criterion_10_derivative_oracles():
    """Gradient and HVP match finite differences to 1e-5 relative; GGN-VP
    matches the explicit Jacobian assembly to 1e-8; GGN is PSD."""
    arch = MlpArchitecture((8, 12, 6))  # P = 108 + 78 = 186 <= 200
    mlp, p, batch = small_problem(seed=123, n=20, arch=arch)

    _, g = mlp.loss_and_grad(p, batch, 0.01)
    h = 1e-5
    g_fd = np.zeros_like(g)
    for i in range(p.n_params):
        plus, minus = p.copy(), p.copy()
        plus.values[i] += h
        minus.values[i] -= h
        g_fd[i] = (mlp.loss_and_grad(plus, batch, 0.01)[0]
                   - mlp.loss_and_grad(minus, batch, 0.01)[0]) / (2 * h)
    grad_err = float(np.max(np.abs(g - g_fd) / np.maximum(np.abs(g), 1e-6)))

    v = Rng(5).normal(p.n_params)
    hv = mlp.hvp(p, batch, 0.01, v)
    plus = p.with_values(p.values + h * v)
    minus = p.with_values(p.values - h * v)
    hv_fd = (mlp.loss_and_grad(plus, batch, 0.01)[1]
             - mlp.loss_and_grad(minus, batch, 0.01)[1]) / (2 * h)
    hvp_err = float(np.max(np.abs(hv - hv_fd)) / np.max(np.abs(hv)))

    g_dense = np.zeros((p.n_params, p.n_params))
    for n in range(batch.size):
        jac = np.zeros((6, p.n_params))
        for i in range(p.n_params):
            e = np.zeros(p.n_params)
            e[i] = 1.0
            jac[:, i] = mlp.jvp_batch(p, batch.inputs[n][None], e)[0]
        logits = mlp.forward(p, batch.inputs[n][None])[0]
        pr = softmax(logits[None])[0]
        g_dense += jac.T @ (np.diag(pr) - np.outer(pr, pr)) @ jac / batch.size
    ggn_err = 0.0
    for trial in range(3):
        w = Rng(50 + trial).normal(p.n_params)
        want = g_dense @ w
        got = mlp.ggn_vp(p, batch, 0.0, w)
        ggn_err = max(ggn_err, float(np.max(np.abs(got - want))
                                     / max(1.0, np.max(np.abs(want)))))

    min_rayleigh = 0.0
    for trial in range(20):
        w = Rng(100 + trial).normal(p.n_params)
        w /= np.linalg.norm(w)
        min_rayleigh = min(min_rayleigh, float(w @ mlp.ggn_vp(p, batch, 0.0, w)))

    ok = grad_err <= 1e-5 and hvp_err <= 1e-5 and ggn_err <= 1e-8 and min_rayleigh >= -1e-12
    _report(10, ok, f"grad FD err {grad_err:.2e}, HVP FD err {hvp_err:.2e} (tol 1e-5), "
                    f"GGN assembly err {ggn_err:.2e} (tol 1e-8), min Rayleigh {min_rayleigh:.2e}")


def test_criterion_11_metrics_values():
    """The stated metric example values hold exactly, and NLL coincides with
    the cross-entropy training loss to 1e-10."""
    checks = []
    t = ProbTable(np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]]),
                  np.array([0, 1, 1]))
    checks.append(abs(accuracy(t) - 2.0 / 3.0) < 1e-15)
    t2 = ProbTable(np.array([[0.5, 0.5], [0.25, 0.75]]), np.array([0, 0]))
    checks.append(abs(nll(t2) - 1.5 * np.log(2.0)) < 1e-12)
    t3 = ProbTable(np.array([[0.8, 0.2], [0.6, 0.4]]), np.array([0, 1]))
    checks.append(abs(ece(t3, 15) - 0.4) < 1e-12)
    checks.append(auroc([0.9, 0.3, 0.5, 0.1], [True, True, False, False]) == 0.75)
    checks.append(auroc([0.9, 0.8, 0.2, 0.1], [True, True, False, False]) == 1.0)
    checks.append(auroc([0.5, 0.5, 0.5], [True, False, False]) == 0.5)
    checks.append(predictive_entropy([0.0, 1.0]) == 0.0)
    checks.append(abs(predictive_entropy([0.25] * 4) - np.log(4.0)) < 1e-15)
    checks.append(abs(predictive_entropy([0.5, 0.5, 0.0, 0.0]) - np.log(2.0)) < 1e-15)

    mlp, p, batch = small_problem(seed=321, n=24)
    loss, _ = mlp.loss_and_grad(p, batch, 0.0)
    probs = softmax(mlp.forward(p, batch.inputs))
    cross = nll(ProbTable(probs, batch.labels))
    checks.append(abs(cross - loss) <= 1e-10)
    ok = all(checks)
    _report(11, ok, f"{sum(checks)}/{len(checks)} exact example checks hold; "
                    f"nll vs loss diff {abs(cross - loss):.2e} (tol 1e-10)")


def test_criterion_12_trend_series(tmp_path):
    """The size and training-time series are produced deterministically:
    both experiments emit their aggregate tables, and a rerun reproduces the
    bytes. The increasing-trend expectation is logged, not gated."""
    from quadbias.harness import parse_experiment_config, run_experiment
    from quadbias.harness.config import read_config_text

    base = """
[experiment]
kind = size-sweep
curvature = ggn
beta = 0.02
batch_sizes = 64
k = 3
seeds = 0
n_source_batches = 2
widths = 8,32,128
chunk_size = 256

[dataset]
generator = gaussian_blobs
n = 512
dim = 16
classes = 10
noise = 2.0
seed = 7
train_frac = 1.0

[model]
layers = 16,36,20,10
activation = relu
loss = cross_entropy

[train]
lr = 0.08
momentum = 0.9
epochs = 12
batch_size = 128
beta = 0.0005
seed = 11
"""
    cfg_size = parse_experiment_config(read_config_text(base))
    out1 = run_experiment(cfg_size, tmp_path / "size1")
    out2 = run_experiment(cfg_size, tmp_path / "size2")
    size_rows = (out1 / "size_sweep.csv").read_text()
    size_det = size_rows == (out2 / "size_sweep.csv").read_text()
    size_summary = json.loads((out1 / "summary.json").read_text())
    widths_ok = size_summary["widths"] == [8, 32, 128]

    sections = read_config_text(base)
    sections["experiment"]["kind"] = "bias-over-training"
    cfg_epoch = parse_experiment_config(sections)
    out3 = run_experiment(cfg_epoch, tmp_path / "epoch1")
    out4 = run_experiment(cfg_epoch, tmp_path / "epoch2")
    epoch_det = ((out3 / "bias_over_training.csv").read_text()
                 == (out4 / "bias_over_training.csv").read_text())
    epoch_summary = json.loads((out3 / "summary.json").read_text())
    epochs_ok = len(epoch_summary["epochs"]) >= 2

    print(f"  size trend (logged): {size_summary['median_curvature_error_by_width']} "
          f"increasing={size_summary['bias_increases_with_size']}")
    print(f"  epoch trend (logged): {epoch_summary['median_curvature_error_by_epoch']} "
          f"increasing={epoch_summary['bias_increases_over_training']}")
    ok = size_det and widths_ok and epoch_det and epochs_ok
    _report(12, ok, f"width series {size_summary['widths']} deterministic={size_det}; "
                    f"epoch series length {len(epoch_summary['epochs'])} deterministic={epoch_det}")
