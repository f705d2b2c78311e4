"""Experiment orchestration: each kind wires datasets, training, and the
analysis modules together and persists CSV tables, a JSON summary, and SVG
views into a result directory.

Every experiment is a pure function of its config (seeds included); rerunning
with the same config reproduces the numeric outputs byte for byte.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..cg import CgConfig, cg_minimize, debiased_cg
from ..diagnostics import bias_summary, eigendirection_scan, overlap_matrix
from ..laplace import (
    PredictiveConfig,
    accumulate_kfac,
    build_posterior,
    debias_kfac,
    draw_noise,
    predictive,
)
from ..linalg import Rng
from ..metrics import ProbTable, accuracy, auroc, ece, nll, predictive_entropy
from ..model import Mlp, MlpArchitecture, softmax
from ..quadratic import build_quadratic, fullbatch_quadratic, values_at
from .config import ExperimentConfig, write_config
from .datasets import generate_dataset
from .reports import (
    LA_SWEEP_HEADER,
    OVERLAP_HEADER,
    SCAN_HEADER,
    overlap_rows,
    scan_rows,
    write_csv,
    write_summary,
    write_svg_heatmap,
    write_svg_lines,
)
from .training import train


def run_experiment(cfg: ExperimentConfig, out_dir) -> Path:
    """Dispatch one experiment kind into a result directory."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_config(cfg.sections, out_dir / "config.ini")
    runner = {
        "bias-scan": _run_bias_scan,
        "overlap": _run_overlap,
        "cg-compare": _run_cg_compare,
        "laplace-sweep": _run_laplace_sweep,
        "bias-over-training": _run_bias_over_training,
        "size-sweep": _run_size_sweep,
    }[cfg.kind]
    summary = runner(cfg, out_dir)
    write_summary(out_dir / "summary.json", cfg.digest, summary)
    return out_dir


def _prepare(cfg: ExperimentConfig):
    dataset = generate_dataset(cfg.dataset)
    checkpoints = train(cfg.arch, dataset, cfg.train)
    return dataset, Mlp(cfg.arch), checkpoints


def _source_count(cfg: ExperimentConfig, n_batches: int) -> int:
    if cfg.n_source_batches is None:
        return n_batches
    return min(cfg.n_source_batches, n_batches)


# -- bias-scan -----------------------------------------------------------------

def _scan_at(cfg, dataset, mlp, theta, batch_size, seed, sources_only=False):
    """Direction sets and reports of the eigendirection scan from the first
    n_source_batches minibatches, across every minibatch or only those."""
    batches = dataset.minibatches(batch_size, seed=seed, drop_last=True)
    n_src = _source_count(cfg, len(batches))
    return eigendirection_scan(
        mlp, theta, batches[:n_src] if sources_only else batches,
        dataset.train_batch(), k=min(cfg.n_directions, theta.n_params),
        kind=cfg.curvature, beta=cfg.beta, delta=cfg.delta,
        rng=Rng(seed).split(7), chunk_size=cfg.chunk_size,
        source_indices=list(range(n_src)), fisher_mode=cfg.fisher_mode,
    )


def _summary_rows(reports, batch_size, seed, n_params, epoch=None, width=None):
    """CSV rows of the slope and curvature summaries, and the median of the
    curvature relative errors pooled over the source batches."""
    rows = []
    for quantity in ("slope", "curvature"):
        summaries = bias_summary(reports, quantity, batch_size=batch_size,
                                 n_params=n_params, epoch=epoch)
        for summ in summaries:
            rows.append([
                batch_size, seed,
                epoch if epoch is not None else "",
                width if width is not None else "",
                n_params, summ.source_batch, quantity,
                summ.mean, summ.p25, summ.median, summ.p75, summ.n_excluded,
            ])
    # summaries holds the loop's last quantity, the curvature
    errs = np.concatenate([summ.relative_errors for summ in summaries])
    return rows, float(np.median(errs)) if errs.size else float("nan")


_SUMMARY_HEADER = [
    "batch_size", "seed", "epoch", "width", "n_params", "source_batch",
    "quantity", "mean", "p25", "median", "p75", "n_excluded",
]


def _run_bias_scan(cfg: ExperimentConfig, out_dir: Path) -> dict:
    dataset, mlp, checkpoints = _prepare(cfg)
    theta = checkpoints[-1].params
    n_params = theta.n_params

    summary_rows = []
    ratio_stats = {}
    medians = {}
    for batch_size in cfg.batch_sizes:
        for seed in cfg.seeds:
            _, reports = _scan_at(cfg, dataset, mlp, theta, batch_size, seed)
            for rep in reports:
                write_csv(
                    out_dir / f"scan_b{batch_size}_s{seed}_m{rep.source_batch}.csv",
                    SCAN_HEADER, scan_rows(rep), cfg.digest,
                )
            rows, medians[(batch_size, seed)] = _summary_rows(reports, batch_size,
                                                              seed, n_params)
            summary_rows.extend(rows)

            # same-batch top-eigendirection curvature vs the full-batch value
            ratios = [
                rep.curvatures[0, rep.source_column()] / rep.full_curvatures[0]
                for rep in reports
            ]
            ratio_stats[f"b{batch_size}_s{seed}"] = {
                "overestimated_fraction": float(np.mean([r > 1.0 for r in ratios])),
                "median_ratio": float(np.median(ratios)),
            }

    write_csv(out_dir / "bias_summary.csv", _SUMMARY_HEADER, summary_rows, cfg.digest)

    # batch-size trend: is the pooled median error strictly decreasing?
    trend = {}
    for seed in cfg.seeds:
        series = [medians[(b, seed)] for b in cfg.batch_sizes if (b, seed) in medians]
        trend[str(seed)] = {
            "medians": series,
            "strictly_decreasing": bool(
                all(a > b for a, b in zip(series, series[1:]))
            ),
        }
    write_svg_lines(
        out_dir / "bias_vs_batch_size.svg",
        {
            f"seed {seed}": (list(cfg.batch_sizes), trend[str(seed)]["medians"])
            for seed in cfg.seeds
        },
        title="median same-batch curvature relative error",
        logy=True, digest=cfg.digest,
    )
    return {
        "kind": cfg.kind,
        "seeds": list(cfg.seeds),
        "batch_sizes": list(cfg.batch_sizes),
        "n_params": n_params,
        "partition": "seeded shuffle, disjoint sequential slices",
        "curvature_ratio_stats": ratio_stats,
        "batch_size_trend": trend,
    }


# -- overlap --------------------------------------------------------------------

def _run_overlap(cfg: ExperimentConfig, out_dir: Path) -> dict:
    dataset, mlp, checkpoints = _prepare(cfg)
    theta = checkpoints[-1].params
    batch_size = cfg.batch_sizes[0]
    seed = cfg.seeds[0]
    dsets, _ = _scan_at(cfg, dataset, mlp, theta, batch_size, seed, sources_only=True)
    captured = {}
    for a in range(len(dsets)):
        for b in range(len(dsets)):
            if a == b:
                continue
            om = overlap_matrix(dsets[a], dsets[b])
            write_csv(out_dir / f"overlap_{a}_{b}.csv", OVERLAP_HEADER,
                      overlap_rows(om), cfg.digest)
            write_svg_heatmap(out_dir / f"overlap_{a}_{b}.svg", om.to_grayscale(),
                              title=f"eigenspace overlap (batches {a}, {b})",
                              digest=cfg.digest)
            captured[f"{a}->{b}"] = [float(v) for v in om.row_sums()]
    return {
        "kind": cfg.kind,
        "seed": seed,
        "batch_size": batch_size,
        "k": cfg.n_directions,
        "captured_mass_per_row": captured,
    }


# -- cg-compare -------------------------------------------------------------------

def _trajectory_metrics(mlp, dataset, q_full, iterates):
    q_vals = values_at(q_full, iterates).tolist()
    if dataset.test_inputs.shape[0] == 0:
        return q_vals, [float("nan")] * len(iterates)
    test_acc = []
    for th in iterates:
        logits = mlp.forward(q_full.theta0.with_values(th), dataset.test_inputs)
        preds = np.argmax(logits, axis=1)
        test_acc.append(float(np.mean(preds == dataset.test_labels)))
    return q_vals, test_acc


def _run_cg_compare(cfg: ExperimentConfig, out_dir: Path) -> dict:
    dataset, mlp, checkpoints = _prepare(cfg)
    theta = checkpoints[-1].params
    q_full = fullbatch_quadratic(
        mlp, theta, dataset.train_batch(), cfg.curvature, cfg.beta, cfg.delta,
        cfg.chunk_size, cfg.fisher_mode, Rng(0).split(99),
    )
    q_anchor = float(values_at(q_full, [theta])[0])
    cg_cfg = CgConfig(epsilon=1e-12, p_max=cfg.cg_iterations)

    header = ["method", "seed", "iteration", "q_fullbatch", "test_accuracy"]
    rows = []
    terminations = {}
    finals = {}
    stable = {}
    single_size = cfg.batch_sizes[0]
    half = max(1, single_size // 2)

    def score(method, seed, trace):
        """Rows, termination and final value of one trajectory; the trace is
        not kept, so its iterates are freed before the next one runs."""
        q_vals, acc = _trajectory_metrics(mlp, dataset, q_full, trace.iterates)
        rows.extend([method, seed, i, qv, a] for i, (qv, a) in enumerate(zip(q_vals, acc)))
        terminations[f"{method}_s{seed}"] = trace.termination
        finals[f"{method}_s{seed}"] = q_vals[-1]
        return q_vals

    for seed in cfg.seeds:
        single_batches = dataset.minibatches(single_size, seed=seed, drop_last=True)
        q_b = build_quadratic(mlp, theta, single_batches[0], cfg.curvature,
                              cfg.beta, cfg.delta, batch_id=0,
                              fisher_mode=cfg.fisher_mode, rng=Rng(seed).split(1))
        score("single", seed, cg_minimize(q_b, cg_cfg))

        if cfg.force_same_batch:
            # congruence mode: direction and magnitude processes share the
            # single batch, so the debiased trajectory reproduces the
            # single-batch one exactly
            b_dir = b_mag = single_batches[0]
            rng_dir = rng_mag = Rng(seed).split(1)
        else:
            halves = dataset.minibatches(half, seed=seed, drop_last=True)
            b_dir, b_mag = halves[0], halves[1]
            rng_dir, rng_mag = Rng(seed).split(2), Rng(seed).split(3)
        q_dir = build_quadratic(mlp, theta, b_dir, cfg.curvature, cfg.beta,
                                cfg.delta, batch_id="dir",
                                fisher_mode=cfg.fisher_mode, rng=rng_dir)
        q_mag = build_quadratic(mlp, theta, b_mag, cfg.curvature, cfg.beta,
                                cfg.delta, batch_id="mag",
                                fisher_mode=cfg.fisher_mode, rng=rng_mag)
        # the direction trace (first of the pair) is dropped unscored
        q_vals_d = score("debiased", seed,
                         debiased_cg(q_dir, q_mag, cfg.cg_iterations, cg_cfg)[1])
        stable[f"debiased_s{seed}"] = bool(max(q_vals_d) <= q_anchor + 1e-12)

    write_csv(out_dir / "cg_compare.csv", header, rows, cfg.digest)

    series = {}
    for seed in cfg.seeds:
        for method in ("single", "debiased"):
            pts = [(r[2], r[3]) for r in rows if r[0] == method and r[1] == seed]
            series[f"{method} s{seed}"] = ([p[0] for p in pts], [p[1] for p in pts])
    write_svg_lines(out_dir / "cg_compare.svg", series,
                    title="full-batch quadratic along CG trajectories",
                    digest=cfg.digest)

    better = sum(
        finals[f"debiased_s{s}"] <= finals[f"single_s{s}"] for s in cfg.seeds
    )
    return {
        "kind": cfg.kind,
        "seeds": list(cfg.seeds),
        "single_batch_size": single_size,
        "debiased_batch_size": half,
        "force_same_batch": cfg.force_same_batch,
        "q_at_anchor": q_anchor,
        "terminations": terminations,
        "final_q_fullbatch": finals,
        "debiased_never_above_anchor": stable,
        "debiased_final_leq_single_count": int(better),
    }


# -- laplace-sweep -----------------------------------------------------------------

def _predictive_metrics(probs_of, labels, input_sets):
    """accuracy / nll / ece on the first input set (the test set), auroc +
    mean entropy with the second (OOD) set when there is one; probs_of maps
    an input set to predictive probabilities."""
    probs = probs_of(input_sets[0])
    table = ProbTable(probs, labels)
    out = {
        "accuracy": accuracy(table),
        "nll": nll(table),
        "ece": ece(table),
    }
    if len(input_sets) > 1:
        ood_probs = probs_of(input_sets[1])
        ent = predictive_entropy(np.vstack([probs, ood_probs]))
        is_ood = [False] * probs.shape[0] + [True] * ood_probs.shape[0]
        out["auroc"] = auroc(ent, is_ood)
        out["mean_ood_entropy"] = float(np.mean(ent[probs.shape[0]:]))
    return out


def _laplace_fits(cfg, dataset, mlp, theta, single_size, half) -> list:
    """(method, seed, K-FAC factors, predictive seed) in row order; seed -1
    marks the full-batch factors. Built in a frame of its own, so that the
    minibatch lists are freed before the sweep runs."""
    fits = [("fullbatch", -1, accumulate_kfac(mlp, theta, dataset.train_batch(),
                                              cfg.fisher_mode, Rng(0).split(50),
                                              cfg.chunk_size), 1000)]
    for seed in cfg.seeds:
        batch = dataset.minibatches(single_size, seed=seed, drop_last=True)[0]
        fits.append(("single", seed, mlp.kfac_factors(
            theta, batch, cfg.fisher_mode, Rng(seed).split(11)), 2000 + seed))
    for seed in cfg.seeds:
        halves = dataset.minibatches(half, seed=seed, drop_last=True)
        blocks_dir = mlp.kfac_factors(theta, halves[0], cfg.fisher_mode,
                                      Rng(seed).split(12))
        blocks_mag = mlp.kfac_factors(theta, halves[1], cfg.fisher_mode,
                                      Rng(seed).split(13))
        fits.append(("debiased", seed, debias_kfac(blocks_dir, blocks_mag), 2000 + seed))
    return fits


def _fit_metrics(mlp, post, grid, pred_cfg, labels, lins) -> list:
    """Predictive metrics of one fit's posterior at every prior precision in
    grid: one set of draws serves every beta, the posterior's factor
    eigendecompositions are re-pointed, and lins (one linearization per
    input set) serve every call."""
    noise = draw_noise(post, pred_cfg)
    out = []
    for beta in grid:
        post_beta = post.with_beta(beta)
        out.append(_predictive_metrics(
            lambda lin: predictive(post_beta, mlp, lin, pred_cfg, noise), labels, lins))
    return out


def _run_laplace_sweep(cfg: ExperimentConfig, out_dir: Path) -> dict:
    dataset, mlp, checkpoints = _prepare(cfg)
    theta = checkpoints[-1].params
    single_size = cfg.batch_sizes[0]
    half = max(1, single_size // 2)
    fits = _laplace_fits(cfg, dataset, mlp, theta, single_size, half)
    grid = cfg.la_grid

    # the network at theta* on each input set, shared by the MAP metrics and
    # every posterior
    lins = [mlp.linearize(theta, x) for x in (dataset.test_inputs, dataset.ood_inputs)
            if x is not None]
    labels = dataset.test_labels
    map_metrics = _predictive_metrics(lambda lin: softmax(lin.logits), labels, lins)
    # each fit's factors are eigendecomposed once, at the first beta
    per_fit = [
        _fit_metrics(mlp, build_posterior(blocks, theta, dataset.n_train, grid[0]),
                     grid, PredictiveConfig(cfg.mc_samples, pred_seed), labels, lins)
        for _, _, blocks, pred_seed in fits
    ]

    rows = []
    nll_at_min_beta = {}
    min_beta = min(grid)
    for j, beta in enumerate(grid):
        rows.extend(["map", beta, metric, value, -1] for metric, value in map_metrics.items())
        for (method, seed, _, _), metrics in zip(fits, per_fit):
            m = metrics[j]
            rows.extend([method, beta, metric, value, seed] for metric, value in m.items())
            if beta == min_beta:
                nll_at_min_beta[method if seed < 0 else f"{method}_s{seed}"] = m["nll"]

    write_csv(out_dir / "la_sweep.csv", LA_SWEEP_HEADER, rows, cfg.digest)

    def _series(method, metric, seed):
        pts = [(r[1], r[3]) for r in rows
               if r[0] == method and r[2] == metric and r[4] == seed]
        pts.sort()
        return [p[0] for p in pts], [p[1] for p in pts]

    svg = {"fullbatch": _series("fullbatch", "nll", -1),
           "map": _series("map", "nll", -1)}
    for seed in cfg.seeds:
        svg[f"single s{seed}"] = _series("single", "nll", seed)
        svg[f"debiased s{seed}"] = _series("debiased", "nll", seed)
    write_svg_lines(out_dir / "la_sweep_nll.svg", svg,
                    title="NLL vs prior precision", digest=cfg.digest)

    full_nll = nll_at_min_beta["fullbatch"]
    closer = sum(
        abs(nll_at_min_beta[f"debiased_s{s}"] - full_nll)
        <= abs(nll_at_min_beta[f"single_s{s}"] - full_nll)
        for s in cfg.seeds
    )
    return {
        "kind": cfg.kind,
        "seeds": list(cfg.seeds),
        "grid": [float(b) for b in cfg.la_grid],
        "single_batch_size": single_size,
        "debiased_batch_size": half,
        "mc_samples": cfg.mc_samples,
        "nll_at_min_beta": nll_at_min_beta,
        "debiased_closer_to_fullbatch_count": int(closer),
    }


# -- bias-over-training ----------------------------------------------------------------

def _run_bias_over_training(cfg: ExperimentConfig, out_dir: Path) -> dict:
    dataset, mlp, checkpoints = _prepare(cfg)
    batch_size = cfg.batch_sizes[0]
    seed = cfg.seeds[0]
    rows = []
    medians = []
    for ckpt in checkpoints:
        _, reports = _scan_at(cfg, dataset, mlp, ckpt.params, batch_size, seed)
        ckpt_rows, median = _summary_rows(reports, batch_size, seed,
                                          ckpt.params.n_params, epoch=ckpt.epoch)
        rows.extend(ckpt_rows)
        medians.append((ckpt.epoch, median))

    write_csv(out_dir / "bias_over_training.csv", _SUMMARY_HEADER, rows, cfg.digest)
    write_svg_lines(
        out_dir / "bias_over_training.svg",
        {"median curvature error": ([m[0] for m in medians], [m[1] for m in medians])},
        title="curvature bias over training", logy=True, digest=cfg.digest,
    )
    increasing = bool(medians[-1][1] > medians[0][1]) if len(medians) > 1 else False
    return {
        "kind": cfg.kind,
        "seed": seed,
        "batch_size": batch_size,
        "epochs": [m[0] for m in medians],
        "median_curvature_error_by_epoch": {str(e): v for e, v in medians},
        "bias_increases_over_training": increasing,
        "note": "trend logged, not gated",
    }


# -- size-sweep -------------------------------------------------------------------------

def _run_size_sweep(cfg: ExperimentConfig, out_dir: Path) -> dict:
    rows = []
    medians = []
    dataset = generate_dataset(cfg.dataset)
    batch_size = cfg.batch_sizes[0]
    seed = cfg.seeds[0]
    for width in cfg.widths:
        arch = MlpArchitecture(
            (cfg.dataset.d, width, cfg.dataset.c),
            cfg.arch.activation, cfg.arch.loss,
        )
        checkpoints = train(arch, dataset, cfg.train)
        mlp = Mlp(arch)
        theta = checkpoints[-1].params
        _, reports = _scan_at(cfg, dataset, mlp, theta, batch_size, seed)
        width_rows, median = _summary_rows(reports, batch_size, seed, theta.n_params,
                                           width=width)
        rows.extend(width_rows)
        medians.append((width, theta.n_params, median))

    write_csv(out_dir / "size_sweep.csv", _SUMMARY_HEADER, rows, cfg.digest)
    write_svg_lines(
        out_dir / "size_sweep.svg",
        {"median curvature error": ([m[1] for m in medians], [m[2] for m in medians])},
        title="curvature bias vs parameter count", logy=True, digest=cfg.digest,
    )
    increasing = bool(medians[-1][2] > medians[0][2]) if len(medians) > 1 else False
    return {
        "kind": cfg.kind,
        "seed": seed,
        "batch_size": batch_size,
        "widths": [m[0] for m in medians],
        "n_params": [m[1] for m in medians],
        "median_curvature_error_by_width": {str(w): v for w, _, v in medians},
        "bias_increases_with_size": increasing,
        "note": "trend logged, not gated",
    }
