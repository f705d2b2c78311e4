"""Experiment orchestration: each kind wires datasets, training, and the
analysis modules together and persists CSV tables, a JSON summary, and SVG
views into a result directory. Each table's header is stated here, beside
the code that builds its rows; reports.write_csv writes them.

Every experiment is a pure function of its config (seeds included); rerunning
with the same config reproduces the numeric outputs byte for byte.
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np

from ..cg import CgConfig, cg_minimize, debiased_cg
from ..diagnostics import (
    RELERR_FLOOR,
    above_floor,
    bias_summary,
    eigendirection_scan,
    overlap_matrix,
    source_eigenbases,
)
from ..errors import ValidationError
from ..laplace import (
    accumulate_kfac,
    build_posterior,
    debias_kfac,
    draw_noise,
    predictive,
)
from ..linalg import Rng
from ..metrics import ProbTable, accuracy, auroc, ece, nll, predictive_entropy
from ..model import Mlp, MlpArchitecture, softmax
from ..quadratic import build_quadratic, fullbatch_quadratic, trajectory_values
from .config import ExperimentConfig, write_config
from .datasets import generate_dataset
from .reports import write_csv, write_summary, write_svg_heatmap, write_svg_lines
from .training import train

logger = logging.getLogger(__name__)


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
        "bias-over-training": _run_scan_sweep,
        "size-sweep": _run_scan_sweep,
    }[cfg.kind]
    summary = runner(cfg, out_dir)
    write_summary(out_dir / "summary.json", cfg.digest, {"kind": cfg.kind, **summary})
    return out_dir


def _dataset(cfg: ExperimentConfig):
    """The config's dataset, checked before any training to fit the layers and
    to hold one full batch of every batch size the kind reads (bias-scan all,
    the others the first) and two half batches for cg-compare without
    force_same_batch and laplace-sweep."""
    dataset = generate_dataset(cfg.dataset)
    cfg.check_layers(dataset.dim, dataset.n_classes)
    if cfg.kind == "laplace-sweep" and dataset.test_inputs.shape[0] == 0:
        raise ValidationError("laplace-sweep needs test rows to score its predictive, "
                              "but the dataset's test split is empty (train_frac = 1?)")
    sizes = cfg.batch_sizes if cfg.kind == "bias-scan" else cfg.batch_sizes[:1]
    need = max(sizes)
    if cfg.kind == "laplace-sweep" or (cfg.kind == "cg-compare" and not cfg.force_same_batch):
        need = max(need, 2 * _half(sizes[0]))
    if dataset.n_train < need:
        raise ValidationError(
            f"config key 'batch_sizes': {cfg.kind} reads batch sizes "
            f"{','.join(map(str, sizes))} and needs {need} training rows, the dataset "
            f"has {dataset.n_train}")
    return dataset


def _half(batch_size: int) -> int:
    """The size of each of the two half batches cg-compare and laplace-sweep draw."""
    return max(1, batch_size // 2)


def _prepare(cfg: ExperimentConfig):
    """The dataset, the network and the parameters its training ends at; the
    earlier checkpoints are not kept."""
    dataset = _dataset(cfg)
    return dataset, Mlp(cfg.arch), train(cfg.arch, dataset, cfg.train)[-1].params


# -- bias-scan -----------------------------------------------------------------

def _scan_sources(cfg, dataset, theta, batch_size, seed) -> dict:
    """The arguments ``source_eigenbases`` and ``eigendirection_scan`` share:
    the training rows and their mini-batch partition of one scan, the first
    n_source_batches parts the sources, and the eigensolve settings."""
    return dict(data=dataset.train_batch(),
                parts=dataset.partition(batch_size, seed=seed, drop_last=True),
                k=min(cfg.n_directions, theta.n_params), kind=cfg.curvature, beta=cfg.beta,
                delta=cfg.delta, rng=Rng(seed).split(7), n_sources=cfg.n_source_batches,
                fisher_mode=cfg.fisher_mode)


def _scan_at(cfg, dataset, mlp, theta, batch_size, seed):
    """Eigenbases and reports of the eigendirection scan from the first
    n_source_batches minibatches across every minibatch."""
    return eigendirection_scan(mlp, theta, chunk_size=cfg.chunk_size,
                               **_scan_sources(cfg, dataset, theta, batch_size, seed))


def _summary_rows(reports, batch_size, seed, n_params, epoch="", width=""):
    """CSV rows of the slope and curvature summaries, and the median of the
    curvature relative errors pooled over the source batches."""
    rows = []
    for quantity in ("slope", "curvature"):
        summaries = bias_summary(reports, quantity)
        for summ in summaries:
            rows.append([
                batch_size, seed, epoch, width, n_params, summ.source_batch, quantity,
                summ.mean, summ.p25, summ.median, summ.p75, summ.n_excluded,
            ])
    # summaries holds the loop's last quantity, the curvature
    errs = np.concatenate([summ.relative_errors for summ in summaries])
    return rows, float(np.median(errs)) if errs.size else float("nan")


def _ratio_stats(reports, batch_size, seed) -> dict:
    """Same-batch over full-batch curvature along each source batch's top
    eigendirection. A full-batch value below RELERR_FLOOR in magnitude
    excludes its report, as in relative_errors; both statistics are NaN when
    no report is left."""
    same = np.array([rep.curvatures[0, rep.source_column()] for rep in reports])
    full = np.array([rep.curvatures[0, -1] for rep in reports])
    kept = above_floor(same, full, "bias-scan curvature ratio")
    if not kept.all():
        logger.warning("bias-scan batch size %d, seed %d: %d of %d curvature ratios "
                       "excluded (|full-batch curvature| < %g)", batch_size, seed,
                       np.sum(~kept), len(reports), RELERR_FLOOR)
    ratios = same[kept] / full[kept]
    if not ratios.size:
        return {"overestimated_fraction": float("nan"), "median_ratio": float("nan")}
    return {"overestimated_fraction": float(np.mean(ratios > 1.0)),
            "median_ratio": float(np.median(ratios))}


_SUMMARY_HEADER = [
    "batch_size", "seed", "epoch", "width", "n_params", "source_batch",
    "quantity", "mean", "p25", "median", "p75", "n_excluded",
]


def _scan_table(report) -> tuple:
    """Header and rows of one report's scan CSV, batch_id FULL marking the
    full-batch row."""
    ids = [*report.batch_ids, "FULL"]
    return (["direction_index", "batch_id", "slope", "curvature"],
            [[i, bid, report.slopes[i, j], report.curvatures[i, j]]
             for i in range(report.k) for j, bid in enumerate(ids)])


def _run_bias_scan(cfg: ExperimentConfig, out_dir: Path) -> dict:
    dataset, mlp, theta = _prepare(cfg)
    n_params = theta.n_params

    summary_rows = []
    ratio_stats = {}
    medians = {}
    for batch_size in cfg.batch_sizes:
        for seed in cfg.seeds:
            _, reports = _scan_at(cfg, dataset, mlp, theta, batch_size, seed)
            for rep in reports:
                write_csv(out_dir / f"scan_b{batch_size}_s{seed}_m{rep.source_batch}.csv",
                          *_scan_table(rep), cfg.digest)
            rows, medians[(batch_size, seed)] = _summary_rows(reports, batch_size,
                                                              seed, n_params)
            summary_rows.extend(rows)
            ratio_stats[f"b{batch_size}_s{seed}"] = _ratio_stats(reports, batch_size, seed)

    write_csv(out_dir / "bias_summary.csv", _SUMMARY_HEADER, summary_rows, cfg.digest)

    # batch-size trend: is the pooled median error strictly decreasing?
    trend = {}
    for seed in cfg.seeds:
        series = [medians[(b, seed)] for b in cfg.batch_sizes]
        trend[str(seed)] = {"medians": series, "strictly_decreasing": bool(
            all(a > b for a, b in zip(series, series[1:])))}
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
        "seeds": list(cfg.seeds),
        "batch_sizes": list(cfg.batch_sizes),
        "n_params": n_params,
        "partition": "seeded shuffle, disjoint sequential slices",
        "curvature_ratio_stats": ratio_stats,
        "batch_size_trend": trend,
    }


# -- overlap --------------------------------------------------------------------

def _run_overlap(cfg: ExperimentConfig, out_dir: Path) -> dict:
    dataset, mlp, theta = _prepare(cfg)
    batch_size = cfg.batch_sizes[0]
    seed = cfg.seeds[0]
    eigs = source_eigenbases(mlp, theta, **_scan_sources(cfg, dataset, theta, batch_size, seed))
    captured = {}
    for a in range(len(eigs)):
        for b in range(len(eigs)):
            if a == b:
                continue
            om = overlap_matrix(eigs[a], eigs[b])
            write_csv(out_dir / f"overlap_{a}_{b}.csv", ["i", "j", "omega"],
                      [[i, j, om.omega[i, j]] for i, j in np.ndindex(om.omega.shape)],
                      cfg.digest)
            write_svg_heatmap(out_dir / f"overlap_{a}_{b}.svg", om.to_grayscale(),
                              title=f"eigenspace overlap (batches {a}, {b})",
                              digest=cfg.digest)
            captured[f"{a}->{b}"] = [float(v) for v in om.row_sums()]
    return {
        "seed": seed,
        "batch_size": batch_size,
        "k": eigs[0].k,
        "captured_mass_per_row": captured,
    }


# -- cg-compare -------------------------------------------------------------------

def _trajectory_metrics(mlp, dataset, q_full, trace):
    """q_full and the test accuracy at every iterate of a trace that starts
    at q_full's anchor: the values from one gram of the trace's directions,
    the accuracies from its iterates, rebuilt one at a time."""
    q_vals = trajectory_values(q_full, trace.directions, trace.magnitudes).tolist()
    if dataset.test_inputs.shape[0] == 0:
        return q_vals, [float("nan")] * len(q_vals)
    test_acc = []
    for th in trace.iterates():
        logits = mlp.forward(q_full.theta0.with_values(th), dataset.test_inputs)
        preds = np.argmax(logits, axis=1)
        test_acc.append(float(np.mean(preds == dataset.test_labels)))
    return q_vals, test_acc


def _run_cg_compare(cfg: ExperimentConfig, out_dir: Path) -> dict:
    dataset, mlp, theta = _prepare(cfg)
    q_full = fullbatch_quadratic(
        mlp, theta, dataset.train_batch(), cfg.curvature, cfg.beta, cfg.delta,
        cfg.chunk_size, cfg.fisher_mode, Rng(0).split(99),
    )
    q_anchor = q_full.constant
    cg_cfg = CgConfig(epsilon=1e-12, p_max=cfg.cg_iterations)

    header = ["method", "seed", "iteration", "q_fullbatch", "test_accuracy"]
    rows = []
    series = {}
    terminations = {}
    finals = {}
    stable = {}
    single_size = cfg.batch_sizes[0]
    half = _half(single_size)

    def score(method, seed, trace):
        """Rows, plot series, termination and final value of one trajectory;
        the trace is not kept, so its direction block is freed before the
        next one runs."""
        q_vals, acc = _trajectory_metrics(mlp, dataset, q_full, trace)
        rows.extend([method, seed, i, qv, a] for i, (qv, a) in enumerate(zip(q_vals, acc)))
        series[f"{method} s{seed}"] = (list(range(len(q_vals))), q_vals)
        terminations[f"{method}_s{seed}"] = trace.termination
        finals[f"{method}_s{seed}"] = q_vals[-1]
        return q_vals

    def batch_quadratic(seed, batch, batch_id, stream):
        return build_quadratic(mlp, theta, batch, cfg.curvature, cfg.beta, cfg.delta,
                               batch_id=batch_id, fisher_mode=cfg.fisher_mode,
                               rng=Rng(seed).split(stream))

    def debiased_pair(seed, single):
        """The direction and magnitude quadratics: the two half batches', or
        in congruence mode (force_same_batch) the single-batch quadratic,
        rebuilt bit for bit from its batch and stream, as both, so the
        debiased trajectory reproduces the single-batch one exactly."""
        if cfg.force_same_batch:
            q_b = batch_quadratic(seed, single, 0, 1)
            return q_b, q_b
        halves = dataset.first_minibatches(2, half, seed)
        return tuple(batch_quadratic(seed, halves[i], name, 2 + i)
                     for i, name in enumerate(("dir", "mag")))

    # each quadratic is an argument of its solver call alone, so it is freed
    # when the solver returns, before the trajectory is scored
    for seed in cfg.seeds:
        single = dataset.first_minibatches(1, single_size, seed)[0]
        score("single", seed, cg_minimize(batch_quadratic(seed, single, 0, 1), cg_cfg))
        # the direction trace (first of the pair) is dropped unscored
        q_vals_d = score("debiased", seed, debiased_cg(*debiased_pair(seed, single), cg_cfg)[1])
        stable[f"debiased_s{seed}"] = bool(max(q_vals_d) <= q_anchor + 1e-12)

    write_csv(out_dir / "cg_compare.csv", header, rows, cfg.digest)
    write_svg_lines(out_dir / "cg_compare.svg", series,
                    title="full-batch quadratic along CG trajectories",
                    digest=cfg.digest)

    better = sum(
        finals[f"debiased_s{s}"] <= finals[f"single_s{s}"] for s in cfg.seeds
    )
    return {
        "seeds": list(cfg.seeds),
        "single_batch_size": single_size,
        "debiased_batch_size": single_size if cfg.force_same_batch else half,
        "force_same_batch": cfg.force_same_batch,
        "q_at_anchor": q_anchor,
        "terminations": terminations,
        "final_q_fullbatch": finals,
        "debiased_never_above_anchor": stable,
        "debiased_final_leq_single_count": int(better),
    }


# -- laplace-sweep -----------------------------------------------------------------

def _predictive_metrics(probs, labels, n_test):
    """accuracy / nll / ece on the first n_test rows of probs (the test set),
    auroc + mean entropy with the rows after them (the OOD set) when there
    are any."""
    table = ProbTable(probs[:n_test], labels)
    out = {
        "accuracy": accuracy(table),
        "nll": nll(table),
        "ece": ece(table),
    }
    if probs.shape[0] > n_test:
        ent = predictive_entropy(probs)
        out["auroc"] = auroc(ent, np.arange(probs.shape[0]) >= n_test)
        out["mean_ood_entropy"] = float(np.mean(ent[n_test:]))
    return out


def _laplace_fits(cfg, dataset, mlp, theta, single_size, half) -> list:
    """(method, seed, K-FAC factors, predictive seed) in row order; seed -1
    marks the full-batch factors. Built in a frame of its own, so that the
    minibatches are freed before the sweep runs."""
    fits = [("fullbatch", -1, accumulate_kfac(mlp, theta, dataset.train_batch(),
                                              cfg.fisher_mode, Rng(0).split(50),
                                              cfg.chunk_size), 1000)]
    for seed in cfg.seeds:
        batch = dataset.first_minibatches(1, single_size, seed)[0]
        fits.append(("single", seed, mlp.kfac_factors(
            theta, batch, cfg.fisher_mode, Rng(seed).split(11)), 2000 + seed))
    for seed in cfg.seeds:
        halves = dataset.first_minibatches(2, half, seed)
        blocks_dir = mlp.kfac_factors(theta, halves[0], cfg.fisher_mode,
                                      Rng(seed).split(12))
        blocks_mag = mlp.kfac_factors(theta, halves[1], cfg.fisher_mode,
                                      Rng(seed).split(13))
        fits.append(("debiased", seed, debias_kfac(blocks_dir, blocks_mag), 2000 + seed))
    return fits


def _fit_metrics(post, grid, s_samples, seed, labels, lin, n_test) -> list:
    """Predictive metrics of one fit's posterior at every prior precision in
    grid: one set of s_samples draws from seed serves every beta, the
    posterior's factor eigendecompositions are re-pointed, and lin (the
    linearization of the test rows, then any OOD rows) serves every call."""
    noise = draw_noise(post, s_samples, seed)
    return [_predictive_metrics(predictive(post.with_beta(beta), lin, noise),
                                labels, n_test)
            for beta in grid]


def _run_laplace_sweep(cfg: ExperimentConfig, out_dir: Path) -> dict:
    dataset, mlp, theta = _prepare(cfg)
    single_size = cfg.batch_sizes[0]
    half = _half(single_size)
    fits = _laplace_fits(cfg, dataset, mlp, theta, single_size, half)
    grid = cfg.la_grid

    # the network at theta* on the test rows stacked over any OOD rows, shared
    # by the MAP metrics and every posterior
    n_test = dataset.test_inputs.shape[0]
    lin = mlp.linearize(theta, np.vstack([x for x in (dataset.test_inputs, dataset.ood_inputs)
                                          if x is not None]))
    labels = dataset.test_labels
    map_probs = lin.probs if lin.probs is not None else softmax(lin.logits)  # None for mse
    map_metrics = _predictive_metrics(map_probs, labels, n_test)
    # each fit's factors are eigendecomposed once, at the first beta
    per_fit = [
        _fit_metrics(build_posterior(blocks, theta, dataset.n_train, grid[0]), grid,
                     cfg.mc_samples, pred_seed, labels, lin, n_test)
        for _, _, blocks, pred_seed in fits
    ]

    rows = []
    for j, beta in enumerate(grid):
        rows.extend(["map", beta, metric, value, -1] for metric, value in map_metrics.items())
        for (method, seed, _, _), metrics in zip(fits, per_fit):
            rows.extend([method, beta, metric, value, seed]
                        for metric, value in metrics[j].items())
    write_csv(out_dir / "la_sweep.csv", ["method", "beta", "metric", "value", "seed"], rows,
              cfg.digest)

    # NLL curves over increasing beta; ties keep grid order
    order = np.argsort(grid, kind="stable")
    betas = [grid[j] for j in order]
    svg = {"map": (betas, [map_metrics["nll"]] * len(betas))}
    nll_at_min_beta = {}
    for (method, seed, _, _), metrics in zip(fits, per_fit):
        svg[method if seed < 0 else f"{method} s{seed}"] = (
            betas, [metrics[j]["nll"] for j in order])
        nll_at_min_beta[method if seed < 0 else f"{method}_s{seed}"] = metrics[order[0]]["nll"]
    write_svg_lines(out_dir / "la_sweep_nll.svg", svg,
                    title="NLL vs prior precision", digest=cfg.digest)

    full_nll = nll_at_min_beta["fullbatch"]
    closer = sum(
        abs(nll_at_min_beta[f"debiased_s{s}"] - full_nll)
        <= abs(nll_at_min_beta[f"single_s{s}"] - full_nll)
        for s in cfg.seeds
    )
    return {
        "seeds": list(cfg.seeds),
        "grid": [float(b) for b in cfg.la_grid],
        "single_batch_size": single_size,
        "debiased_batch_size": half,
        "mc_samples": cfg.mc_samples,
        "nll_at_min_beta": nll_at_min_beta,
        "debiased_closer_to_fullbatch_count": int(closer),
    }


# -- bias-over-training and size-sweep ------------------------------------------------

def _run_scan_sweep(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """One scan per (label, n_params, mlp, theta) point: every checkpoint of
    one training (bias-over-training, label = epoch) or the last checkpoint
    of one training per width (size-sweep); one CSV, one plot, one trend."""
    dataset = _dataset(cfg)
    if cfg.kind == "bias-over-training":
        axis, stem, title = "epoch", "bias_over_training", "curvature bias over training"
        mlp = Mlp(cfg.arch)
        points = [(c.epoch, c.params.n_params, mlp, c.params)
                  for c in train(cfg.arch, dataset, cfg.train)]
    else:
        axis, stem, title = "width", "size_sweep", "curvature bias vs parameter count"
        points = _width_points(cfg, dataset)
    batch_size, seed = cfg.batch_sizes[0], cfg.seeds[0]
    rows, per_point = [], []
    for label, n_params, mlp, theta in points:
        _, reports = _scan_at(cfg, dataset, mlp, theta, batch_size, seed)
        point_rows, median = _summary_rows(reports, batch_size, seed, n_params,
                                           **{axis: label})
        rows.extend(point_rows)
        per_point.append((label, n_params, median))
    labels, sizes, medians = (list(col) for col in zip(*per_point))

    write_csv(out_dir / f"{stem}.csv", _SUMMARY_HEADER, rows, cfg.digest)
    write_svg_lines(
        out_dir / f"{stem}.svg",
        {"median curvature error": (labels if axis == "epoch" else sizes, medians)},
        title=title, logy=True, digest=cfg.digest,
    )
    grew = bool(medians[-1] > medians[0])  # False for a single point
    summary = {
        "seed": seed,
        "batch_size": batch_size,
        f"{axis}s": labels,
        f"median_curvature_error_by_{axis}": {str(l): v for l, v in zip(labels, medians)},
        "note": "trend logged, not gated",
    }
    if axis == "epoch":
        return {**summary, "bias_increases_over_training": grew}
    return {**summary, "n_params": sizes, "bias_increases_with_size": grew}


def _width_points(cfg, dataset):
    """(width, n_params, mlp, theta) of one training per width, trained as
    the sweep reaches it."""
    for width in cfg.widths:
        arch = MlpArchitecture((dataset.dim, width, dataset.n_classes),
                               cfg.arch.activation, cfg.arch.loss)
        theta = train(arch, dataset, cfg.train)[-1].params
        yield width, theta.n_params, Mlp(arch), theta
