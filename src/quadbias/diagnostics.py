"""Bias measurement machinery: directional scans across mini-batches,
eigenspace overlap matrices, the spectral decomposition of cross-batch
curvatures, slope-bias analysis, and relative-error summaries.

The eigendirection scan scores every curvature kind from per-row
forward-mode terms: one pass over the training rows, then every batch's
score is the mean of its rows and the full-batch score the mean of all rows
(K-FAC curvatures come from the Kronecker factors). The CG scan reads every
quadratic on the whole block of its directions at its iterates, with one
``in_span`` call (one ``gram`` of the block). Scan data is stored raw, in
the solver's direction order and sign, as (k, M + 1) tables with the
full-batch quadratic in the last column.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap

import numpy as np

from .errors import ValidationError, as_integers, check_counts, require_finite
from .cg import CgConfig, cg_minimize
from .linalg import EigenDecomposition, Rng, top_k_eigenpairs
from .model import Batch, Mlp, ParamVector
from .quadratic import (
    QuadraticModel,
    _kfac_product,
    _traces,
    accumulate_kfac,
    build_quadratic,
    check_shared_anchor,
    grad_at,
    in_span,
    step_coefficients,
)

# |fullbatch| below this excludes a direction from relative-error statistics.
RELERR_FLOOR = 1e-14

# Grayscale rendering range for overlap entries (log10 scale).
OVERLAP_BLACK = 1e-8


@dataclass
class ScanReport:
    """Directional slopes/curvatures along one source batch's directions
    (rows) of every batch's quadratic, in batch_ids order, and of the
    full-batch quadratic, the last column."""

    source_batch: object
    batch_ids: list
    slopes: np.ndarray  # k x (M + 1)
    curvatures: np.ndarray  # k x (M + 1)

    @property
    def k(self) -> int:
        return self.slopes.shape[0]

    def source_column(self) -> int:
        return self.batch_ids.index(self.source_batch)


@dataclass
class OverlapMatrix:
    """Squared inner products between two eigenbases, entries in [0, 1]."""

    omega: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=np.float64)
        if not np.all((om >= -1e-12) & (om <= 1.0 + 1e-12)):  # a NaN fails too
            raise ValidationError("overlap entries must lie in [0, 1]")
        self.omega = om

    def row_sums(self) -> np.ndarray:
        """Captured mass per row; equals 1 when the second basis is complete."""
        return self.omega.sum(axis=1)

    def to_grayscale(self) -> np.ndarray:
        """Grayscale rendering values: 0 (black) at omega <= 1e-8, 1 (white)
        at omega = 1, log-linear in between."""
        clipped = np.clip(self.omega, OVERLAP_BLACK, 1.0)
        return (np.log10(clipped) + 8.0) / 8.0


@dataclass
class BiasSummary:
    """Relative errors of same-batch measurements against the full-batch
    truth, with the aggregates used by the trend reports."""

    relative_errors: np.ndarray
    mean: float
    p25: float
    median: float
    p75: float
    n_excluded: int
    source_batch: object


def _checked_parts(data: Batch, parts: list) -> list:
    """Each part as int64 row positions into data; no part at all, or a part
    that is empty or holds an entry that is not a whole number in
    [0, data.size), raises ValidationError naming it."""
    out = [as_integers(f"part {i}", pos) for i, pos in enumerate(parts)]
    if not out:
        raise ValidationError("no part to take eigen directions from")
    for i, pos in enumerate(out):
        if pos.ndim != 1 or pos.size == 0 or not np.all((0 <= pos) & (pos < data.size)):
            raise ValidationError(f"part {i} must be one or more row positions in "
                                  f"[0, {data.size}), got {pos}")
    return out


def _part_kfac_rng(rng: Rng, i: int) -> Rng:
    """Part i's K-FAC stream, read by its eigensolve and by its scores."""
    return rng.split(10_000 + i)


def source_eigenbases(mlp: Mlp, theta_star: ParamVector, data: Batch, parts: list, k: int,
                      kind: str = "ggn", beta: float = 0.0, delta: float = 0.0, *, rng: Rng,
                      n_sources: int | None = None, fisher_mode: str = "mc_sample") -> list:
    """Top-k eigenpairs of the quadratic of each source part's rows of data,
    the sources the first n_sources parts (every part when None or above
    len(parts); to pick others, put them first). Source m's eigensolve starts
    from rng.split(m), its K-FAC factors from _part_kfac_rng(rng, m); each
    quadratic is built for its own eigensolve and dropped after it."""
    parts = _checked_parts(data, parts)
    n = len(parts) if n_sources is None else n_sources
    check_counts(n_sources=n)
    return [top_k_eigenpairs(
        build_quadratic(mlp, theta_star, data.rows(parts[m]),
                        kind, beta, delta, m, fisher_mode, _part_kfac_rng(rng, m)).curvature,
        theta_star.n_params, k, rng.split(m)) for m in range(min(n, len(parts)))]


def _row_scores(mlp, theta, data, parts, blocks, kind, beta, delta, rng, chunk_size,
                fisher_mode) -> list:
    """Slopes and curvatures of every part's quadratic and the full-batch one
    (last) along each (P, k) block, (k, parts + 1, 2) per block: row means
    of one forward-mode pass of all blocks over data, plus the regularizer.
    The K-FAC curvatures are d . (A x B) d instead, from part i's factors on
    _part_kfac_rng(rng, i) and the full-batch factors on rng.split(20_000),
    so the pass computes only the slopes there."""
    d = np.hstack(blocks)
    terms = np.concatenate(list(starmap(  # one chunk's trace at a time
        lambda _, lin: lin.row_terms(d, kind == "hessian", kind != "kfac"),
        _traces(mlp, theta, data, chunk_size))), axis=1)
    require_finite("eigendirection_scan", row_term=terms)
    means = np.stack([terms[:, pos].mean(axis=1) for pos in parts]
                     + [terms.mean(axis=1)], axis=1)
    if kind == "kfac":
        factors = [mlp.kfac_factors(theta, data.rows(pos), fisher_mode, _part_kfac_rng(rng, i))
                   for i, pos in enumerate(parts)]
        full = accumulate_kfac(mlp, theta, data, fisher_mode, rng.split(20_000), chunk_size)
        means[..., 1] = np.column_stack([np.einsum("pk,pk->k", d, _kfac_product(f, theta)(d))
                                         for f in [*factors, full]])
    w = np.r_[tuple(e.span for e in theta.weight_entries)]
    d_w = d[w]
    reg = np.stack([beta * (theta.values[w] @ d_w),
                    beta * np.einsum("ij,ij->j", d_w, d_w)
                    + delta * np.einsum("ij,ij->j", d, d)], axis=-1)
    return np.split(means + reg[:, None], len(blocks))


def eigendirection_scan(mlp: Mlp, theta_star: ParamVector, data: Batch, parts: list,
                        k: int, kind: str = "ggn", beta: float = 0.0, delta: float = 0.0, *,
                        rng: Rng, chunk_size: int = 512, n_sources: int | None = None,
                        fisher_mode: str = "mc_sample"):
    """Top-k eigenvectors of the first n_sources parts (``source_eigenbases``),
    then slopes/curvatures of every part's quadratic and the full-batch one
    (the last column) along them; returns (eigenbases, reports), one entry
    per source part, report m labelled part m.

    Each part is the row positions of one mini-batch in data. Scores are row
    means of ``Linearization.row_terms`` from one forward-mode pass of all
    sources' directions over data in chunk_size chunks, a part's score the
    mean at its positions. K-FAC takes its curvatures from each part's and
    the full-batch Kronecker factors.
    """
    eigs = source_eigenbases(mlp, theta_star, data, parts, k, kind, beta, delta, rng=rng,
                             n_sources=n_sources, fisher_mode=fisher_mode)
    parts = _checked_parts(data, parts)
    scores = _row_scores(mlp, theta_star, data, parts, [e.basis for e in eigs], kind, beta,
                         delta, rng, chunk_size, fisher_mode)
    batch_ids = list(range(len(parts)))
    return eigs, [ScanReport(m, batch_ids, s[..., 0], s[..., 1])
                  for m, s in enumerate(scores)]


def cg_direction_scan(
    q_b: QuadraticModel,
    batch_quads: list,
    q_full: QuadraticModel,
    config: CgConfig,
):
    """Run CG on q_b for at most config.p_max steps, then read the slope and
    curvature along each search direction d_p at its iterate theta_p, for
    every batch quadratic and the full-batch one (the last column); all must
    share q_b's anchor. The implied 1D Newton magnitudes are
    -slopes / curvatures.

    Each quadratic is read with one ``in_span`` call on the direction block D
    at the rows of ``step_coefficients`` (n matvecs for n directions and no
    iterate). If CG stops early on negative curvature (``trace.termination``)
    the scan is truncated at the achieved length, possibly zero.
    """
    quads = [*batch_quads, q_full]
    check_shared_anchor([q_b, *quads])
    trace = cg_minimize(q_b, config)
    steps = step_coefficients(trace.magnitudes)[:trace.n_steps]
    spans = [in_span(q, trace.directions, steps) for q in quads]
    m = np.stack([np.column_stack([np.diagonal(s), c]) for _, s, c in spans], axis=1)
    return trace, ScanReport(q_b.batch_id, [q.batch_id for q in batch_quads],
                             m[..., 0], m[..., 1])


def overlap_matrix(u: EigenDecomposition, u_tilde: EigenDecomposition) -> OverlapMatrix:
    """Omega_{i,p} = (u_i . u~_p)^2 between two eigenbases."""
    if u.basis.shape[0] != u_tilde.basis.shape[0]:
        raise ValidationError("eigenbases live in different ambient dimensions")
    inner = u.basis.T @ u_tilde.basis
    return OverlapMatrix(np.clip(inner * inner, 0.0, 1.0 + 1e-12))


def spectral_transfer(
    eig_b: EigenDecomposition,
    eig_bt: EigenDecomposition,
    omega: OverlapMatrix,
) -> np.ndarray:
    """Cross-batch curvatures predicted from spectra and overlaps:
    sum_p lambda~_p Omega_{i,p} for each direction u_i; on full bases this
    equals the direct quadratic form u_i^T H~ u_i."""
    if omega.omega.shape != (eig_b.k, eig_bt.k):
        raise ValidationError("overlap matrix shape does not match the bases")
    return omega.omega @ eig_bt.eigenvalues


@dataclass(frozen=True)
class SlopeBias:
    slope_b: float
    slope_bt: float
    angle: float
    grad_norm_b: float
    grad_norm_bt: float


def slope_bias(q_b: QuadraticModel, q_bt: QuadraticModel, theta) -> SlopeBias:
    """Slopes of both quadratics along the first batch's steepest-descent
    direction at theta, plus the angle between the two gradients.

    The first slope is exactly -||grad q_b||; the second equals
    -(grad q_b . grad q_bt)/||grad q_b|| and, for equal gradient norms,
    exceeds the first by ||grad q_b|| (1 - cos angle).
    """
    g_b = grad_at(q_b, theta)
    g_bt = grad_at(q_bt, theta)
    norm_b = float(np.linalg.norm(g_b))
    norm_bt = float(np.linalg.norm(g_bt))
    if norm_b == 0.0:
        raise ValidationError("gradient of the first quadratic vanishes at theta")
    d = -g_b / norm_b
    cos = float(g_b @ g_bt) / (norm_b * norm_bt) if norm_bt > 0 else 1.0
    return SlopeBias(
        slope_b=float(d @ g_b),
        slope_bt=float(d @ g_bt),
        angle=float(np.arccos(np.clip(cos, -1.0, 1.0))),
        grad_norm_b=norm_b,
        grad_norm_bt=norm_bt,
    )


def above_floor(measured: np.ndarray, truth: np.ndarray, statistic: str) -> np.ndarray:
    """Where |truth| >= RELERR_FLOOR, the entries a statistic relative to truth
    keeps; a non-finite value raises NumericalError naming the statistic."""
    require_finite(statistic, measured=measured, truth=truth)
    return np.abs(truth) >= RELERR_FLOOR


def relative_errors(measured: np.ndarray, truth: np.ndarray):
    """|measured - truth| / |truth| with near-zero truths excluded and counted."""
    measured = np.asarray(measured, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    keep = above_floor(measured, truth, "relative error")
    errs = np.abs(measured[keep] - truth[keep]) / np.abs(truth[keep])
    return errs, int(np.sum(~keep))


def bias_summary(scans: list, quantity: str) -> list:
    """Per-scan relative errors of the same-batch values against the
    full-batch column, aggregated into mean and quartiles."""
    if quantity not in ("slope", "curvature"):
        raise ValidationError(f"unknown quantity {quantity!r}")
    out = []
    for scan in scans:
        table = scan.curvatures if quantity == "curvature" else scan.slopes
        errs, n_excl = relative_errors(table[:, scan.source_column()], table[:, -1])
        if errs.size:
            p25, med, p75 = np.percentile(errs, [25, 50, 75])
            mean = float(np.mean(errs))
        else:
            p25 = med = p75 = mean = float("nan")
        out.append(
            BiasSummary(
                relative_errors=errs,
                mean=mean,
                p25=float(p25),
                median=float(med),
                p75=float(p75),
                n_excluded=n_excl,
                source_batch=scan.source_batch,
            )
        )
    return out
