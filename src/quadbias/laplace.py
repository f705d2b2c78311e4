"""Kronecker-factored Laplace posterior: construction, sampling, debiasing,
and the Monte-Carlo predictive through the linearized network. The
full-dataset factors come from ``accumulate_kfac``, shared with the
full-batch K-FAC quadratic.

The posterior covariance per layer block is N^-1 (A otimes B + beta I)^-1 and
is never materialized: the factor eigendecompositions A = U_A S_A U_A^T,
B = U_B S_B U_B^T give the block eigenbasis U_A otimes U_B with eigenvalues
S_A otimes S_B, so inversion, sampling, and eigenvalue surgery all happen at
factor level. Bias parameters carry zero variance and stay at the mean.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .linalg import DenseSymMatrix, EigenDecomposition, Rng, kron_matvec, sym_eigh
from .model import KfacBlock, Mlp, ParamVector, _sym
from .quadratic import accumulate_kfac  # re-exported: the K-FAC of a whole dataset

logger = logging.getLogger(__name__)

# Factor eigenvalues below -NEG_EIG_TOL are an error; values in
# [-NEG_EIG_TOL, 0) are clamped to zero with a logged warning.
NEG_EIG_TOL = 1e-8

# Prior-precision sweep default: 13 log-equidistant values in [1e-4, 1]
# plus 10.
DEFAULT_PRIOR_GRID = tuple(np.logspace(-4.0, 0.0, 13)) + (10.0,)

DEFAULT_MC_SAMPLES = 40


def clamped_eigh(factor: DenseSymMatrix, context: str = "factor") -> EigenDecomposition:
    """Eigendecomposition with the PSD clamp applied to the spectrum."""
    try:
        eig = sym_eigh(factor)
    except np.linalg.LinAlgError as exc:  # LAPACK gives up on a factor full of NaN
        raise NumericalError(f"{context}: eigendecomposition failed: {exc}") from exc
    vals = eig.eigenvalues
    if not np.all(np.isfinite(vals)):
        raise NumericalError(f"{context}: non-finite factor eigenvalue")
    if np.any(vals < -NEG_EIG_TOL):
        raise ValidationError(
            f"{context}: eigenvalue {vals.min():.3e} below -{NEG_EIG_TOL:.0e}; "
            "factor is not positive semi-definite"
        )
    if np.any(vals < 0.0):
        logger.warning(
            "%s: clamping %d slightly negative eigenvalues (min %.3e) to zero",
            context, int(np.sum(vals < 0.0)), float(vals.min()),
        )
        vals = np.maximum(vals, 0.0)
    return EigenDecomposition(basis=eig.basis, eigenvalues=vals)


@dataclass
class _BlockEigs:
    eig_a: EigenDecomposition
    eig_b: EigenDecomposition
    kron_eigs: np.ndarray  # S_A otimes S_B in the block's vec ordering


@dataclass
class LaplacePosterior:
    """Gaussian over the weights: mean theta*, per-layer Kronecker blocks,
    training-set size N, and prior precision beta.

    Block covariance eigenvalues are 1 / (N (s + beta)) for s in the Kronecker
    product of the factor spectra; bias coordinates are deterministic at the
    mean.
    """

    mean: ParamVector
    blocks: list
    n_train: int
    beta: float
    _eigs: list = None

    @property
    def weight_entries(self) -> list:
        return [e for e in self.mean.layout if e.role == "weight"]


def build_posterior(
    blocks: list, mean: ParamVector, n_train: int, beta: float
) -> LaplacePosterior:
    """Eigendecompose each Kronecker factor once and cache the results.

    The covariance itself is never formed. Negative factor eigenvalues below
    the tolerance raise; slightly negative ones are clamped to zero.
    """
    if n_train < 1:
        raise ValidationError(f"n_train must be >= 1, got {n_train}")
    if beta < 0:
        raise ValidationError(f"beta must be >= 0, got {beta}")
    weight_entries = [e for e in mean.layout if e.role == "weight"]
    if len(weight_entries) != len(blocks):
        raise ValidationError("block list does not match the layer layout")
    for entry, blk in zip(weight_entries, blocks):
        if entry.shape != (blk.m, blk.n):
            raise ValidationError(
                f"layer {blk.layer}: factor dims ({blk.m},{blk.n}) do not "
                f"match the weight shape {entry.shape}"
            )
    eigs = []
    for blk in blocks:
        ea = clamped_eigh(blk.factor_a, f"layer {blk.layer} input factor")
        eb = clamped_eigh(blk.factor_b, f"layer {blk.layer} output factor")
        kron_eigs = np.kron(ea.eigenvalues, eb.eigenvalues)
        if beta == 0.0 and np.any(kron_eigs <= 0.0):
            raise ValidationError(
                "beta = 0 requires strictly positive factor eigenvalues"
            )
        eigs.append(_BlockEigs(ea, eb, kron_eigs))
    return LaplacePosterior(mean, list(blocks), int(n_train), float(beta), eigs)


def sample_params(post: LaplacePosterior, rng: Rng) -> ParamVector:
    """One draw theta* + V w with V = N^-1/2 U (S + beta I)^-1/2, applied via
    the Kronecker trick; bias coordinates are copied from the mean."""
    out = post.mean.values.copy()
    scale = 1.0 / np.sqrt(post.n_train)
    for entry, eig in zip(post.weight_entries, post._eigs):
        w = rng.normal(entry.size)
        w = w / np.sqrt(eig.kron_eigs + post.beta)
        v = kron_matvec(eig.eig_a.basis, eig.eig_b.basis, w)
        out[entry.offset : entry.offset + entry.size] += scale * v
    return post.mean.with_values(out)


def debias_kfac(blocks_b: list, blocks_bt: list) -> list:
    """Keep the eigenbasis of the first K-FAC, re-measure the directional
    curvatures on the second: per layer, s~_A = Diag(U_A^T C U_A),
    s~_B = Diag(U_B^T D U_B); the debiased block U (s~_A otimes s~_B) U^T
    equals the Kronecker pair (U_A s~_A U_A^T) otimes (U_B s~_B U_B^T)."""
    if len(blocks_b) != len(blocks_bt):
        raise ValidationError("block lists differ in length")
    out = []
    for blk, blk_t in zip(blocks_b, blocks_bt):
        if blk.m != blk_t.m or blk.n != blk_t.n:
            raise ValidationError(
                f"layer {blk.layer}: factor dims ({blk.m},{blk.n}) != "
                f"({blk_t.m},{blk_t.n})"
            )
        ua = sym_eigh(blk.factor_a).basis
        ub = sym_eigh(blk.factor_b).basis
        s_a = np.diag(ua.T @ blk_t.factor_a.entries @ ua).copy()
        s_b = np.diag(ub.T @ blk_t.factor_b.entries @ ub).copy()
        new_a = DenseSymMatrix(_sym(ua @ np.diag(s_a) @ ua.T))
        new_b = DenseSymMatrix(_sym(ub @ np.diag(s_b) @ ub.T))
        out.append(KfacBlock(layer=blk.layer, factor_a=new_a, factor_b=new_b))
    return out


@dataclass(frozen=True)
class PredictiveConfig:
    s_samples: int = DEFAULT_MC_SAMPLES
    seed: int = 0

    def __post_init__(self):
        if self.s_samples < 1:
            raise ValidationError(f"s_samples must be >= 1, got {self.s_samples}")


def predictive(
    post: LaplacePosterior,
    mlp: Mlp,
    inputs: np.ndarray,
    cfg: PredictiveConfig,
) -> np.ndarray:
    """Monte-Carlo predictive probabilities through the linearized network.

    Draws S parameter samples with per-sample derived seeds, pushes each
    through f_lin(x) = f(x; theta*) + grad f(x; theta*) (theta_s - theta*),
    applies the softmax, and averages in sample order. The network is
    linearized at theta* once for all S samples.
    """
    from .model import softmax

    base = Rng(cfg.seed)
    lin = mlp.linearize(post.mean, inputs)
    probs = np.zeros_like(lin.logits)
    for s in range(cfg.s_samples):
        theta_s = sample_params(post, base.split(s))
        delta = theta_s.values - post.mean.values
        probs += softmax(lin.logits + lin.jvp_mm(delta[:, None])[0])
    return probs / cfg.s_samples
