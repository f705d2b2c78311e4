"""Kronecker-factored Laplace posterior: construction, sampling, debiasing,
and the Monte-Carlo predictive through the linearized network. The
full-dataset factors come from ``accumulate_kfac``, shared with the
full-batch K-FAC quadratic.

The posterior covariance per layer block is N^-1 (A otimes B + beta I)^-1 and
is never materialized: the factor eigendecompositions A = U_A S_A U_A^T,
B = U_B S_B U_B^T give the block eigenbasis U_A otimes U_B with eigenvalues
S_A otimes S_B, so inversion, sampling, and eigenvalue surgery all happen at
factor level. Bias parameters carry zero variance and stay at the mean.

A sweep over the prior precision beta repeats none of the beta-free work:
``with_beta`` re-points a posterior without decomposing again, one
``draw_noise`` block of standard normals serves every beta, and one
linearization of the network per input set serves every posterior.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import NumericalError, ValidationError
from .linalg import DenseSymMatrix, EigenDecomposition, Rng, kron_matvec, sym_eigh
from .model import KfacBlock, Linearization, Mlp, ParamVector, _sym, softmax
from .quadratic import accumulate_kfac  # re-exported: the K-FAC of a whole dataset

logger = logging.getLogger(__name__)

# Factor eigenvalues below -NEG_EIG_TOL are an error; values in
# [-NEG_EIG_TOL, 0) are clamped to zero, with one logged warning per
# posterior.
NEG_EIG_TOL = 1e-8

# Prior-precision sweep default: 13 log-equidistant values in [1e-4, 1]
# plus 10.
DEFAULT_PRIOR_GRID = tuple(np.logspace(-4.0, 0.0, 13)) + (10.0,)

DEFAULT_MC_SAMPLES = 40


def clamped_eigh(factor: DenseSymMatrix, context: str = "factor",
                 clamped: list | None = None) -> EigenDecomposition:
    """Eigendecomposition with the PSD clamp applied to the spectrum: values
    in [-NEG_EIG_TOL, 0) become zero, and are appended to ``clamped`` when it
    is given; lower ones raise. Errors name ``context``."""
    try:
        eig = sym_eigh(factor)
    except (np.linalg.LinAlgError, NumericalError) as exc:
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
        if clamped is not None:
            clamped.append(vals[vals < 0.0])
        vals = np.maximum(vals, 0.0)
    return EigenDecomposition(basis=eig.basis, eigenvalues=vals)


@dataclass
class _BlockEigs:
    eig_a: EigenDecomposition
    eig_b: EigenDecomposition
    kron_eigs: np.ndarray  # S_A otimes S_B in the block's vec ordering


def factor_eigs(blocks: list) -> list:
    """Clamped eigendecompositions of every block's two factors, and one
    logged warning for all the eigenvalues clamped among them."""
    eigs, clamped = [], []
    for blk in blocks:
        ea = clamped_eigh(blk.factor_a, f"layer {blk.layer} input factor", clamped)
        eb = clamped_eigh(blk.factor_b, f"layer {blk.layer} output factor", clamped)
        eigs.append(_BlockEigs(ea, eb, np.kron(ea.eigenvalues, eb.eigenvalues)))
    if clamped:
        logger.warning(
            "clamping %d slightly negative eigenvalues in %d of %d factors "
            "(min %.3e) to zero",
            sum(c.size for c in clamped), len(clamped), 2 * len(blocks),
            min(float(c.min()) for c in clamped),
        )
    return eigs


def _checked_beta(eigs: list, beta: float) -> float:
    if beta < 0:
        raise ValidationError(f"beta must be >= 0, got {beta}")
    if beta == 0.0 and any(np.any(e.kron_eigs <= 0.0) for e in eigs):
        raise ValidationError("beta = 0 requires strictly positive factor eigenvalues")
    return float(beta)


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

    @cached_property
    def weight_entries(self) -> list:
        return [e for e in self.mean.layout if e.role == "weight"]

    @property
    def n_weights(self) -> int:
        return sum(e.size for e in self.weight_entries)

    @cached_property
    def _roots(self) -> list:
        """sqrt(S_A otimes S_B + beta) per layer block."""
        return [np.sqrt(e.kron_eigs + self.beta) for e in self._eigs]

    def with_beta(self, beta: float) -> "LaplacePosterior":
        """The same posterior at prior precision beta; the factor
        eigendecompositions are shared, not recomputed."""
        return replace(self, beta=_checked_beta(self._eigs, beta))


def build_posterior(
    blocks: list, mean: ParamVector, n_train: int, beta: float
) -> LaplacePosterior:
    """Eigendecompose each Kronecker factor once and keep the results, which
    ``with_beta`` reuses at every other prior precision.

    The covariance itself is never formed. Negative factor eigenvalues below
    the tolerance raise; slightly negative ones are clamped to zero.
    """
    if n_train < 1:
        raise ValidationError(f"n_train must be >= 1, got {n_train}")
    weight_entries = [e for e in mean.layout if e.role == "weight"]
    if len(weight_entries) != len(blocks):
        raise ValidationError("block list does not match the layer layout")
    for entry, blk in zip(weight_entries, blocks):
        if entry.shape != (blk.m, blk.n):
            raise ValidationError(
                f"layer {blk.layer}: factor dims ({blk.m},{blk.n}) do not "
                f"match the weight shape {entry.shape}"
            )
    eigs = factor_eigs(blocks)
    return LaplacePosterior(mean, list(blocks), int(n_train), _checked_beta(eigs, beta), eigs)


def _draw(post: LaplacePosterior, rng: Rng, out: np.ndarray) -> np.ndarray:
    """Fill out (W,) with standard normals for the weight coordinates, layer
    by layer in layout order, from one stream."""
    start = 0
    for entry in post.weight_entries:
        out[start : start + entry.size] = rng.normal(entry.size)
        start += entry.size
    return out


def _displacement(post: LaplacePosterior, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """theta - theta* = V w for standard-normal draws w (W,), with
    V = N^-1/2 U (S + beta I)^-1/2 applied via the Kronecker trick, written
    into the weight coordinates of out (P,); its bias coordinates are left
    as they are."""
    scale = 1.0 / np.sqrt(post.n_train)
    start = 0
    for entry, eig, root in zip(post.weight_entries, post._eigs, post._roots):
        v = kron_matvec(eig.eig_a.basis, eig.eig_b.basis,
                        w[start : start + entry.size] / root)
        out[entry.offset : entry.offset + entry.size] = scale * v
        start += entry.size
    return out


def sample_params(post: LaplacePosterior, rng: Rng) -> ParamVector:
    """One draw theta* + V w (see ``_displacement``); bias coordinates are
    copied from the mean."""
    delta = _displacement(post, _draw(post, rng, np.empty(post.n_weights)),
                          np.zeros(post.mean.n_params))
    return post.mean.with_values(post.mean.values + delta)


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


def draw_noise(post: LaplacePosterior, cfg: PredictiveConfig) -> np.ndarray:
    """The predictive's standard-normal draws, (S, W) over the W weight
    coordinates: row s comes from the stream ``Rng(cfg.seed).split(s)``, so it
    is the draw ``sample_params`` makes from that stream. The draws do not
    depend on beta: one block serves the posterior at every prior precision."""
    base = Rng(cfg.seed)
    out = np.empty((cfg.s_samples, post.n_weights))
    for s, row in enumerate(out):
        _draw(post, base.split(s), row)
    return out


def predictive(
    post: LaplacePosterior,
    mlp: Mlp,
    inputs: np.ndarray | Linearization,
    cfg: PredictiveConfig,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """Monte-Carlo predictive probabilities through the linearized network,
    (rows, C).

    ``inputs`` are the rows to predict, or their Linearization at the
    posterior mean, which then serves any number of posteriors. ``noise`` is
    the block ``draw_noise(post, cfg)``, drawn here when not given. Each draw
    w_s gives theta_s - theta* = V w_s, pushed through
    f_lin(x) = f(x; theta*) + grad f(x; theta*) (theta_s - theta*); the
    softmax outputs are averaged in sample order. A non-finite probability
    raises NumericalError.
    """
    if isinstance(inputs, Linearization):
        lin = mlp._linearized(post.mean, inputs)
    else:
        lin = mlp.linearize(post.mean, inputs)
    if noise is None:
        noise = draw_noise(post, cfg)
    if noise.shape != (cfg.s_samples, post.n_weights):
        raise ValidationError(
            f"noise shape {noise.shape} != ({cfg.s_samples}, {post.n_weights})"
        )
    probs = np.zeros_like(lin.logits)
    delta = np.zeros(post.mean.n_params)  # bias coordinates stay at zero
    for w in noise:
        _displacement(post, w, delta)
        probs += softmax(lin.logits + lin.jvp_mm(delta[:, None])[0])
    probs /= cfg.s_samples
    if not np.isfinite(probs).all():
        i, j = np.argwhere(~np.isfinite(probs))[0]
        raise NumericalError(f"predictive: non-finite probability at row {i}, class {j}")
    return probs
