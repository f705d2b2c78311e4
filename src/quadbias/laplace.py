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
linearization of the network on every predicted row serves every posterior.
The predictive runs its draws in groups (``_add_group``); a softmax laid out
class-major, (C, g, rows), takes its max and sum across whole rows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (NumericalError, ValidationError, as_block, check_counts,
                     check_nonnegative, require_finite)
from .linalg import DenseSymMatrix, EigenDecomposition, Rng, _sym, kron_matvec, sym_eigh
from .model import DRAW_BUDGET, KfacBlock, Linearization, ParamVector, softmax
from .quadratic import accumulate_kfac  # re-exported: the K-FAC of a whole dataset

logger = logging.getLogger(__name__)

# A factor eigenvalue in [-NEG_EIG_TOL * max(1, largest), 0) is round-off of a
# Gram matrix, PSD by construction, and is clamped to zero, with one logged
# warning per posterior; a lower one raises.
NEG_EIG_TOL = 1e-8


def clamped_eigh(factor: DenseSymMatrix, context: str, clamped: list) -> EigenDecomposition:
    """Eigendecomposition with the PSD clamp applied to the spectrum: values
    in [-NEG_EIG_TOL * max(1, largest), 0) become zero, and are appended to
    ``clamped``; lower ones raise. Errors name ``context``."""
    try:
        eig = sym_eigh(factor)
    except (np.linalg.LinAlgError, NumericalError) as exc:
        raise NumericalError(f"{context}: eigendecomposition failed: {exc}") from exc
    vals = eig.eigenvalues
    require_finite(context, eigenvalue=vals)
    floor = -NEG_EIG_TOL * max(1.0, vals.max())
    if np.any(vals < floor):
        raise ValidationError(f"{context}: eigenvalue {vals.min():.3e} below {floor:.3e}; "
                              "factor is not positive semi-definite")
    if np.any(vals < 0.0):
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
    check_nonnegative(beta=beta)
    if beta == 0.0 and any(np.any(e.kron_eigs <= 0.0) for e in eigs):
        raise ValidationError("beta = 0 requires strictly positive factor eigenvalues")
    return float(beta)


@dataclass
class LaplacePosterior:
    """Gaussian over the weights: mean theta*, training-set size N, prior
    precision beta, and the clamped factor eigendecompositions of every
    layer's Kronecker block.

    Block covariance eigenvalues are 1 / (N (s + beta)) for s in the Kronecker
    product of the factor spectra; bias coordinates are deterministic at the
    mean.
    """

    mean: ParamVector
    n_train: int
    beta: float
    _eigs: list

    @property
    def n_weights(self) -> int:
        return sum(e.size for e in self.mean.weight_entries)

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
    check_counts(n_train=n_train)
    if len(mean.weight_entries) != len(blocks):
        raise ValidationError("block list does not match the layer layout")
    for entry, blk in zip(mean.weight_entries, blocks):
        if entry.shape != (blk.m, blk.n):
            raise ValidationError(
                f"layer {blk.layer}: factor dims ({blk.m},{blk.n}) do not "
                f"match the weight shape {entry.shape}"
            )
    eigs = factor_eigs(blocks)
    return LaplacePosterior(mean, n_train, _checked_beta(eigs, beta), eigs)


def _displacements(post: LaplacePosterior, noise: np.ndarray) -> np.ndarray:
    """theta_s - theta* = V w_s for standard-normal draws w_s, the rows of
    noise (g, W), as the columns of a (P, g) block, with
    V = N^-1/2 U (S + beta I)^-1/2 applied by one Kronecker product per
    layer; bias coordinates are zero."""
    scale = 1.0 / np.sqrt(post.n_train)
    out = np.zeros((post.mean.n_params, noise.shape[0]))
    for entry, eig, root in zip(post.mean.weight_entries, post._eigs, post._roots):
        w, noise = noise[:, : entry.size], noise[:, entry.size :]
        out[entry.span] = scale * kron_matvec(eig.eig_a.basis, eig.eig_b.basis, (w / root).T)
    return out


def sample_params(post: LaplacePosterior, rng: Rng) -> ParamVector:
    """One draw theta* + V w (see ``_displacements``), w = rng.normal(W) over
    the W weight coordinates in layout order; bias coordinates are copied
    from the mean."""
    delta = _displacements(post, rng.normal(post.n_weights)[None, :])[:, 0]
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


def draw_noise(post: LaplacePosterior, s_samples: int, seed: int) -> np.ndarray:
    """The predictive's standard-normal draws, (S, W) over the W weight
    coordinates: row s comes from the stream ``Rng(seed).split(s)``, so it is
    the draw ``sample_params`` makes from that stream. The draws do not
    depend on beta: one block serves the posterior at every prior precision."""
    check_counts(s_samples=s_samples)
    base = Rng(seed)
    return np.array([base.split(s).normal(post.n_weights) for s in range(s_samples)])


def _add_group(total: np.ndarray, post: LaplacePosterior, lin: Linearization,
               noise: np.ndarray) -> None:
    """Add the softmax outputs of the draws noise (g, W) to total (C, rows),
    in draw order: one (P, g) displacement block, one forward-mode block
    product and one class-major (C, g, rows) softmax, all freed on return."""
    jv = lin.jvp_mm(_displacements(post, noise))  # (g, rows, C)
    z = np.empty((jv.shape[2],) + jv.shape[:2])
    np.add(jv.transpose(2, 0, 1), lin.logits.T[:, None, :], out=z)
    for p in softmax(z, axis=0, out=z).transpose(1, 0, 2):
        total += p


def predictive(post: LaplacePosterior, lin: Linearization, noise: np.ndarray) -> np.ndarray:
    """Monte-Carlo predictive probabilities through the linearized network,
    (rows, C).

    ``lin`` is the network's Linearization at ``post.mean`` on the rows to
    predict, and serves any number of posteriors; ``noise`` is an (S, W)
    block from ``draw_noise``. Each draw w_s gives theta_s - theta* = V w_s,
    pushed through f_lin(x) = f(x; theta*) + grad f(x; theta*) (theta_s -
    theta*); the draws run in groups of at most DRAW_BUDGET // rows, and
    their softmax outputs are summed in sample order. A non-finite
    probability raises NumericalError.
    """
    if lin.params is not post.mean:
        raise ValidationError("linearization was taken at other parameters")
    noise = as_block(noise.T, post.n_weights).T
    group = max(1, DRAW_BUDGET // lin.size)
    total = np.zeros(lin.logits.shape[::-1])  # class-major (C, rows)
    for start in range(0, noise.shape[0], group):
        _add_group(total, post, lin, noise[start : start + group])
    probs = np.ascontiguousarray(total.T)
    probs /= noise.shape[0]
    require_finite("predictive", probability=probs)
    return probs
