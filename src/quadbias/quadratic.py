"""Mini-batch and full-batch quadratic models of the regularized loss.

A quadratic model is anchored at theta_0 and carries the loss value c_B, the
gradient g_B, and a matrix-free curvature handle. Values, slopes and
curvatures along a block of directions all come from ``in_span``: one gram of
the block and its product with the gradient. ``value_at`` and ``grad_at`` are
the one-point product-and-dot reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, starmap
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import (ValidationError, as_block, check_counts, check_nonnegative,
                     check_orthonormal, require_finite)
from .linalg import DenseSymMatrix, Rng, kron_matvec
from .model import Batch, KfacBlock, Mlp, ParamVector, add_weight_decay

CURVATURE_KINDS = ("hessian", "ggn", "kfac")


class CurvatureOperator:
    """Matrix-free v -> (curvature + beta * mask + delta * I) v, mask the
    indicator of the spans of the layout entries ``weights`` (all when None).

    ``raw_product`` applies the curvature to a (dim, k) block. ``matmat``
    applies the operator to a block and ``matvec`` is its one-column case;
    ``gram`` returns V^T (curvature + beta * mask + delta * I) V of a block,
    from ``raw_gram`` when given (it must not need the product) and else
    from V^T times the block product. Every column counts as one matvec in
    ``matvec_count``, so experiments and tests can verify cost claims either
    way. The operator is linear and symmetric.
    """

    def __init__(
        self,
        dim: int,
        raw_product: Callable[[np.ndarray], np.ndarray],
        beta: float = 0.0,
        delta: float = 0.0,
        weights: tuple | None = None,
        batch_id=None,
        raw_gram: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        check_nonnegative(beta=beta, delta=delta)
        self.dim = dim
        self.beta = beta
        self.delta = delta
        self._spans = [slice(0, dim)] if weights is None else [e.span for e in weights]
        self.batch_id = batch_id
        self._raw_product = raw_product
        self._raw_gram = raw_gram
        self.matvec_count = 0

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ValidationError(f"vector shape {v.shape} != ({self.dim},)")
        return self.matmat(v[:, None])[:, 0]

    __call__ = matvec

    def matmat(self, vs: np.ndarray) -> np.ndarray:
        """The operator applied to every column of a (dim, k) block."""
        vs = self._block(vs)
        out = self._raw_product(vs)
        if self.beta:
            out = out.copy()  # the raw product may return the caller's block
            for span in self._spans:
                out[span] += self.beta * vs[span]
        if self.delta:
            out = out + self.delta * vs
        return out

    def gram(self, vs: np.ndarray) -> np.ndarray:
        """V^T (curvature + beta * mask + delta * I) V of a (dim, k) block,
        (k, k); the shift terms read the block in place."""
        vs = self._block(vs)
        if self._raw_gram is None:
            out = vs.T @ self._raw_product(vs)
        else:
            out = self._raw_gram(vs)
        if self.beta:
            out += self.beta * sum(vs[span].T @ vs[span] for span in self._spans)
        if self.delta:
            out += self.delta * (vs.T @ vs)
        return out

    def _block(self, vs: np.ndarray) -> np.ndarray:
        """vs as a float (dim, k >= 1) block, counted as k matvecs."""
        vs = as_block(vs, self.dim)
        self.matvec_count += vs.shape[1]
        return vs

    @classmethod
    def from_dense(cls, m: np.ndarray, beta: float = 0.0, delta: float = 0.0,
                   weights=None, batch_id=None) -> "CurvatureOperator":
        m = np.asarray(m, dtype=np.float64)
        return cls(m.shape[0], lambda vs: m @ vs, beta, delta, weights, batch_id)


def _kfac_product(blocks: list, params: ParamVector) -> Callable[[np.ndarray], np.ndarray]:
    """Block-diagonal Kronecker product on the weight slices of a (P, k)
    block; zero on biases."""
    def product(vs: np.ndarray) -> np.ndarray:
        out = np.zeros_like(vs)
        for e, blk in zip(params.weight_entries, blocks):
            out[e.span] = kron_matvec(blk.factor_a.entries, blk.factor_b.entries, vs[e.span])
        return out

    return product


@dataclass
class QuadraticModel:
    """Second-order model q(theta) = 1/2 (theta-theta0)^T H (theta-theta0)
    + (theta-theta0)^T g + c."""

    theta0: ParamVector
    constant: float
    gradient: np.ndarray
    curvature: CurvatureOperator

    @property
    def dim(self) -> int:
        return self.gradient.size

    @property
    def batch_id(self):
        """The label of the data the model was built on ("FULL" for the whole
        dataset); the curvature operator carries it."""
        return self.curvature.batch_id


def check_shared_anchor(quads: list) -> None:
    """Raise ValidationError unless every quadratic has the first one's anchor."""
    if not all(np.array_equal(q.theta0.values, quads[0].theta0.values) for q in quads[1:]):
        raise ValidationError("quadratics must share the anchor point")


def _quadratic(stage: str, mlp: Mlp, theta0: ParamVector, traces: Callable[[], Iterable],
               kind: str, beta: float, delta: float, batch_id,
               kfac: Callable[[], list]) -> QuadraticModel:
    """Quadratic model of the regularized loss over the (weight, Linearization
    at theta0) pairs that each call of ``traces`` yields.

    c and g are the weighted sums of the traces' losses and gradients, with
    the regularizer added once. Every block product (``Mlp.hvp`` or ``Mlp.ggn_vp``)
    and ggn gram (from J V alone) walks ``traces()`` again, the operator adding
    beta and delta; the K-FAC blocks come from one call of ``kfac``, reused by
    every product. Errors name ``stage``.
    """
    if kind not in CURVATURE_KINDS:
        raise ValidationError(f"unknown curvature kind {kind!r}")
    require_finite(stage, theta=theta0.values)
    loss = 0.0
    grad = np.zeros(theta0.n_params)
    for w, lin in traces():
        l_part, g_part = mlp.loss_and_grad(theta0, lin, 0.0)
        del lin  # before the walk builds the next trace
        loss += w * l_part
        grad += w * g_part
    loss = add_weight_decay(theta0, beta, loss, grad)
    require_finite(stage, loss=loss, gradient=grad)

    def summed(term):  # starmap drops each trace before it takes the next
        return lambda vs: sum(starmap(lambda w, lin: w * term(lin, vs), traces()))

    if kind == "kfac":
        raw, gram = _kfac_product(kfac(), theta0), None
    else:
        name = "hvp" if kind == "hessian" else "ggn_vp"
        raw = summed(lambda lin, vs: getattr(mlp, name)(theta0, lin, vs))
        gram = summed(lambda lin, vs: lin.ggn_gram(vs)) if kind == "ggn" else None
    op = CurvatureOperator(theta0.n_params, raw, beta, delta, theta0.weight_entries,
                           batch_id, gram)
    return QuadraticModel(theta0, loss, grad, op)


def build_quadratic(
    mlp: Mlp,
    theta0: ParamVector,
    batch: Batch,
    kind: str = "ggn",
    beta: float = 0.0,
    delta: float = 0.0,
    batch_id=None,
    fisher_mode: str = "mc_sample",
    rng: Rng | None = None,
) -> QuadraticModel:
    """Quadratic model of the regularized loss on one mini-batch.

    The batch is linearized once here. The loss, the gradient and every
    hessian or ggn product reuse that trace; for kind="kfac" the Kronecker
    factors are computed once from it and reused by every product.
    """
    lin = mlp.linearize(theta0, batch.inputs, batch.targets)
    return _quadratic("build_quadratic", mlp, theta0, lambda: [(1.0, lin)], kind, beta,
                      delta, batch_id, lambda: mlp.kfac_factors(theta0, lin, fisher_mode, rng))


def synthetic_quadratic(
    curvature: np.ndarray | CurvatureOperator,
    gradient: np.ndarray,
    constant: float = 0.0,
    theta0: ParamVector | None = None,
    batch_id=None,
) -> QuadraticModel:
    """Quadratic from explicit pieces (tests, oracles, toy systems); batch_id
    labels a dense curvature, an operator carries its own."""
    g = np.asarray(gradient, dtype=np.float64)
    if isinstance(curvature, CurvatureOperator):
        op = curvature
    else:
        op = CurvatureOperator.from_dense(curvature, batch_id=batch_id)
    if theta0 is None:
        theta0 = ParamVector.from_values(np.zeros(g.size))
    return QuadraticModel(theta0, float(constant), g, op)


def grad_at(q: QuadraticModel, theta: ParamVector | np.ndarray) -> np.ndarray:
    """grad q(theta) = H (theta - theta0) + g; one curvature matvec."""
    values = theta.values if isinstance(theta, ParamVector) else np.asarray(theta)
    disp = values - q.theta0.values
    return q.curvature.matvec(disp) + q.gradient


def value_at(q: QuadraticModel, theta: ParamVector | np.ndarray) -> float:
    """q(theta); one curvature matvec."""
    values = theta.values if isinstance(theta, ParamVector) else np.asarray(theta)
    disp = values - q.theta0.values
    h_disp = q.curvature.matvec(disp)
    return 0.5 * float(disp @ h_disp) + float(disp @ q.gradient) + q.constant


def step_coefficients(magnitudes) -> np.ndarray:
    """(n + 1, n) coefficients of the points theta_i = theta_0 + sum_{p<i}
    tau_p d_p, i = 0..n, in the directions d_p: row i holds tau_p for p < i
    and zeros after."""
    tau = np.asarray(magnitudes, dtype=np.float64)
    return np.tril(np.broadcast_to(tau, (tau.size + 1, tau.size)), -1)


def in_span(q: QuadraticModel, directions: np.ndarray, coeffs: np.ndarray):
    """q read in the span of the columns d_j of a (dim, k) block D, at the
    points theta_0 + D c for the rows c of an (n, k) coefficient matrix C.

    Returns the values there (n,), the slopes d_j . grad q there (n, k) and
    the curvatures d_j . H d_j (k,), all from one ``gram`` G of D (k
    matvecs) and D^T g: the value at c is q.constant + c . D^T g
    + 1/2 c^T G c and the slopes are D^T g + G c. A zero row reads
    q.constant exactly; with no column, no matvec runs. Coefficients of
    another shape raise ValidationError.
    """
    c = np.asarray(coeffs, dtype=np.float64)
    if c.ndim != 2 or c.shape[1:] != np.shape(directions)[1:]:
        raise ValidationError(f"coeffs {c.shape} do not fit directions {np.shape(directions)}")
    values = np.full(c.shape[0], q.constant)
    if c.shape[1] == 0:
        return values, c.copy(), np.empty(0)
    gram = q.curvature.gram(directions)
    d_g = np.asarray(directions).T @ q.gradient
    c_gram = c @ gram
    values += c @ d_g
    values += 0.5 * (c_gram * c).sum(axis=1)
    return values, d_g + c_gram, np.diagonal(gram).copy()


def trajectory_values(q: QuadraticModel, directions: np.ndarray, magnitudes) -> np.ndarray:
    """q at theta_0 + sum_{p<i} tau_p d_p for i = 0..n, (n + 1,), with
    theta_0 the anchor of q and d_p the columns of a (dim, n) block: ``in_span``
    at the rows of ``step_coefficients`` after the first (n matvecs). The
    anchor takes no row and reads q.constant exactly."""
    moved = in_span(q, directions, step_coefficients(magnitudes)[1:])[0]
    return np.concatenate(([q.constant], moved))


def check_direction(d: np.ndarray) -> np.ndarray:
    d = np.asarray(d, dtype=np.float64)
    if abs(np.linalg.norm(d) - 1.0) > 1e-12:
        raise ValidationError(f"direction must be unit norm, got {np.linalg.norm(d)!r}")
    return d


def directional_slope(q: QuadraticModel, theta, d: np.ndarray) -> float:
    """d . grad q(theta) along a unit direction."""
    d = check_direction(d)
    return float(d @ grad_at(q, theta))


def directional_curvature(q: QuadraticModel, d: np.ndarray) -> float:
    """d . H d along a unit direction; independent of theta. The one-column
    case of ``directional_curvatures``."""
    return float(directional_curvatures(q, np.asarray(d, dtype=np.float64)[:, None])[0])


def directional_curvatures(q: QuadraticModel, directions: np.ndarray) -> np.ndarray:
    """d_i . H d_i for every unit column d_i of a (P, k) block, from one
    ``in_span`` call (k matvecs)."""
    d = np.asarray(directions, dtype=np.float64)
    for col in d.T:
        check_direction(col)
    return in_span(q, d, np.empty((0, d.shape[1])))[2]


def subspace_eval(
    q: QuadraticModel,
    theta_star: ParamVector | np.ndarray,
    u1: np.ndarray,
    u2: np.ndarray,
    grid,
) -> np.ndarray:
    """Evaluate q(theta* + t1 u1 + t2 u2) over a grid of (t1, t2) pairs.

    One ``in_span`` call on D = [u1, u2], with the rows of the grid as
    coefficients; when theta* is off the anchor, D takes theta* - theta_0 as
    a third column with coefficient 1. Costs exactly 2 curvature matvecs at
    the anchor, 3 otherwise.
    """
    d, coeffs = np.column_stack([u1, u2]), np.asarray(grid, dtype=np.float64)
    check_orthonormal("subspace directions", d)
    star = theta_star.values if isinstance(theta_star, ParamVector) else np.asarray(theta_star)
    disp = star - q.theta0.values
    if np.any(disp):
        d = np.column_stack([d, disp])
        coeffs = np.column_stack([coeffs, np.ones(coeffs.shape[0])])
    return in_span(q, d, coeffs)[0]


def _traces(mlp: Mlp, theta: ParamVector, data: Batch, chunk_size: int) -> Iterator:
    """(share of rows, Linearization at theta) pairs of fixed-order slices of
    a dataset, the last maybe ragged, each linearized when the walk reaches
    it; the dataset and chunk_size are checked at the call, not at the walk.
    A consumer drops each trace before it takes the next, so that one chunk's
    trace is held at a time."""
    n = data.size
    if n == 0:
        raise ValidationError("dataset is empty")
    check_counts(chunk_size=chunk_size)
    return ((min(chunk_size, n - start) / n,
             mlp.linearize(theta, data.inputs[start : start + chunk_size],
                           data.targets[start : start + chunk_size]))
            for start in range(0, n, chunk_size))


def accumulate_kfac(
    mlp: Mlp,
    theta_star: ParamVector,
    data: Batch,
    fisher_mode: str = "mc_sample",
    rng: Rng | None = None,
    chunk_size: int = 512,
) -> list:
    """Sample-count-weighted average of per-chunk Kronecker factors over the
    whole dataset, the full-batch K-FAC stand-in (factor-level averaging; not
    the K-FAC of the union batch). Chunk i samples from ``rng.split(i)``; its
    factors are added to running sums from 0, so one chunk's are held at a time."""
    sums = [[0, 0] for _ in range(mlp.arch.n_layers)]
    streams = (rng.split(i) if rng is not None else None for i in count())
    # not enumerate, whose reused result tuple holds a trace until the next is built
    for w, lin in _traces(mlp, theta_star, data, chunk_size):
        blocks = mlp.kfac_factors(theta_star, lin, fisher_mode, next(streams))
        del lin
        for s, blk in zip(sums, blocks):
            s[0] += w * blk.factor_a.entries
            s[1] += w * blk.factor_b.entries
    return [KfacBlock(l, DenseSymMatrix(a), DenseSymMatrix(b)) for l, (a, b) in enumerate(sums)]


def fullbatch_quadratic(
    mlp: Mlp,
    theta0: ParamVector,
    data: Batch,
    kind: str = "ggn",
    beta: float = 0.0,
    delta: float = 0.0,
    chunk_size: int = 512,
    fisher_mode: str = "mc_sample",
    rng: Rng | None = None,
) -> QuadraticModel:
    """Quadratic model over the whole dataset, accumulated in chunks.

    c and g are sample-weighted averages over the chunks of ``_traces``. For
    hessian/ggn every curvature product walks the chunks again, linearizing
    one at a time, and keeps no trace between calls; for kfac the Kronecker
    factors are averaged across chunks once by ``accumulate_kfac``.
    """
    return _quadratic(
        "fullbatch_quadratic", mlp, theta0, lambda: _traces(mlp, theta0, data, chunk_size),
        kind, beta, delta, "FULL",
        lambda: accumulate_kfac(mlp, theta0, data, fisher_mode, rng, chunk_size))
