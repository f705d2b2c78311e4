"""Small fully-connected classifier with exact curvature access.

The network is evaluated with plain numpy. Besides the forward pass it exposes
the exact loss gradient, Hessian-vector products (forward-over-reverse),
Gauss-Newton-vector products, Jacobian-vector products, and per-layer
Kronecker factors for dense layers. These are the curvature sources that all
other modules consume.

Conventions
-----------
Layer l maps activations A_{l-1} (rows = samples) to Z_l = A_{l-1} W_l + b_l
with W_l of shape (fan_in, fan_out). Flat parameter storage is row-major, so
a layer's flat weight slice equals the column-stacked (fan_out x fan_in)
matrix used by the Kronecker utilities in :mod:`quadbias.linalg`.

The empirical risk is the mean per-sample loss; the regularizer beta/2 ||w||^2
acts on the weights only by default (reg_mode="weights"), switchable to all
parameters (reg_mode="all").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericalError, ValidationError
from .linalg import DenseSymMatrix, Rng

ACTIVATIONS = ("relu", "tanh", "identity")
LOSSES = ("cross_entropy", "mse")

# Rows x columns one block pass of a Linearization may hold. A single-vector
# pass over one 512-row chunk held this much before block products existed;
# passes of max(1, BLOCK_BUDGET // rows) columns keep peak memory there.
BLOCK_BUDGET = 512


@dataclass(frozen=True)
class MlpArchitecture:
    """Layer sizes [D, h1, ..., C], activation between linear layers, loss id."""

    layer_sizes: tuple
    activation: str = "relu"
    loss: str = "cross_entropy"

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2 or any(s <= 0 for s in sizes):
            raise ValidationError(f"need >= 1 linear layer with positive sizes, got {sizes}")
        if self.activation not in ACTIVATIONS:
            raise ValidationError(f"unknown activation {self.activation!r}")
        if self.loss not in LOSSES:
            raise ValidationError(f"unknown loss {self.loss!r}")
        object.__setattr__(self, "layer_sizes", sizes)

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    def to_dict(self) -> dict:
        return {
            "layer_sizes": list(self.layer_sizes),
            "activation": self.activation,
            "loss": self.loss,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MlpArchitecture":
        return cls(tuple(d["layer_sizes"]), d["activation"], d["loss"])


@dataclass(frozen=True)
class LayoutEntry:
    layer: int
    role: str  # "weight" | "bias"
    shape: tuple
    offset: int
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "size", int(np.prod(self.shape)))


def build_layout(arch: MlpArchitecture) -> tuple:
    """Entry 2 l is layer l's weight and entry 2 l + 1 its bias."""
    entries = []
    offset = 0
    for l in range(arch.n_layers):
        fan_in, fan_out = arch.layer_sizes[l], arch.layer_sizes[l + 1]
        entries.append(LayoutEntry(l, "weight", (fan_in, fan_out), offset))
        offset += fan_in * fan_out
        entries.append(LayoutEntry(l, "bias", (fan_out,), offset))
        offset += fan_out
    return tuple(entries)


@dataclass
class ParamVector:
    """Flat parameter array plus the layout that maps slices to layers.

    weight_mask is True exactly on weight entries (used for masked
    regularization).
    """

    values: np.ndarray
    layout: tuple
    weight_mask: np.ndarray = field(default=None)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        total = sum(e.size for e in self.layout)
        if self.values.shape != (total,):
            raise ValidationError(
                f"values length {self.values.shape} does not match layout size {total}"
            )
        if self.weight_mask is None:
            mask = np.zeros(total, dtype=bool)
            for e in self.layout:
                if e.role == "weight":
                    mask[e.offset : e.offset + e.size] = True
            self.weight_mask = mask

    @property
    def n_params(self) -> int:
        return self.values.size

    def view(self, layer: int, role: str) -> np.ndarray:
        i = 2 * layer + (role == "bias")  # the build_layout order
        if 0 <= i < len(self.layout):
            e = self.layout[i]
            if e.layer == layer and e.role == role:
                return self.values[e.offset : e.offset + e.size].reshape(e.shape)
        raise KeyError((layer, role))

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.layout, self.weight_mask)

    def with_values(self, values: np.ndarray) -> "ParamVector":
        return ParamVector(np.asarray(values, dtype=np.float64), self.layout, self.weight_mask)

    @classmethod
    def from_values(cls, values: np.ndarray) -> "ParamVector":
        """Wrap a bare vector as a single-weight-block parameter (synthetic use)."""
        values = np.asarray(values, dtype=np.float64)
        layout = (LayoutEntry(0, "weight", (values.size,), 0),)
        return cls(values, layout)


@dataclass(frozen=True)
class Batch:
    """Inputs, one-hot targets, and source row ids of a data subset."""

    inputs: np.ndarray
    targets: np.ndarray
    indices: np.ndarray = None

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=np.float64)
        y = np.asarray(self.targets, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValidationError(f"inconsistent batch shapes {x.shape}, {y.shape}")
        row_sums = y.sum(axis=1)
        ones_per_row = (y == 1.0).sum(axis=1)
        if not (np.all(row_sums == 1.0) and np.all(ones_per_row == 1)):
            raise ValidationError("targets must be one-hot rows")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", y)
        idx = self.indices
        if idx is None:
            idx = np.arange(x.shape[0])
        object.__setattr__(self, "indices", np.asarray(idx, dtype=np.int64))

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    @property
    def labels(self) -> np.ndarray:
        return np.argmax(self.targets, axis=1)


@dataclass(frozen=True)
class KfacBlock:
    """Per-layer Kronecker pair: input-side factor_a (m x m), output-side
    factor_b (n x n), both symmetric PSD averages of outer products."""

    layer: int
    factor_a: DenseSymMatrix
    factor_b: DenseSymMatrix

    @property
    def m(self) -> int:
        return self.factor_a.dim

    @property
    def n(self) -> int:
        return self.factor_b.dim


def softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    return z


def _act_d(name: str, z: np.ndarray) -> np.ndarray:
    # relu derivative at exactly 0 is 0 (subgradient choice); kept as a bool
    # mask, an eighth of the memory, which multiplies as exact 0.0 / 1.0
    if name == "relu":
        return z > 0.0
    if name == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    return np.ones_like(z)


def _act_dd(name: str, z: np.ndarray) -> np.ndarray:
    if name == "tanh":
        t = np.tanh(z)
        return -2.0 * t * (1.0 - t * t)
    return np.zeros_like(z)


class Linearization:
    """The network at fixed (params, inputs): forward trace, activation
    derivatives and, for cross entropy, the softmax, computed once.

    Every product, the loss gradient and the K-FAC factors reuse them, and
    walk back through the network by one recursion, ``_layer_grads``.
    Products take (P, k) blocks of parameter directions and run in
    passes of at most ``max(1, BLOCK_BUDGET // rows)`` columns; a pass is a
    few matrix products per layer over all of its columns at once, with
    R-quantities laid out (columns, rows, width). Targets are needed by the
    loss gradient and the Hessian product only.
    """

    def __init__(self, mlp: "Mlp", params: ParamVector, inputs: np.ndarray,
                 targets: np.ndarray | None = None):
        self.mlp = mlp
        self.params = params
        self.targets = targets
        self.wb, self.acts, self.pre = mlp._forward_trace(params, inputs)
        self.d1 = [_act_d(mlp.arch.activation, z) for z in self.pre[:-1]]
        self.probs = softmax(self.logits) if mlp.arch.loss == "cross_entropy" else None
        self.cols_per_pass = max(1, BLOCK_BUDGET // max(1, self.size))

    @property
    def size(self) -> int:
        """Rows in the trace."""
        return self.acts[0].shape[0]

    @property
    def logits(self) -> np.ndarray:
        return self.pre[-1]

    # -- shared passes ---------------------------------------------------------

    def _by_pass(self, vs: np.ndarray, one_pass) -> np.ndarray:
        """Stack one_pass over column groups of vs; leading axis = columns."""
        vs = np.asarray(vs, dtype=np.float64)
        if vs.ndim != 2 or vs.shape[0] != self.mlp.n_params or vs.shape[1] < 1:
            raise ValidationError(
                f"block shape {vs.shape} != ({self.mlp.n_params}, k >= 1)"
            )
        out = None
        step = self.cols_per_pass
        for start in range(0, vs.shape[1], step):
            part = one_pass(np.ascontiguousarray(vs[:, start : start + step].T))
            if out is None:
                out = np.empty((vs.shape[1],) + part.shape[1:])
            out[start : start + step] = part
        return out

    def _split(self, vt: np.ndarray, l: int):
        """Layer l's weight (k, fan_in, fan_out) and bias (k, fan_out) parts
        of directions stacked as the rows of vt (k, P)."""
        ew, eb = self.mlp.layout[2 * l], self.mlp.layout[2 * l + 1]
        vw = vt[:, ew.offset : ew.offset + ew.size].reshape((vt.shape[0],) + ew.shape)
        return vw, vt[:, eb.offset : eb.offset + eb.size]

    def _r_forward(self, vt: np.ndarray) -> list:
        """Forward-mode pass: R[Z_l] for every layer (R[A_0] = 0)."""
        r_pre = []
        r_a = None
        for l, (w, _) in enumerate(self.wb):
            vw, vb = self._split(vt, l)
            r_z = self.acts[l] @ vw
            if r_a is not None:
                r_z += r_a @ w
            r_z += vb[:, None, :]
            r_pre.append(r_z)
            if l < len(self.wb) - 1:
                r_a = self.d1[l] * r_z
        return r_pre

    def _layer_grads(self, g: np.ndarray) -> list:
        """Gradient at every Z_l from a logits-side seed g, (rows, C) or
        (k, rows, C): g_L = g and g_{l-1} = (g_l W_l^T) * act'(Z_{l-1})."""
        gs = [g]
        for l in range(len(self.wb) - 1, 0, -1):
            gs.append((gs[-1] @ self.wb[l][0].T) * self.d1[l - 1])
        return gs[::-1]

    def _backprop(self, g: np.ndarray) -> np.ndarray:
        """Parameter gradient from a logits-side seed g, (rows, C) or
        (k, rows, C); the result is (P,) or (k, P)."""
        lead = g.shape[:-2]
        out = np.empty(lead + (self.mlp.n_params,))
        for l, g_l in enumerate(self._layer_grads(g)):
            ew, eb = self.mlp.layout[2 * l], self.mlp.layout[2 * l + 1]
            out[..., ew.offset : ew.offset + ew.size] = (
                self.acts[l].T @ g_l).reshape(lead + (-1,))
            out[..., eb.offset : eb.offset + eb.size] = g_l.sum(axis=-2)
        return out

    def loss_grad_logits(self) -> np.ndarray:
        """d(mean loss)/d logits."""
        if self.targets is None:
            raise ValidationError("this product needs the batch targets")
        if self.probs is not None:
            return (self.probs - self.targets) / self.size
        return 2.0 * (self.logits - self.targets) / self.size

    def _loss_hessian(self, r_logits: np.ndarray) -> np.ndarray:
        """Hessian of the per-sample loss at the logits applied to r_logits."""
        p = self.probs
        if p is None:
            return 2.0 * r_logits
        return p * r_logits - p * (p * r_logits).sum(axis=-1, keepdims=True)

    @cached_property
    def _backward_trace(self):
        """Direction-independent parts of the Hessian product: the loss
        gradient g_l at each Z_l, and for l > 0 the term s * act''(Z_{l-1})
        with s = g_l W_l^T."""
        act = self.mlp.arch.activation
        gs = self._layer_grads(self.loss_grad_logits())
        s_d2 = [None] + [(gs[l] @ self.wb[l][0].T) * _act_dd(act, self.pre[l - 1])
                         for l in range(1, len(self.wb))]
        return gs, s_d2

    # -- block products --------------------------------------------------------

    def jvp_mm(self, vs: np.ndarray) -> np.ndarray:
        """Directional derivatives of the logits, (k, rows, C), one slice per
        column of vs."""
        return self._by_pass(vs, lambda vt: self._r_forward(vt)[-1])

    def ggn_mm(self, vs: np.ndarray) -> np.ndarray:
        """Generalized Gauss-Newton block product G_B vs, (P, k).

        J v (forward mode), the loss Hessian at the logits, then J^T (reverse
        mode); the per-sample Jacobians are never materialized.
        """
        def one_pass(vt):
            jv = self._r_forward(vt)[-1]
            return self._backprop(self._loss_hessian(jv) / self.size)

        return self._by_pass(vs, one_pass).T

    def ggn_forms(self, vs: np.ndarray) -> np.ndarray:
        """Quadratic forms v_j^T G_B v_j, (k,), one per column of vs: the row
        mean of (J v)^T Lambda (J v). Forward mode only, so no backward pass
        runs and no (P, k) product is formed."""
        def one_pass(vt):
            jv = self._r_forward(vt)[-1]
            return np.einsum("krc,krc->k", jv, self._loss_hessian(jv)) / self.size

        return self._by_pass(vs, one_pass)

    def hvp_mm(self, vs: np.ndarray) -> np.ndarray:
        """Exact Hessian block product of the mean loss, (P, k).

        Forward-over-reverse: the linearized forward pass, then the
        linearization of the backward pass.
        """
        gs, s_d2 = self._backward_trace

        def one_pass(vt):
            r_pre = self._r_forward(vt)
            r_g = self._loss_hessian(r_pre[-1]) / self.size
            out = np.empty((vt.shape[0], self.mlp.n_params))
            for l in range(len(self.wb) - 1, -1, -1):
                ew, eb = self.mlp.layout[2 * l], self.mlp.layout[2 * l + 1]
                w_part = self.acts[l].T @ r_g
                if l > 0:
                    r_a = self.d1[l - 1] * r_pre[l - 1]
                    w_part = r_a.transpose(0, 2, 1) @ gs[l] + w_part
                out[:, ew.offset : ew.offset + ew.size] = w_part.reshape(vt.shape[0], -1)
                out[:, eb.offset : eb.offset + eb.size] = r_g.sum(axis=1)
                if l > 0:
                    w = self.wb[l][0]
                    r_s = r_g @ w.T + gs[l] @ self._split(vt, l)[0].transpose(0, 2, 1)
                    r_g = r_s * self.d1[l - 1] + s_d2[l] * r_pre[l - 1]
            return out

        return self._by_pass(vs, one_pass).T


class Mlp:
    """Model context bundling an architecture with its derivative machinery."""

    def __init__(self, arch: MlpArchitecture, reg_mode: str = "weights"):
        if reg_mode not in ("weights", "all"):
            raise ValidationError(f"unknown reg_mode {reg_mode!r}")
        self.arch = arch
        self.reg_mode = reg_mode
        self.layout = build_layout(arch)
        self.n_params = sum(e.size for e in self.layout)

    # -- parameters ---------------------------------------------------------

    def zero_params(self) -> ParamVector:
        return ParamVector(np.zeros(self.n_params), self.layout)

    def init_params(self, rng: Rng, scale: float | None = None) -> ParamVector:
        """He-style Gaussian weights, zero biases; deterministic given rng."""
        p = self.zero_params()
        for l in range(self.arch.n_layers):
            fan_in = self.arch.layer_sizes[l]
            w = p.view(l, "weight")
            std = scale if scale is not None else np.sqrt(2.0 / fan_in)
            w[...] = rng.normal(w.size).reshape(w.shape) * std
        return p

    def reg_mask(self, params: ParamVector) -> np.ndarray:
        if self.reg_mode == "all":
            return np.ones(params.n_params, dtype=bool)
        return params.weight_mask

    # -- forward ------------------------------------------------------------

    def _unpack(self, params: ParamVector):
        return [
            (params.view(l, "weight"), params.view(l, "bias"))
            for l in range(self.arch.n_layers)
        ]

    def _inputs(self, inputs: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        if x.shape[1] != self.arch.input_dim:
            raise ValidationError(
                f"input width {x.shape[1]} != architecture input dim {self.arch.input_dim}"
            )
        return x

    def forward(self, params: ParamVector, inputs: np.ndarray) -> np.ndarray:
        """Logits for a batch of inputs (rows); deterministic."""
        return self._forward_trace(params, self._inputs(inputs))[2][-1]

    def _forward_trace(self, params: ParamVector, x: np.ndarray):
        """Activations list [A_0..A_{L-1}] and pre-activations [Z_1..Z_L]."""
        wb = self._unpack(params)
        acts, pre = [x], []
        for l, (w, b) in enumerate(wb):
            pre.append(acts[-1] @ w + b)
            if l < len(wb) - 1:
                acts.append(_act(self.arch.activation, pre[-1]))
        return wb, acts, pre

    def linearize(self, params: ParamVector, inputs: np.ndarray,
                  targets: np.ndarray | None = None) -> Linearization:
        """One forward trace at (params, inputs), reused by every block
        product taken from the result; targets enable loss_and_grad and hvp."""
        return Linearization(self, params, self._inputs(inputs), targets)

    def _linearized(self, params: ParamVector, data: Batch | Linearization) -> Linearization:
        """data itself when it is a Linearization at params, else a fresh
        linearization of the Batch data."""
        if isinstance(data, Linearization):
            if data.params is not params:
                raise ValidationError("linearization was taken at other parameters")
            return data
        return self.linearize(params, data.inputs, data.targets)

    # -- loss and gradient ---------------------------------------------------

    def _loss_value(self, logits: np.ndarray, targets: np.ndarray) -> float:
        n = logits.shape[0]
        if self.arch.loss == "cross_entropy":
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_z = np.log(np.exp(shifted).sum(axis=1))
            true_logit = (shifted * targets).sum(axis=1)
            return float((log_z - true_logit).sum() / n)
        diff = logits - targets
        return float((diff * diff).sum() / n)

    def loss_and_grad(self, params: ParamVector, batch: Batch | Linearization, beta: float):
        """Regularized mean loss and its exact gradient on a Batch or on its
        Linearization at params."""
        if beta < 0:
            raise ValidationError(f"beta must be >= 0, got {beta}")
        lin = self._linearized(params, batch)
        g_logits = lin.loss_grad_logits()
        mask = self.reg_mask(params)
        loss = self._loss_value(lin.logits, lin.targets)
        loss += 0.5 * beta * float(params.values[mask] @ params.values[mask])
        grad = lin._backprop(g_logits)
        grad[mask] += beta * params.values[mask]
        return loss, grad

    # -- directional derivatives ----------------------------------------------

    def _product(self, name: str, params: ParamVector, data: Batch | Linearization,
                 beta: float, v: np.ndarray) -> np.ndarray:
        """Linearization block product ``name`` plus beta * mask, applied to a
        vector (P,) or to every column of a block (P, k)."""
        v = np.asarray(v, dtype=np.float64)
        out = getattr(self._linearized(params, data), name)(v.reshape(v.shape[0], -1))
        out = out.reshape(v.shape)
        if beta:
            mask = self.reg_mask(params)
            out[mask] += beta * v[mask]
        return out

    def hvp(self, params: ParamVector, batch: Batch | Linearization, beta: float,
            v: np.ndarray) -> np.ndarray:
        """Exact Hessian product of the regularized loss with a vector or a
        (P, k) block, on a Batch or on its Linearization at params."""
        return self._product("hvp_mm", params, batch, beta, v)

    def ggn_vp(self, params: ParamVector, batch: Batch | Linearization, beta: float,
               v: np.ndarray) -> np.ndarray:
        """Generalized Gauss-Newton product (G_B + beta * mask) v with a vector
        or a (P, k) block, on a Batch or on its Linearization at params."""
        return self._product("ggn_mm", params, batch, beta, v)

    def jvp_batch(self, params: ParamVector, inputs: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Directional derivative of the logits, grad f(x) . v, for many inputs."""
        v = np.asarray(v, dtype=np.float64)
        return self.linearize(params, inputs).jvp_mm(v[:, None])[0]

    def jacobian_vp(self, params: ParamVector, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """grad f(x) . v for a single input, via forward-mode differentiation."""
        return self.jvp_batch(params, np.atleast_2d(x), v)[0]

    # -- K-FAC factors ---------------------------------------------------------

    def kfac_factors(
        self,
        params: ParamVector,
        batch: Batch,
        fisher_mode: str = "mc_sample",
        rng: Rng | None = None,
    ) -> list:
        """Kronecker factors A^(l), B^(l) for each dense layer (weights only).

        A^(l) averages outer products of layer inputs; B^(l) averages outer
        products of per-sample loss gradients w.r.t. the layer pre-activation,
        with targets either sampled from the model's predictive distribution
        (fisher_mode="mc_sample", one draw per datum) or taken from the batch
        (fisher_mode="empirical").
        """
        if fisher_mode not in ("mc_sample", "empirical"):
            raise ValidationError(f"unknown fisher_mode {fisher_mode!r}")
        if fisher_mode == "mc_sample" and rng is None:
            raise ValidationError("mc_sample mode requires an Rng")
        lin = self.linearize(params, batch.inputs)
        logits = lin.logits
        n = batch.size

        # per-sample gradient seed at the logits (loss summed per sample,
        # the 1/N average lives in the factor normalization)
        if self.arch.loss == "cross_entropy":
            p = lin.probs
            if fisher_mode == "empirical":
                seed = p - batch.targets
            else:
                u = rng.uniform(n)
                cdf = np.cumsum(p, axis=1)
                drawn = np.minimum((u[:, None] > cdf).sum(axis=1), p.shape[1] - 1)
                y = np.zeros_like(p)
                y[np.arange(n), drawn] = 1.0
                seed = p - y
        else:
            if fisher_mode == "empirical":
                seed = 2.0 * (logits - batch.targets)
            else:
                eps = rng.normal(n * logits.shape[1]).reshape(logits.shape)
                seed = np.sqrt(2.0) * eps

        blocks = []
        for l, (a, g) in enumerate(zip(lin.acts, lin._layer_grads(seed))):
            factors = {"input": _sym(a.T @ a / n), "output": _sym(g.T @ g / n)}
            for side, f in factors.items():
                if not np.isfinite(f).all():
                    raise NumericalError(
                        f"kfac_factors: non-finite entry in the layer {l} {side} factor")
            blocks.append(KfacBlock(layer=l, factor_a=DenseSymMatrix(factors["input"]),
                                    factor_b=DenseSymMatrix(factors["output"])))
        return blocks


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValidationError("labels out of range for one-hot encoding")
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out
