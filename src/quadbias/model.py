"""Small fully-connected classifier with exact curvature access.

The network is evaluated with plain numpy. Besides the forward pass it exposes
the exact loss gradient, (P, k) Hessian (forward-over-reverse) and Gauss-Newton
block products of the mean loss, Jacobian-vector products, and per-layer
Kronecker factors for dense layers. These are the curvature sources that all
other modules consume; ``quadratic.CurvatureOperator`` adds the regularizer.

Conventions
-----------
Layer l maps activations A_{l-1} (rows = samples) to Z_l = A_{l-1} W_l + b_l
with W_l of shape (fan_in, fan_out). Flat parameter storage is row-major, so
a layer's flat weight slice equals the column-stacked (fan_out x fan_in)
matrix used by the Kronecker utilities in :mod:`quadbias.linalg`.

The empirical risk is the mean per-sample loss; the regularizer beta/2 ||w||^2
acts on the weights only (``ParamVector.weight_entries``), never on the biases.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import (ValidationError, as_block, as_integers, check_counts, check_domains,
                     check_nonnegative, is_count, require_finite)
from .linalg import DenseSymMatrix, Rng, _sym

ACTIVATIONS = ("relu", "tanh", "identity")
LOSSES = ("cross_entropy", "mse")
FISHER_MODES = ("mc_sample", "empirical")

# Rows x columns one block pass of a Linearization may hold. A single-vector
# pass over one 512-row chunk held this much before block products existed;
# passes of max(1, BLOCK_BUDGET // rows) columns keep peak memory there.
BLOCK_BUDGET = 512
# Rows x draws of one group of the Laplace predictive, whose logit and
# softmax blocks hold C times this many doubles: 4 draws at 820 rows. All 40
# draws at once was slower and took 5 MiB more.
DRAW_BUDGET = 4096
# Rows x columns x parameters, about the multiply-adds of one pass, from which
# a second thread takes alternate passes (see _run_halves): smaller passes do
# not pay for the handoff. A chunk of predicted_labels is a one-column pass. A
# pass of the toy nets (P <= 1,562) stays below it up to 2,685 rows; a 512-row
# pass of the 77k-parameter medium net is 9x above it.
SPLIT_WORK = 1 << 22
# The variables each BLAS reads its thread count from, in its own order of
# precedence; any other BLAS is taken to read OMP_NUM_THREADS.
BLAS_THREAD_VARS = {
    "openblas": ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"),
    "mkl": ("MKL_NUM_THREADS", "OMP_NUM_THREADS"),
}


def _second_thread_helps(environ, cores: int, blas: str) -> bool:
    """True when a second thread of block passes would add a core's work:
    at least two usable cores, and the BLAS named blas held to one thread by
    the first of its variables set to a positive count. Unset, BLAS already
    spreads one product over every core."""
    if cores < 2:
        return False
    names = next((v for k, v in BLAS_THREAD_VARS.items() if k in blas.lower()),
                 ("OMP_NUM_THREADS",))
    for name in names:
        value = environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value) == 1
    return False


@cache
def _pass_worker():
    """A one-thread executor, the persistent thread that takes alternate
    passes of large block products, started on first use; None where
    _second_thread_helps says it would not help."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    blas = getattr(np.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {}).get("name", "")
    if not _second_thread_helps(os.environ, cores, blas):
        return None
    from concurrent.futures import ThreadPoolExecutor  # imported only where used

    return ThreadPoolExecutor(1, thread_name_prefix="quadbias-pass")


if hasattr(os, "register_at_fork"):  # a forked child has no copy of the thread
    os.register_at_fork(after_in_child=_pass_worker.cache_clear)


def _run_halves(items, run, work: float) -> None:
    """run(items), or, when there are two or more items of at least
    SPLIT_WORK work each and a second thread helps (``_pass_worker``),
    run(items[1::2]) on that thread while this one runs run(items[::2]).
    An error of either half is raised once both halves are done. The worker
    must run private code only: bench/tracer.py wraps the public methods and
    keeps one span stack for every thread."""
    worker = None
    if len(items) > 1 and work >= SPLIT_WORK:
        worker = _pass_worker()
    if worker is None:
        run(items)
        return
    odd = worker.submit(run, items[1::2])
    try:
        run(items[::2])
    finally:
        odd.exception()  # waits for the odd half, however the even half ends
    odd.result()


@dataclass(frozen=True)
class MlpArchitecture:
    """Layer sizes [D, h1, ..., C], activation between linear layers, loss id;
    a bad value is an error naming its [model] config key."""

    layer_sizes: tuple[int, ...]
    activation: str = "relu"
    loss: str = "cross_entropy"

    def __post_init__(self):
        sizes = tuple(self.layer_sizes)
        check_domains("model", (
            ("layers", sizes, len(sizes) >= 2 and all(map(is_count, sizes)),
             "two or more integer sizes >= 1"),
            ("activation", self.activation, self.activation in ACTIVATIONS,
             f"one of {', '.join(ACTIVATIONS)}"),
            ("loss", self.loss, self.loss in LOSSES, f"one of {', '.join(LOSSES)}"),
        ))
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in sizes))

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1


@dataclass(frozen=True)
class LayoutEntry:
    layer: int
    role: str  # "weight" | "bias"
    shape: tuple
    offset: int
    size: int = field(init=False, repr=False, compare=False)
    span: slice = field(init=False, repr=False, compare=False)  # its slice of the flat axis

    def __post_init__(self):
        object.__setattr__(self, "size", int(np.prod(self.shape)))
        object.__setattr__(self, "span", slice(self.offset, self.offset + self.size))

    def part(self, flat: np.ndarray) -> np.ndarray:
        """This entry of the parameter vectors along the last axis of flat
        (..., P), shaped (..., *shape), as a view that writes through to flat."""
        return flat[..., self.span].reshape(flat.shape[:-1] + self.shape)


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
    """Flat parameter array plus the layout that maps slices to layers."""

    values: np.ndarray
    layout: tuple
    # (the values array they view, every layer's (weight, bias) views)
    _layer_views: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        total = sum(e.size for e in self.layout)
        if self.values.shape != (total,):
            raise ValidationError(
                f"values length {self.values.shape} does not match layout size {total}"
            )

    @cached_property
    def weight_entries(self) -> tuple:
        """The layout entries of the weights, in layer order; built at the
        first read and kept, since the layout does not change."""
        return tuple(e for e in self.layout if e.role == "weight")

    @property
    def n_params(self) -> int:
        return self.values.size

    def view(self, layer: int, role: str) -> np.ndarray:
        i = 2 * layer + (role == "bias")  # the build_layout order
        e = self.layout[i] if 0 <= i < len(self.layout) else None
        if e is None or (e.layer, e.role) != (layer, role):
            raise KeyError((layer, role))
        return e.part(self.values)

    def layer_views(self) -> list:
        """The (weight, bias) views of every layer of the layout, built once
        and reused while ``values`` is the same array: an update in place
        keeps them, an assigned array gets fresh ones."""
        if self._layer_views is None or self._layer_views[0] is not self.values:
            self._layer_views = (self.values, [(self.view(l, "weight"), self.view(l, "bias"))
                                               for l in range(len(self.layout) // 2)])
        return self._layer_views[1]

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.layout)

    def with_values(self, values: np.ndarray) -> "ParamVector":
        return ParamVector(np.asarray(values, dtype=np.float64), self.layout)

    @classmethod
    def from_values(cls, values: np.ndarray) -> "ParamVector":
        """Wrap a bare vector as a single-weight-block parameter (synthetic use)."""
        values = np.asarray(values, dtype=np.float64)
        layout = (LayoutEntry(0, "weight", (values.size,), 0),)
        return cls(values, layout)


@dataclass(frozen=True)
class Batch:
    """Inputs and one-hot targets of a data subset."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=np.float64)
        y = np.asarray(self.targets, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValidationError(f"inconsistent batch shapes {x.shape}, {y.shape}")
        zero_or_one = np.all((y == 0.0) | (y == 1.0))
        ones_per_row = (y == 1.0).sum(axis=1)
        if not (zero_or_one and np.all(ones_per_row == 1)):
            raise ValidationError("targets must be one-hot rows")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", y)

    def rows(self, pos) -> "Batch":
        """The rows pos of this batch. A row slice of a checked table holds
        only checked rows, so it is taken without the checks."""
        part = object.__new__(Batch)
        object.__setattr__(part, "inputs", self.inputs[pos])
        object.__setattr__(part, "targets", self.targets[pos])
        return part

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


def softmax(z: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax of z along axis, written into out when given (out=z overwrites z)."""
    return _softmax_parts(z, axis, out)[0]


def _softmax_parts(z: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> tuple:
    """The softmax of z along axis, the shift max(z) and the sum of
    exp(z - shift) it was divided by, both kept along axis."""
    shift = z.max(axis=axis, keepdims=True)
    out = np.subtract(z, shift, out=out)
    np.exp(out, out=out)
    total = out.sum(axis=axis, keepdims=True)
    out /= total
    return out, shift, total


def _act(name: str, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The activation of z, written into out when given (out=z overwrites z)."""
    if name == "relu":
        return np.maximum(z, 0.0, out=out)
    if name == "tanh":
        return np.tanh(z, out=out)
    return z


def _act_d(name: str, a: np.ndarray) -> np.ndarray:
    """act'(Z) from the activation A = act(Z)."""
    # relu derivative at exactly 0 is 0 (subgradient choice); kept as a bool
    # mask, an eighth of the memory, which multiplies as exact 0.0 / 1.0
    if name == "relu":
        return a > 0.0
    if name == "tanh":
        return 1.0 - a * a
    return np.ones_like(a)


class Linearization:
    """The network at fixed (params, inputs): the layer inputs A_0..A_{L-1},
    the logits, activation derivatives and, for cross entropy, the softmax
    with the shift and sum that give the loss its log-partition, computed
    once; hidden pre-activations are not kept.

    Every product, the mean loss, its gradient and the K-FAC factors reuse
    them; all but the loss walk back through the network by one recursion,
    ``_layer_grads``, which the Hessian product seeds with per-layer terms.
    Products take (P, k) blocks of parameter directions and run in
    passes of at most ``max(1, BLOCK_BUDGET // rows)`` columns; a pass is a
    few matrix products per layer over all of its columns at once, with
    R-quantities laid out (columns, rows, width), and large passes are
    shared with a second thread (``_by_pass``). Targets, when given, are the
    shape of the logits; what reads them raises ValidationError without them.
    """

    def __init__(self, mlp: "Mlp", params: ParamVector, inputs: np.ndarray,
                 targets: np.ndarray | None = None):
        self.mlp = mlp
        self.params = params
        self.targets = targets
        self.wb = mlp._unpack(params)
        self.acts = []
        self.logits = mlp._walk(self.wb, inputs, self.acts)
        if targets is not None and np.shape(targets) != self.logits.shape:
            raise ValidationError(
                f"targets shape {np.shape(targets)} != logits shape {self.logits.shape}")
        self.d1 = [_act_d(mlp.arch.activation, a) for a in self.acts[1:]]
        # the softmax, and the shift and sum that _loss takes its log-partition from
        self.probs, self._shift, self._exp_sum = (
            _softmax_parts(self.logits) if mlp.arch.loss == "cross_entropy" else (None,) * 3)
        self.cols_per_pass = max(1, BLOCK_BUDGET // max(1, self.size))

    @property
    def size(self) -> int:
        """Rows in the trace."""
        return self.acts[0].shape[0]

    @cached_property
    def d2(self) -> list | None:
        """act''(Z_l) of the hidden layers, from A_l = act(Z_l) as d1 holds
        act'; None for relu and identity, whose act'' is 0, so their
        second-order terms are skipped."""
        if self.mlp.arch.activation != "tanh":
            return None
        return [-2.0 * a * (1.0 - a * a) for a in self.acts[1:]]

    # -- shared passes ---------------------------------------------------------

    def _by_pass(self, vs: np.ndarray, tail: tuple, one_pass) -> np.ndarray:
        """one_pass over column groups of vs, each written whole into its own
        slice of the (k,) + tail output, the odd passes on a second thread
        when it helps (``_run_halves``); nothing is summed across passes, so
        the output is the same bytes either way."""
        vs = as_block(vs, self.mlp.n_params)
        out = np.empty((vs.shape[1],) + tail)
        step = self.cols_per_pass

        def run(part):
            for start in part:
                out[start : start + step] = one_pass(
                    np.ascontiguousarray(vs[:, start : start + step].T))

        _run_halves(range(0, vs.shape[1], step), run, step * self.size * self.mlp.n_params)
        return out

    def _split(self, flat: np.ndarray, l: int):
        """Layer l's weight (..., fan_in, fan_out) and bias (..., fan_out)
        parts of parameter vectors along the last axis of flat (..., P), as
        views that write through to flat."""
        ew, eb = self.mlp.layout[2 * l], self.mlp.layout[2 * l + 1]
        return ew.part(flat), eb.part(flat)

    def _r_forward(self, vt: np.ndarray, second: bool = False, every: bool = False):
        """Forward-mode pass: R[Z_L], or with every the list of R[Z_l] of
        every layer (R[A_0] = 0). With second, also the second-order R2[Z_L]
        (Pearlmutter 1994), from R2[Z_l] = 2 R[A_{l-1}] V_l + R2[A_{l-1}] W_l,
        R2[Z_1] = 0, and R2[A_l] = act''(Z_l) R[Z_l]^2 + act'(Z_l) R2[Z_l]."""
        r_pre, r_a, r2_a, r2_z = [], None, None, 0.0
        for l, (w, _) in enumerate(self.wb):
            vw, vb = self._split(vt, l)
            r_z = self.acts[l] @ vw
            if r_a is not None:
                r_z += r_a @ w
                if second:
                    r2_z = 2.0 * (r_a @ vw) + r2_a @ w
            r_z += vb[:, None, :]
            if every:
                r_pre.append(r_z)
            if l < len(self.wb) - 1:
                if second:
                    r2_a = self.d1[l] * r2_z
                    if self.d2 is not None:
                        r2_a = self.d2[l] * r_z * r_z + r2_a
                r_a = self.d1[l] * r_z
        out = r_pre if every else r_z
        return (out, r2_z) if second else out

    def _layer_grads(self, g: np.ndarray, extra: list | None = None) -> list:
        """Gradient at every Z_l from a logits-side seed g, (rows, C) or
        (k, rows, C): g_L = g and g_{l-1} = (g_l W_l^T) * act'(Z_{l-1}),
        plus extra[l] for l >= 1 when per-layer terms are given."""
        gs = [g]
        for l in range(len(self.wb) - 1, 0, -1):
            gs.append((gs[-1] @ self.wb[l][0].T) * self.d1[l - 1])
            if extra is not None:
                gs[-1] += extra[l]
        return gs[::-1]

    def _backprop(self, g: np.ndarray, extra: list | None = None) -> np.ndarray:
        """Parameter gradient from a logits-side seed g, (rows, C) or
        (k, rows, C), and optional per-layer terms (see ``_layer_grads``);
        the result is (P,) or (k, P)."""
        out = np.empty(g.shape[:-2] + (self.mlp.n_params,))
        for l, g_l in enumerate(self._layer_grads(g, extra)):
            out_w, out_b = self._split(out, l)
            out_w[...] = self.acts[l].T @ g_l
            out_b[...] = g_l.sum(axis=-2)
        return out

    def loss_grad_rows(self) -> np.ndarray:
        """d(row loss)/d logits for every row, (rows, C)."""
        if self.targets is None:
            raise ValidationError("this product needs the batch targets")
        if self.probs is not None:
            return self.probs - self.targets
        return 2.0 * (self.logits - self.targets)

    def _loss(self) -> float:
        """The mean loss over the rows; read after ``loss_grad_rows``, which
        checks that there are targets."""
        if self.probs is not None:
            shifted = self.logits - self._shift
            log_z = np.log(self._exp_sum[:, 0])
            return float((log_z - (shifted * self.targets).sum(axis=1)).sum() / self.size)
        diff = self.logits - self.targets
        return float((diff * diff).sum() / self.size)

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
        with s = g_l W_l^T, or None when act'' is 0 (``d2``)."""
        gs = self._layer_grads(self.loss_grad_rows() / self.size)
        if self.d2 is None:
            return gs, None
        return gs, [None] + [(gs[l] @ self.wb[l][0].T) * self.d2[l - 1]
                             for l in range(1, len(self.wb))]

    # -- block products --------------------------------------------------------

    def jvp_mm(self, vs: np.ndarray) -> np.ndarray:
        """Directional derivatives of the logits, (k, rows, C), one slice per
        column of vs."""
        return self._by_pass(vs, self.logits.shape, self._r_forward)

    def ggn_mm(self, vs: np.ndarray) -> np.ndarray:
        """Generalized Gauss-Newton block product G_B vs, (P, k).

        J v (forward mode), the loss Hessian at the logits, then J^T (reverse
        mode); the per-sample Jacobians are never materialized.
        """
        def one_pass(vt):
            jv = self._r_forward(vt)
            return self._backprop(self._loss_hessian(jv) / self.size)

        return self._by_pass(vs, (self.mlp.n_params,), one_pass).T

    def ggn_gram(self, vs: np.ndarray) -> np.ndarray:
        """V^T G_B V, (k, k): the row mean of (J V)^T Lambda (J V). Forward
        mode only, so no backward pass runs and no (P, k) product is formed;
        it holds J V and Lambda J V of every column, (k, rows, C) each."""
        jv = self.jvp_mm(vs)
        lam_jv = self._loss_hessian(jv).reshape(len(jv), -1)
        jv = jv.reshape(len(jv), -1)
        return lam_jv @ jv.T / self.size

    def row_terms(self, vs: np.ndarray, hessian: bool, curvature: bool = True) -> np.ndarray:
        """Per-row slope (J_n v) . r_n and curvature (J_n v)^T Lambda_n (J_n v),
        (k, rows, 2), r_n the gradient of row n's loss at its logits; with
        hessian, each curvature gains r_n . R2[z_n]. Their row means are
        v . g_B and v^T G_B v, or v^T H_B v. Without curvature the curvature
        column is 0 and never computed. Forward mode only."""
        r = self.loss_grad_rows()

        def one_pass(vt):
            jv, r2 = self._r_forward(vt, True) if hessian else (self._r_forward(vt), None)
            slope = np.einsum("krc,rc->kr", jv, r)
            if not curvature:
                return np.stack([slope, np.zeros_like(slope)], axis=-1)
            curv = np.einsum("krc,krc->kr", jv, self._loss_hessian(jv))
            if hessian:
                curv += (r2 * r).sum(axis=-1)
            return np.stack([slope, curv], axis=-1)

        return self._by_pass(vs, (self.size, 2), one_pass)

    def hvp_mm(self, vs: np.ndarray) -> np.ndarray:
        """Exact Hessian block product of the mean loss, (P, k).

        Forward-over-reverse: the tangent walk R[Z_l], then one ``_backprop``
        of Lambda R[logits] / N whose g_{l-1} gains, at each l >= 1,
        (g_l V_l^T) * act'(Z_{l-1}) + s_l * act''(Z_{l-1}) * R[Z_{l-1}] (see
        ``_backward_trace``); the weights of layers l >= 1 then gain R[A_l]^T g_l.
        """
        gs, s_d2 = self._backward_trace
        hidden = range(1, len(self.wb))

        def one_pass(vt):
            r_pre = self._r_forward(vt, every=True)
            extra = [None] + [
                (gs[l] @ self._split(vt, l)[0].transpose(0, 2, 1)) * self.d1[l - 1]
                for l in hidden]
            if s_d2 is not None:
                for l in hidden:
                    extra[l] += s_d2[l] * r_pre[l - 1]
            out = self._backprop(self._loss_hessian(r_pre[-1]) / self.size, extra)
            for l in hidden:
                out_w = self._split(out, l)[0]
                out_w += (self.d1[l - 1] * r_pre[l - 1]).transpose(0, 2, 1) @ gs[l]
            return out

        return self._by_pass(vs, (self.mlp.n_params,), one_pass).T


class Mlp:
    """Model context bundling an architecture with its derivative machinery."""

    def __init__(self, arch: MlpArchitecture):
        self.arch = arch
        self.layout = build_layout(arch)
        self.n_params = sum(e.size for e in self.layout)

    # -- parameters ---------------------------------------------------------

    def zero_params(self) -> ParamVector:
        return ParamVector(np.zeros(self.n_params), self.layout)

    def init_params(self, rng: Rng) -> ParamVector:
        """He-style Gaussian weights, zero biases; deterministic given rng."""
        p = self.zero_params()
        for e in p.weight_entries:  # e.shape[0] is the layer's fan-in
            e.part(p.values)[...] = rng.normal(e.size).reshape(e.shape) * np.sqrt(2.0 / e.shape[0])
        return p

    # -- forward ------------------------------------------------------------

    def _unpack(self, params: ParamVector):
        """The layer views of params; parameters of another layout raise."""
        if params.layout != self.layout:
            raise ValidationError("parameters do not have this network's layout")
        return params.layer_views()

    def _inputs(self, inputs: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        if x.shape[1] != self.arch.input_dim:
            raise ValidationError(
                f"input width {x.shape[1]} != architecture input dim {self.arch.input_dim}"
            )
        return x

    def forward(self, params: ParamVector, inputs: np.ndarray) -> np.ndarray:
        """Logits for a batch of inputs (rows); deterministic."""
        return self._walk(self._unpack(params), self._inputs(inputs))

    def predicted_labels(self, params: ParamVector, inputs: np.ndarray,
                         chunk_size: int) -> np.ndarray:
        """The argmax of the logits of every row of inputs, computed
        chunk_size rows at a time, so no more than one chunk's layer outputs
        are held per thread; alternate chunks run on a second thread when it
        helps (``_run_halves``)."""
        check_counts(chunk_size=chunk_size)
        wb, x = self._unpack(params), self._inputs(inputs)
        out = np.empty(x.shape[0], dtype=np.intp)

        def run(part):
            for start in part:
                rows = slice(start, start + chunk_size)
                out[rows] = np.argmax(self._walk(wb, x[rows]), axis=1)

        _run_halves(range(0, x.shape[0], chunk_size), run, chunk_size * self.n_params)
        return out

    def _walk(self, wb: list, x: np.ndarray, acts: list | None = None) -> np.ndarray:
        """The logits Z_L of the layers wb at inputs x, appending each layer's
        input A_0 = x, A_l = act(Z_l) to acts when given. The bias is added
        to x W in place and A_l overwrites Z_l, so without acts no more than
        one layer's input and output are held at a time."""
        for l, (w, b) in enumerate(wb):
            if acts is not None:
                acts.append(x)
            z = x @ w
            z += b
            if l == len(wb) - 1:
                return z
            x = _act(self.arch.activation, z, out=z)

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

    def loss_and_grad(self, params: ParamVector, batch: Batch | Linearization, beta: float):
        """Regularized mean loss and its exact gradient on a Batch or on its
        Linearization at params."""
        lin = self._linearized(params, batch)
        grad = lin._backprop(lin.loss_grad_rows() / lin.size)  # first: it checks the targets
        return add_weight_decay(params, beta, lin._loss(), grad), grad

    # -- directional derivatives ----------------------------------------------

    def hvp(self, params: ParamVector, batch: Batch | Linearization, vs: np.ndarray):
        """Exact Hessian block product H_B V, (P, k), on a Batch or its Linearization."""
        return self._linearized(params, batch).hvp_mm(vs)

    def ggn_vp(self, params: ParamVector, batch: Batch | Linearization, vs: np.ndarray):
        """Gauss-Newton block product G_B V, (P, k), on a Batch or its Linearization."""
        return self._linearized(params, batch).ggn_mm(vs)

    def jvp_batch(self, params: ParamVector, inputs: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Directional derivative of the logits, grad f(x) . v, for many inputs."""
        v = np.asarray(v, dtype=np.float64)
        return self.linearize(params, inputs).jvp_mm(v[:, None])[0]

    # -- K-FAC factors ---------------------------------------------------------

    def kfac_factors(
        self,
        params: ParamVector,
        batch: Batch | Linearization,
        fisher_mode: str = "mc_sample",
        rng: Rng | None = None,
    ) -> list:
        """Kronecker factors A^(l), B^(l) for each dense layer (weights only),
        on a Batch or on its Linearization at params.

        A^(l) averages outer products of layer inputs; B^(l) averages outer
        products of per-sample loss gradients w.r.t. the layer pre-activation,
        with targets either sampled from the model's predictive distribution
        (fisher_mode="mc_sample", one draw per datum) or taken from the batch
        (fisher_mode="empirical").
        """
        if fisher_mode not in FISHER_MODES:
            raise ValidationError(f"unknown fisher_mode {fisher_mode!r}")
        if fisher_mode == "mc_sample" and rng is None:
            raise ValidationError("mc_sample mode requires an Rng")
        lin = self._linearized(params, batch)
        n = lin.size

        # per-sample gradient seed at the logits (loss summed per sample,
        # the 1/N average lives in the factor normalization)
        if fisher_mode == "empirical":
            seed = lin.loss_grad_rows()
        elif self.arch.loss == "cross_entropy":
            p = lin.probs
            u = rng.uniform(n)
            cdf = np.cumsum(p, axis=1)
            drawn = np.minimum((u[:, None] > cdf).sum(axis=1), p.shape[1] - 1)
            y = np.zeros_like(p)
            y[np.arange(n), drawn] = 1.0
            seed = p - y
        else:
            eps = rng.normal(n * lin.logits.shape[1]).reshape(lin.logits.shape)
            seed = np.sqrt(2.0) * eps

        blocks = []
        for l, (a, g) in enumerate(zip(lin.acts, lin._layer_grads(seed))):
            f_a, f_b = _sym(a.T @ a / n), _sym(g.T @ g / n)
            require_finite("kfac_factors", **{f"layer {l} input factor": f_a,
                                              f"layer {l} output factor": f_b})
            blocks.append(KfacBlock(layer=l, factor_a=DenseSymMatrix(f_a),
                                    factor_b=DenseSymMatrix(f_b)))
        return blocks


def add_weight_decay(params: ParamVector, beta: float, loss: float,
                     grad: np.ndarray) -> float:
    """loss + beta/2 ||w||^2 for a finite beta >= 0 (else ValidationError), with
    beta * w added to grad in place, one weight span at a time; none at beta = 0."""
    check_nonnegative(beta=beta)
    if beta:
        for e in params.weight_entries:
            w = params.values[e.span]
            loss += 0.5 * beta * float(w @ w)
            grad[e.span] += beta * w
    return loss


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = as_integers("labels", labels)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValidationError("labels out of range for one-hot encoding")
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out
