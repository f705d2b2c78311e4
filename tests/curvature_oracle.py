"""Per-vector curvature products as plain loops: every call runs its own
forward trace and handles one direction. They are the reference that the
block products of ``quadbias.model.Linearization`` are checked against. The
K-FAC factors here keep their own trace, softmax and backward loop, the
reference for ``Mlp.kfac_factors``; quadratic forms taken as a block product
and a dot are the reference for the curvatures of ``quadratic.in_span``."""

import numpy as np

from quadbias.linalg import DenseSymMatrix
from quadbias.model import KfacBlock, _act, _sym, softmax


def _act_d(name, z):
    """act'(Z) from the pre-activation Z (relu' at 0 is 0)."""
    if name == "relu":
        return z > 0.0
    if name == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    return np.ones_like(z)


def _act_dd(name, z):
    """act''(Z) from the pre-activation Z."""
    if name == "tanh":
        t = np.tanh(z)
        return -2.0 * t * (1.0 - t * t)
    return np.zeros_like(z)


def _trace(mlp, params, x):
    wb = [(params.view(l, "weight"), params.view(l, "bias"))
          for l in range(mlp.arch.n_layers)]
    acts, pre, a = [x], [], x
    for l, (w, b) in enumerate(wb):
        z = a @ w + b
        pre.append(z)
        a = _act(mlp.arch.activation, z) if l < len(wb) - 1 else z
        if l < len(wb) - 1:
            acts.append(a)
    return wb, acts, pre


def _r_forward(mlp, wb, acts, pre, vp):
    r_a = np.zeros_like(acts[0])
    r_pre = []
    for l, (w, _) in enumerate(wb):
        r_z = acts[l] @ vp.view(l, "weight") + r_a @ w + vp.view(l, "bias")
        r_pre.append(r_z)
        if l < len(wb) - 1:
            r_a = _act_d(mlp.arch.activation, pre[l]) * r_z
    return r_pre


def _backprop(mlp, wb, acts, pre, g):
    out = mlp.zero_params()
    for l in range(len(wb) - 1, -1, -1):
        out.view(l, "weight")[...] = acts[l].T @ g
        out.view(l, "bias")[...] = g.sum(axis=0)
        if l > 0:
            g = (g @ wb[l][0].T) * _act_d(mlp.arch.activation, pre[l - 1])
    return out.values


def jvp(mlp, params, inputs, v):
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    wb, acts, pre = _trace(mlp, params, x)
    return _r_forward(mlp, wb, acts, pre, params.with_values(v))[-1]


def ggn_vp(mlp, params, batch, v):
    """G_B v of the mean loss (no regularizer)."""
    wb, acts, pre = _trace(mlp, params, batch.inputs)
    jv = _r_forward(mlp, wb, acts, pre, params.with_values(v))[-1]
    if mlp.arch.loss == "cross_entropy":
        p = softmax(pre[-1])
        h_jv = p * jv - p * (p * jv).sum(axis=1, keepdims=True)
    else:
        h_jv = 2.0 * jv
    return _backprop(mlp, wb, acts, pre, h_jv / batch.size)


def hvp(mlp, params, batch, v):
    """H_B v of the mean loss (no regularizer), forward-over-reverse."""
    act = mlp.arch.activation
    vp = params.with_values(v)
    wb, acts, pre = _trace(mlp, params, batch.inputs)
    r_pre = _r_forward(mlp, wb, acts, pre, vp)
    n = batch.size
    if mlp.arch.loss == "cross_entropy":
        p = softmax(pre[-1])
        rz = r_pre[-1]
        r_g = (p * rz - p * (p * rz).sum(axis=1, keepdims=True)) / n
        g = (p - batch.targets) / n
    else:
        r_g = 2.0 * r_pre[-1] / n
        g = 2.0 * (pre[-1] - batch.targets) / n
    r_acts = [np.zeros_like(acts[0])]
    for l in range(len(wb) - 1):
        r_acts.append(_act_d(act, pre[l]) * r_pre[l])
    out = mlp.zero_params()
    for l in range(len(wb) - 1, -1, -1):
        w, _ = wb[l]
        out.view(l, "weight")[...] = r_acts[l].T @ g + acts[l].T @ r_g
        out.view(l, "bias")[...] = r_g.sum(axis=0)
        if l > 0:
            s = g @ w.T
            r_s = r_g @ w.T + g @ vp.view(l, "weight").T
            d1 = _act_d(act, pre[l - 1])
            r_g = r_s * d1 + s * _act_dd(act, pre[l - 1]) * r_pre[l - 1]
            g = s * d1
    return out.values


def kfac_factors(mlp, params, batch, fisher_mode, rng=None):
    """Kronecker factors A^(l), B^(l) per dense layer, with the per-sample
    gradient seed drawn (mc_sample) or taken from the targets (empirical)."""
    wb, acts, pre = _trace(mlp, params, batch.inputs)
    logits = pre[-1]
    n = batch.size
    if mlp.arch.loss == "cross_entropy":
        p = softmax(logits)
        if fisher_mode == "empirical":
            seed = p - batch.targets
        else:
            u = rng.uniform(n)
            cdf = np.cumsum(p, axis=1)
            drawn = np.minimum((u[:, None] > cdf).sum(axis=1), p.shape[1] - 1)
            y = np.zeros_like(p)
            y[np.arange(n), drawn] = 1.0
            seed = p - y
    elif fisher_mode == "empirical":
        seed = 2.0 * (logits - batch.targets)
    else:
        seed = np.sqrt(2.0) * rng.normal(n * logits.shape[1]).reshape(logits.shape)
    g = seed
    per_layer_g = [None] * len(wb)
    for l in range(len(wb) - 1, -1, -1):
        per_layer_g[l] = g
        if l > 0:
            g = (g @ wb[l][0].T) * _act_d(mlp.arch.activation, pre[l - 1])
    blocks = []
    for l in range(len(wb)):
        a, gl = acts[l], per_layer_g[l]
        blocks.append(KfacBlock(layer=l, factor_a=DenseSymMatrix(_sym(a.T @ a / n)),
                                factor_b=DenseSymMatrix(_sym(gl.T @ gl / n))))
    return blocks


def operator_forms(op, vs):
    """v_j^T A v_j for every column of a block, from the operator's block
    product and a dot: the reference for the curvatures of
    ``quadratic.in_span``."""
    return np.einsum("ij,ij->j", vs, op.matmat(vs))
