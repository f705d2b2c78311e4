"""The Laplace predictive with no work shared between calls: the posterior
is decomposed again at every beta, every sample is one ``sample_params``
draw from its own stream, and every call linearizes the network afresh.
It is the reference that the sweep's shared eigendecompositions, draws and
linearizations are checked against."""

import numpy as np

from quadbias.linalg import Rng, kron_matvec, sym_eigh
from quadbias.model import softmax


def posterior(blocks, mean, n_train, beta):
    """Per layer: the two factor eigenbases and S_A otimes S_B, with
    slightly negative eigenvalues clamped to zero."""
    eigs = []
    for blk in blocks:
        ea, eb = sym_eigh(blk.factor_a), sym_eigh(blk.factor_b)
        s_a, s_b = np.maximum(ea.eigenvalues, 0.0), np.maximum(eb.eigenvalues, 0.0)
        eigs.append((ea.basis, eb.basis, np.kron(s_a, s_b)))
    weights = [e for e in mean.layout if e.role == "weight"]
    return {"mean": mean, "n_train": n_train, "beta": beta,
            "layers": list(zip(weights, eigs))}


def sample_params(post, rng):
    """theta* + V w, layer by layer from one stream."""
    out = post["mean"].values.copy()
    scale = 1.0 / np.sqrt(post["n_train"])
    for entry, (u_a, u_b, kron_eigs) in post["layers"]:
        w = rng.normal(entry.size)
        w = w / np.sqrt(kron_eigs + post["beta"])
        out[entry.offset : entry.offset + entry.size] += scale * kron_matvec(u_a, u_b, w)
    return out


def predictive(blocks, mean, n_train, beta, mlp, inputs, s_samples, seed):
    """Mean softmax of f(x; theta*) + J (theta_s - theta*) over the draws
    theta_s of the streams Rng(seed).split(s)."""
    post = posterior(blocks, mean, n_train, beta)
    base = Rng(seed)
    lin = mlp.linearize(mean, inputs)
    probs = np.zeros_like(lin.logits)
    for s in range(s_samples):
        delta = sample_params(post, base.split(s)) - mean.values
        probs += softmax(lin.logits + lin.jvp_mm(delta[:, None])[0])
    return probs / s_samples
