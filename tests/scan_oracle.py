"""Per-batch scoring of an eigendirection scan: one quadratic per batch and
one full-batch quadratic, each scored by projecting its gradient and by one
``directional_curvatures`` call. It is the reference the row pass of
``quadbias.diagnostics.eigendirection_scan`` is checked against, for every
curvature kind."""

import numpy as np

from quadbias.quadratic import build_quadratic, directional_curvatures, fullbatch_quadratic


def per_batch_scores(mlp, theta, batches, data, directions, kind, beta, delta, chunk_size,
                     fisher_mode="mc_sample", batch_rngs=None, full_rng=None):
    """(slopes k x M, curvatures k x M, full-batch slopes, full-batch
    curvatures) of the kind's quadratics along the (P, k) directions; K-FAC
    batch i samples its factors from batch_rngs[i] and the full batch from
    full_rng."""
    batch_rngs = batch_rngs or [None] * len(batches)
    quads = [build_quadratic(mlp, theta, b, kind, beta, delta, i, fisher_mode, r)
             for i, (b, r) in enumerate(zip(batches, batch_rngs))]
    q_full = fullbatch_quadratic(mlp, theta, data, kind, beta, delta, chunk_size,
                                 fisher_mode, full_rng)
    return (np.column_stack([directions.T @ q.gradient for q in quads]),
            np.column_stack([directional_curvatures(q, directions) for q in quads]),
            directions.T @ q_full.gradient,
            directional_curvatures(q_full, directions))
