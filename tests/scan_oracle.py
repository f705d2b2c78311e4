"""Per-batch scoring of an eigendirection scan: one quadratic per batch and
one full-batch quadratic, each scored by projecting its gradient and by one
``directional_curvatures`` call. It is the reference the GGN row pass of
``quadbias.diagnostics.eigendirection_scan`` is checked against."""

import numpy as np

from quadbias.quadratic import build_quadratic, directional_curvatures, fullbatch_quadratic


def per_batch_scores(mlp, theta, batches, data, directions, beta, delta, chunk_size):
    """(slopes k x M, curvatures k x M, full-batch slopes, full-batch
    curvatures) of the GGN quadratics along the (P, k) directions."""
    quads = [build_quadratic(mlp, theta, b, "ggn", beta, delta, batch_id=i)
             for i, b in enumerate(batches)]
    q_full = fullbatch_quadratic(mlp, theta, data, "ggn", beta, delta, chunk_size)
    return (np.column_stack([directions.T @ q.gradient for q in quads]),
            np.column_stack([directional_curvatures(q, directions) for q in quads]),
            directions.T @ q_full.gradient,
            directional_curvatures(q_full, directions))
