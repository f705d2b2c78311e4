"""Debiased CG as two separate passes: CG on the direction batch first, then
its directions replayed with magnitudes measured on the second batch. It is
the reference that the single interleaved loop of ``quadbias.cg`` is checked
against."""

import numpy as np

from quadbias.cg import CURVATURE_FLOOR, CgTrace, cg_minimize


def rebuild_magnitudes(q_bt, dir_trace):
    """(trace, iterates): step along dir_trace's directions with
    tau~_p = -slope/curvature on q_bt, the gradient following
    grad~_{p+1} = grad~_p + tau~_p H~ d_p, and keep every iterate of that
    walk in a list, the reference for ``CgTrace.iterates``."""
    theta = q_bt.theta0.values.copy()
    grad = q_bt.gradient.copy()
    iterates = [theta.copy()]
    magnitudes = []
    residual_norms = [float(np.linalg.norm(grad))]
    termination = dir_trace.termination
    for d in dir_trace.directions.T:
        h_d = q_bt.curvature.matvec(d)
        curv = float(d @ h_d)
        slope = float(d @ grad)
        if curv <= CURVATURE_FLOOR:
            termination = "negative_curvature"
            break
        tau = -slope / curv
        theta = theta + tau * d
        grad = grad + tau * h_d
        iterates.append(theta.copy())
        magnitudes.append(tau)
        residual_norms.append(float(np.linalg.norm(grad)))
    directions = dir_trace.directions[:, :len(magnitudes)]
    return CgTrace(q_bt.theta0.values, directions, magnitudes, residual_norms,
                   termination), iterates


def sequential_debiased_cg(q_b, q_bt, config):
    """(direction trace, debiased trace) of the two-pass reference."""
    dir_trace = cg_minimize(q_b, config)
    return dir_trace, rebuild_magnitudes(q_bt, dir_trace)[0]
