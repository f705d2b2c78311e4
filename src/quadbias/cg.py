"""Conjugate gradients on a quadratic model, plus the two-batch debiased
variant that recomputes update magnitudes on an independent mini-batch.

The solver follows the classic CG recursion with one curvature matvec per
iteration. Search directions are normalized before the matvec, so every update
is expressed as theta_{p+1} = theta_p + tau_p d_p with the 1D Newton magnitude
tau_p = -slope/curvature; this is algebraically identical to the textbook
alpha_p = r^T r / s^T A s step and makes the same-batch and debiased update
rules share one arithmetic path (a two-batch run with identical batches is
then congruent with the single-batch trajectory, bit for bit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_counts, require_finite
from .quadratic import QuadraticModel, check_shared_anchor

# Directional curvatures at or below this value terminate with
# negative_curvature (division guard; also applied to the debiased
# denominators).
CURVATURE_FLOOR = 1e-14


@dataclass(frozen=True)
class CgConfig:
    """Residual tolerance and iteration cap. On non-positive curvature CG
    terminates and returns the last iterate."""

    epsilon: float = 1e-10
    p_max: int = 100

    def __post_init__(self):
        if not 0 < self.epsilon < float("inf"):
            raise ValidationError(f"epsilon must be > 0 and finite, got {self.epsilon}")
        check_counts(p_max=self.p_max)


@dataclass
class CgTrace:
    """The anchor theta_0, the normalized directions d_0..d_{K-1} as the
    columns of a (P, K) block, update magnitudes tau_p, residual norms
    ||r_p|| (p = 0..K), and the termination reason. The iterates are not
    stored: ``iterates()`` rebuilds them."""

    theta0: np.ndarray
    directions: np.ndarray
    magnitudes: list
    residual_norms: list
    termination: str

    @property
    def n_steps(self) -> int:
        return len(self.magnitudes)

    def iterates(self):
        """theta_0..theta_K one at a time, by the solver's own recursion
        theta_{p+1} = theta_p + tau_p d_p, so each equals the solver's
        iterate bit for bit."""
        theta = self.theta0
        yield theta
        for p, tau in enumerate(self.magnitudes):
            theta = theta + tau * self.directions[:, p]
            yield theta

    def final(self) -> np.ndarray:
        for theta in self.iterates():
            pass
        return theta


def cg_minimize(q: QuadraticModel, config: CgConfig) -> CgTrace:
    """Minimize the quadratic with CG from its anchor point.

    One curvature matvec per iteration. Terminates on the iteration cap, on
    ||r_p|| <= epsilon, or on a direction of non-positive curvature (the last
    iterate is returned in that case).
    """
    return _cg([q], config)[0]


def debiased_cg(q_b: QuadraticModel, q_bt: QuadraticModel, config: CgConfig):
    """Two-batch CG: directions from q_b, update magnitudes from q_bt.

    Runs at most config.p_max CG iterations on q_b and returns (direction
    trace, debiased trace). The debiased trace takes the same normalized
    directions with magnitudes tau~_p = -slope/curvature measured on q_bt;
    its gradient follows the recursion grad~_{p+1} = grad~_p + tau~_p H~ d_p,
    so each iteration costs exactly one matvec on each batch. A non-positive
    q_bt directional curvature stops both traces with negative_curvature.
    """
    check_shared_anchor([q_b, q_bt])
    return tuple(_cg([q_b, q_bt], config))


def _cg(quads: list, config: CgConfig) -> list:
    """The CG recursion on quads[0]; returns one trace per quadratic, each
    stepping every direction with the magnitude measured on its quadratic
    (one matvec each, in order, each after a positive curvature on those
    before). Direction d_p is written to column p of one (P, p_max) block,
    allocated once; the traces share one view of its first K columns and
    the termination."""
    solver = "cg_minimize" if len(quads) == 1 else "debiased_cg"
    block = np.empty((quads[0].dim, config.p_max), order="F")
    grads = [q.gradient.copy() for q in quads]  # grads[0] = r_p = grad q(theta_p)
    traces = [CgTrace(quads[0].theta0.values, block[:, :0], [],
                      [float(np.linalg.norm(g))], "max_iter") for g in grads]
    trace = traces[0]
    s = -grads[0]

    for p in range(config.p_max + 1):
        if trace.residual_norms[-1] <= config.epsilon:
            trace.termination = "tolerance"
            break
        if p == config.p_max:
            break
        s_norm = float(np.linalg.norm(s))
        if s_norm == 0.0:
            trace.termination = "tolerance"
            break
        d = np.divide(s, s_norm, out=block[:, p])
        stage = f"{solver} at iteration {p}"
        steps = []
        for i, (q, g) in enumerate(zip(quads, grads)):
            steps.append(_newton_step(q, d, g, stage, "magnitude_" if i else ""))
            if steps[-1] is None:
                break
        if steps[-1] is None:
            trace.termination = "negative_curvature"
            break
        for t, (tau, g) in zip(traces, steps):
            t.magnitudes.append(tau)
            t.residual_norms.append(float(np.linalg.norm(g)))
        r, grads = grads[0], [g for _, g in steps]
        beta = float(grads[0] @ grads[0]) / float(r @ r)
        s = -grads[0] + beta * s

    directions = block[:, :trace.n_steps]
    for t in traces:
        t.directions, t.termination = directions, trace.termination
    return traces


def _newton_step(q: QuadraticModel, d: np.ndarray, grad: np.ndarray, stage: str,
                 prefix: str):
    """(tau, grad + tau H d) of the 1D Newton step tau = -slope/curvature along
    d from a point where q's gradient is grad, from one matvec; None at a
    curvature <= CURVATURE_FLOOR. Errors name the stage and prefix + quantity."""
    h_d = q.curvature.matvec(d)
    curv = float(d @ h_d)
    slope = float(d @ grad)
    # a NaN curvature would otherwise pass the curvature floor test
    require_finite(stage, **{prefix + "curvature": curv, prefix + "slope": slope})
    if curv <= CURVATURE_FLOOR:
        return None
    tau = -slope / curv
    require_finite(stage, **{prefix + "step": tau})
    return tau, grad + tau * h_d


def newton_step(q: QuadraticModel, config: CgConfig):
    """CG run to tolerance; returns (displacement theta_K - theta_0, trace).

    Abnormal exits (negative curvature, iteration cap) surface in the trace's
    termination field.
    """
    trace = cg_minimize(q, config)
    return trace.final() - q.theta0.values, trace
