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

from .errors import ValidationError
from .quadratic import QuadraticModel, _require_finite

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
        if self.p_max < 1:
            raise ValidationError(f"p_max must be >= 1, got {self.p_max}")


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
    return _cg(q, config)[0]


def debiased_cg(q_b: QuadraticModel, q_bt: QuadraticModel, config: CgConfig):
    """Two-batch CG: directions from q_b, update magnitudes from q_bt.

    Runs at most config.p_max CG iterations on q_b and returns (direction
    trace, debiased trace). The debiased trace takes the same normalized
    directions with magnitudes tau~_p = -slope/curvature measured on q_bt;
    its gradient follows the recursion grad~_{p+1} = grad~_p + tau~_p H~ d_p,
    so each iteration costs exactly one matvec on each batch. A non-positive
    q_bt directional curvature stops both traces with negative_curvature.
    """
    if q_b.dim != q_bt.dim:
        raise ValidationError("quadratics live in different dimensions")
    if not np.array_equal(q_b.theta0.values, q_bt.theta0.values):
        raise ValidationError("quadratics must share the anchor point")
    return _cg(q_b, config, q_bt)


def _cg(q: QuadraticModel, config: CgConfig, q_mag: QuadraticModel | None = None):
    """The CG recursion on q; returns (trace, magnitude trace or None).

    Direction d_p is written to column p of one (P, p_max) block, allocated
    once; the traces keep views of its first K columns. With q_mag, every
    direction is also stepped along with the magnitude measured on q_mag
    (one more matvec per iteration), and that trajectory is the second
    trace; both share the direction block and the termination.
    """
    solver = "cg_minimize" if q_mag is None else "debiased_cg"
    theta0 = q.theta0.values
    block = np.empty((q.dim, config.p_max), order="F")
    r = q.gradient.copy()  # r_p = grad q(theta_p); r_0 = g at the anchor
    s = -r
    trace = CgTrace(theta0, block[:, :0], [], [float(np.linalg.norm(r))], "max_iter")
    if q_mag is not None:
        mag_grad = q_mag.gradient.copy()
        mag = CgTrace(theta0, block[:, :0], [], [float(np.linalg.norm(mag_grad))],
                      "max_iter")

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
        step = _newton_step(q, d, r, stage, "")
        if step is not None and q_mag is not None:
            mag_step = _newton_step(q_mag, d, mag_grad, stage, "magnitude_")
            step = None if mag_step is None else step
        if step is None:
            trace.termination = "negative_curvature"
            break
        if q_mag is not None:
            mag_tau, mag_grad = mag_step
            mag.magnitudes.append(mag_tau)
            mag.residual_norms.append(float(np.linalg.norm(mag_grad)))

        tau, r_new = step
        trace.magnitudes.append(tau)
        beta = float(r_new @ r_new) / float(r @ r)
        s = -r_new + beta * s
        r = r_new
        trace.residual_norms.append(float(np.linalg.norm(r)))

    trace.directions = block[:, :trace.n_steps]
    if q_mag is None:
        return trace, None
    mag.directions = trace.directions
    mag.termination = trace.termination
    return trace, mag


def _newton_step(q: QuadraticModel, d: np.ndarray, grad: np.ndarray, stage: str,
                 prefix: str):
    """(tau, grad + tau H d) of the 1D Newton step tau = -slope/curvature along
    d from a point where q's gradient is grad, from one matvec; None at a
    curvature <= CURVATURE_FLOOR. Errors name the stage and prefix + quantity."""
    h_d = q.curvature.matvec(d)
    curv = float(d @ h_d)
    slope = float(d @ grad)
    # a NaN curvature would otherwise pass the curvature floor test
    _require_finite(stage, **{prefix + "curvature": curv, prefix + "slope": slope})
    if curv <= CURVATURE_FLOOR:
        return None
    tau = -slope / curv
    _require_finite(stage, **{prefix + "step": tau})
    return tau, grad + tau * h_d


def newton_step(q: QuadraticModel, config: CgConfig):
    """CG run to tolerance; returns (displacement theta_K - theta_0, trace).

    Abnormal exits (negative curvature, iteration cap) surface in the trace's
    termination field.
    """
    trace = cg_minimize(q, config)
    return trace.final() - q.theta0.values, trace
