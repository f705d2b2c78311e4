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

from .errors import NumericalError, ValidationError
from .quadratic import QuadraticModel

# Directional curvatures at or below this value terminate with
# negative_curvature (division guard; also applied to the debiased
# denominators).
CURVATURE_FLOOR = 1e-14

TERMINATIONS = ("max_iter", "tolerance", "negative_curvature")


@dataclass(frozen=True)
class CgConfig:
    """Residual tolerance and iteration cap. The negative-curvature policy is
    fixed: terminate and return the last iterate."""

    epsilon: float = 1e-10
    p_max: int = 100
    negcurv_policy: str = "terminate_return_last"

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValidationError(f"epsilon must be > 0, got {self.epsilon}")
        if self.p_max < 1:
            raise ValidationError(f"p_max must be >= 1, got {self.p_max}")
        if self.negcurv_policy != "terminate_return_last":
            raise ValidationError(
                f"unsupported negcurv_policy {self.negcurv_policy!r}"
            )


def _check_finite(solver: str, p: int, **values: float) -> None:
    """Raise NumericalError naming the iteration unless every value is
    finite; a NaN curvature would otherwise pass the curvature floor test."""
    bad = {name: v for name, v in values.items() if not np.isfinite(v)}
    if bad:
        raise NumericalError(f"{solver}: non-finite {bad} at iteration {p}")


@dataclass
class CgTrace:
    """Iterates theta_0..theta_K, normalized directions d_0..d_{K-1}, update
    magnitudes tau_p, residual norms ||r_p|| (p = 0..K), the CG beta
    coefficients, and the termination reason."""

    iterates: list
    directions: list
    magnitudes: list
    residual_norms: list
    cg_betas: list
    termination: str

    @property
    def n_steps(self) -> int:
        return len(self.magnitudes)

    def final(self) -> np.ndarray:
        return self.iterates[-1]


def cg_minimize(q: QuadraticModel, config: CgConfig) -> CgTrace:
    """Minimize the quadratic with CG from its anchor point.

    One curvature matvec per iteration. Terminates on the iteration cap, on
    ||r_p|| <= epsilon, or on a direction of non-positive curvature (the last
    iterate is returned in that case).
    """
    theta = q.theta0.values.copy()

    r = q.gradient.copy()  # r_p = grad q(theta_p); r_0 = g at the anchor
    s = -r
    iterates = [theta.copy()]
    directions = []
    magnitudes = []
    residual_norms = [float(np.linalg.norm(r))]
    betas = []
    termination = "max_iter"

    for p in range(config.p_max + 1):
        if residual_norms[-1] <= config.epsilon:
            termination = "tolerance"
            break
        if p == config.p_max:
            termination = "max_iter"
            break

        s_norm = float(np.linalg.norm(s))
        if s_norm == 0.0:
            termination = "tolerance"
            break
        d = s / s_norm
        t = q.curvature.matvec(d)
        curv = float(d @ t)
        slope = float(d @ r)
        _check_finite("cg_minimize", p, curvature=curv, slope=slope)
        if curv <= CURVATURE_FLOOR:
            termination = "negative_curvature"
            break
        tau = -slope / curv
        _check_finite("cg_minimize", p, step=tau)

        theta = theta + tau * d  # keeps the reconstruction identity exact
        iterates.append(theta.copy())
        directions.append(d)
        magnitudes.append(tau)

        r_new = r + tau * t
        beta = float(r_new @ r_new) / float(r @ r)
        betas.append(beta)
        s = -r_new + beta * s
        r = r_new
        residual_norms.append(float(np.linalg.norm(r)))

    return CgTrace(iterates, directions, magnitudes, residual_norms, betas, termination)


def debiased_cg(
    q_b: QuadraticModel,
    q_bt: QuadraticModel,
    k: int,
    config: CgConfig,
    mode: str = "interleaved",
):
    """Two-batch CG: directions from q_b, update magnitudes from q_bt.

    Process (i) runs CG on q_b and collects up to k normalized directions;
    process (ii) rebuilds the trajectory with magnitudes
    tau~_p = -slope/curvature measured on q_bt. The numerator gradient is
    maintained by the recursion grad~_{p+1} = grad~_p + tau~_p H~ d_p, so each
    iteration costs exactly one matvec on each batch. A non-positive q_bt
    directional curvature stops both processes with negative_curvature
    (in sequential mode the direction trace is already complete and is
    returned in full).
    """
    if mode not in ("interleaved", "sequential"):
        raise ValidationError(f"unknown mode {mode!r}")
    if q_b.dim != q_bt.dim:
        raise ValidationError("quadratics live in different dimensions")
    if not np.array_equal(q_b.theta0.values, q_bt.theta0.values):
        raise ValidationError("quadratics must share the anchor point")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")

    dir_config = CgConfig(epsilon=config.epsilon, p_max=min(k, config.p_max))

    if mode == "sequential":
        dir_trace = cg_minimize(q_b, dir_config)
        deb_trace = _rebuild_magnitudes(q_bt, dir_trace)
        return dir_trace, deb_trace
    return _interleaved(q_b, q_bt, dir_config)


def _rebuild_magnitudes(q_bt: QuadraticModel, dir_trace: CgTrace) -> CgTrace:
    theta0 = q_bt.theta0.values
    theta = theta0.copy()
    grad = q_bt.gradient.copy()
    iterates = [theta.copy()]
    magnitudes = []
    residual_norms = [float(np.linalg.norm(grad))]
    termination = dir_trace.termination
    directions = []

    for p, d in enumerate(dir_trace.directions):
        h_d = q_bt.curvature.matvec(d)
        curv = float(d @ h_d)
        slope = float(d @ grad)
        _check_finite("debiased_cg", p, curvature=curv, slope=slope)
        if curv <= CURVATURE_FLOOR:
            termination = "negative_curvature"
            break
        tau = -slope / curv
        _check_finite("debiased_cg", p, step=tau)
        theta = theta + tau * d
        grad = grad + tau * h_d
        iterates.append(theta.copy())
        directions.append(d)
        magnitudes.append(tau)
        residual_norms.append(float(np.linalg.norm(grad)))

    return CgTrace(iterates, directions, magnitudes, residual_norms, [], termination)


def _interleaved(q_b: QuadraticModel, q_bt: QuadraticModel, config: CgConfig):
    theta = q_b.theta0.values.copy()
    r = q_b.gradient.copy()
    s = -r

    dir_iterates = [theta.copy()]
    dir_directions = []
    dir_magnitudes = []
    dir_residuals = [float(np.linalg.norm(r))]
    dir_betas = []

    deb_theta = theta.copy()
    deb_grad = q_bt.gradient.copy()
    deb_iterates = [theta.copy()]
    deb_magnitudes = []
    deb_residuals = [float(np.linalg.norm(deb_grad))]

    termination = "max_iter"
    deb_termination = None

    for p in range(config.p_max + 1):
        if dir_residuals[-1] <= config.epsilon:
            termination = "tolerance"
            break
        if p == config.p_max:
            termination = "max_iter"
            break
        s_norm = float(np.linalg.norm(s))
        if s_norm == 0.0:
            termination = "tolerance"
            break
        d = s / s_norm
        t = q_b.curvature.matvec(d)
        curv = float(d @ t)
        slope = float(d @ r)
        _check_finite("debiased_cg", p, curvature=curv, slope=slope)
        if curv <= CURVATURE_FLOOR:
            termination = "negative_curvature"
            break

        # debiased magnitude on the second batch, one matvec
        h_d = q_bt.curvature.matvec(d)
        deb_curv = float(d @ h_d)
        deb_slope = float(d @ deb_grad)
        _check_finite("debiased_cg", p, magnitude_curvature=deb_curv,
                      magnitude_slope=deb_slope)
        if deb_curv <= CURVATURE_FLOOR:
            termination = "negative_curvature"
            deb_termination = "negative_curvature"
            break

        tau = -slope / curv
        deb_tau = -deb_slope / deb_curv
        _check_finite("debiased_cg", p, step=tau, magnitude_step=deb_tau)
        theta = theta + tau * d
        dir_iterates.append(theta.copy())
        dir_directions.append(d)
        dir_magnitudes.append(tau)
        r_new = r + tau * t
        beta = float(r_new @ r_new) / float(r @ r)
        dir_betas.append(beta)
        s = -r_new + beta * s
        r = r_new
        dir_residuals.append(float(np.linalg.norm(r)))

        deb_theta = deb_theta + deb_tau * d
        deb_grad = deb_grad + deb_tau * h_d
        deb_iterates.append(deb_theta.copy())
        deb_magnitudes.append(deb_tau)
        deb_residuals.append(float(np.linalg.norm(deb_grad)))

    dir_trace = CgTrace(
        dir_iterates, dir_directions, dir_magnitudes, dir_residuals, dir_betas, termination
    )
    deb_trace = CgTrace(
        deb_iterates,
        list(dir_directions[: len(deb_magnitudes)]),
        deb_magnitudes,
        deb_residuals,
        [],
        deb_termination or termination,
    )
    return dir_trace, deb_trace


def newton_step(q: QuadraticModel, config: CgConfig):
    """CG run to tolerance; returns (displacement theta_K - theta_0, trace).

    Abnormal exits (negative curvature, iteration cap) surface in the trace's
    termination field.
    """
    trace = cg_minimize(q, config)
    return trace.final() - q.theta0.values, trace
