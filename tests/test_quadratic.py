"""Quadratic models: construction, directional derivatives, subspace
evaluation, chunked full-batch accumulation."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadbias.diagnostics import eigendirection_scan
from quadbias.errors import NumericalError, ValidationError
from quadbias.linalg import DenseSymMatrix, Rng, kron_matvec
from quadbias.model import (Batch, KfacBlock, LayoutEntry, Linearization, Mlp, MlpArchitecture,
                            ParamVector)
from quadbias.quadratic import (
    CurvatureOperator,
    accumulate_kfac,
    build_quadratic,
    directional_curvature,
    directional_curvatures,
    directional_slope,
    fullbatch_quadratic,
    grad_at,
    in_span,
    step_coefficients,
    subspace_eval,
    synthetic_quadratic,
    trajectory_values,
    value_at,
)

import curvature_oracle as oracle
from conftest import small_problem, weight_mask
from random_matrices import random_spd


# Block and single-vector products may sum in different orders; allow a few
# hundred float64 roundings relative to the column's largest entry.
BLOCK_TOL = 256 * np.finfo(np.float64).eps


# entries of a (weight, bias, weight) layout of 4 coordinates
WBW = (LayoutEntry(0, "weight", (2,), 0), LayoutEntry(0, "bias", (1,), 2),
       LayoutEntry(1, "weight", (1,), 3))

OPERATOR_CASES = given(
    kind=st.sampled_from(["hessian", "ggn", "kfac", "dense",
                          "full-hessian", "full-ggn", "full-kfac"]),
    activation=st.sampled_from(["relu", "tanh"]),
    loss=st.sampled_from(["cross_entropy", "mse"]),
    n=st.integers(1, 300),
    chunk=st.integers(1, 300),
    k=st.integers(1, 9),
    seed=st.integers(0, 2**16),
)


def operator_problem(kind, activation, loss, n, chunk, k, seed):
    """A quadratic of one operator kind with beta, delta > 0, and a (P, k)
    block. Chunk sizes that do not divide n leave a ragged last chunk."""
    arch = MlpArchitecture((5, 8, 4), activation, loss)
    mlp, p, batch = small_problem(seed=seed, n=n, arch=arch)
    if kind == "dense":
        h = random_spd(Rng(seed), p.n_params)
        op = CurvatureOperator.from_dense(h, beta=0.1, delta=0.01, weights=p.weight_entries)
        q = synthetic_quadratic(op, Rng(seed + 2).normal(p.n_params), 0.3, p)
    elif kind.startswith("full-"):
        q = fullbatch_quadratic(mlp, p, batch, kind[5:], beta=0.1, delta=0.01,
                                chunk_size=chunk, fisher_mode="empirical")
    else:
        q = build_quadratic(mlp, p, batch, kind, beta=0.1, delta=0.01,
                            fisher_mode="empirical")
    vs = Rng(seed + 1).normal(p.n_params * k).reshape(p.n_params, k)
    return q, vs


def unit(v):
    return v / np.linalg.norm(v)


def kfac_block_product(blocks, p, beta, vs):
    """The block-diagonal Kronecker product of K-FAC blocks on the weight
    slices of vs, plus beta on the weights; zero on the biases."""
    out = np.zeros_like(vs)
    for e, blk in zip(p.weight_entries, blocks):
        seg = slice(e.offset, e.offset + e.size)
        out[seg] = kron_matvec(blk.factor_a.entries, blk.factor_b.entries, vs[seg])
        out[seg] += beta * vs[seg]
    return out


@pytest.fixture()
def toy_quadratic():
    mlp, p, batch = small_problem(seed=50, n=20)
    q = build_quadratic(mlp, p, batch, "ggn", beta=0.05, delta=0.0)
    return mlp, p, batch, q


class TestBuildQuadratic:
    def test_anchor_value_is_regularized_loss(self, toy_quadratic):
        mlp, p, batch, q = toy_quadratic
        loss, _ = mlp.loss_and_grad(p, batch, 0.05)
        assert q.constant == loss
        assert value_at(q, p.values) == pytest.approx(loss, abs=1e-14)

    def test_gradient_matches_loss_and_grad_bitwise(self, toy_quadratic):
        mlp, p, batch, q = toy_quadratic
        _, g = mlp.loss_and_grad(p, batch, 0.05)
        np.testing.assert_array_equal(q.gradient, g)

    def test_damping_shifts_every_directional_curvature(self):
        mlp, p, batch = small_problem(seed=51)
        q0 = build_quadratic(mlp, p, batch, "ggn", beta=0.0, delta=0.0)
        q5 = build_quadratic(mlp, p, batch, "ggn", beta=0.0, delta=0.5)
        for i in range(5):
            d = unit(Rng(60 + i).normal(p.n_params))
            c0 = directional_curvature(q0, d)
            c5 = directional_curvature(q5, d)
            assert c5 - c0 == pytest.approx(0.5, abs=1e-12)

    def test_kfac_kind_builds_blocks(self):
        mlp, p, batch = small_problem(seed=52)
        q = build_quadratic(mlp, p, batch, "kfac", beta=0.1, rng=Rng(1))
        blocks = mlp.kfac_factors(p, batch, "mc_sample", Rng(1))
        vs = Rng(3).normal(3 * p.n_params).reshape(p.n_params, 3)
        want = kfac_block_product(blocks, p, 0.1, vs)
        np.testing.assert_allclose(q.curvature.matmat(vs), want, rtol=1e-12, atol=1e-12)
        d = unit(Rng(2).normal(p.n_params))
        assert directional_curvature(q, d) > 0  # PSD blocks + beta on weights

    @pytest.mark.parametrize("mode", ["mc_sample", "empirical"])
    def test_kfac_kind_walks_the_batch_once(self, mode, monkeypatch):
        # the loss, the gradient and the factors share the batch's one trace
        mlp, p, batch = small_problem(seed=52)
        walks = []
        walk = Mlp._walk
        monkeypatch.setattr(Mlp, "_walk",
                            lambda self, *args: walks.append(1) or walk(self, *args))
        build_quadratic(mlp, p, batch, "kfac", fisher_mode=mode, rng=Rng(1))
        assert len(walks) == 1

    def test_nan_parameter_raises_naming_the_stage(self):
        mlp, p, batch = small_problem(seed=52)
        p.values[3] = np.nan
        with pytest.raises(NumericalError, match="build_quadratic: non-finite theta"):
            build_quadratic(mlp, p, batch, "ggn")

    @pytest.mark.parametrize("kind", ["hessian", "ggn"])
    @pytest.mark.parametrize("name", ["beta", "delta"])
    def test_nan_beta_or_delta_raises_naming_it(self, kind, name):
        mlp, p, batch = small_problem(seed=47)
        with pytest.raises(ValidationError, match=name):
            build_quadratic(mlp, p, batch, kind, **{name: float("nan")})

    def test_unknown_kind(self):
        mlp, p, batch = small_problem(seed=53)
        with pytest.raises(ValidationError):
            build_quadratic(mlp, p, batch, "bfgs")


class TestCurvatureOperator:
    def test_symmetry_probe(self, toy_quadratic):
        _, p, _, q = toy_quadratic
        u = Rng(70).normal(p.n_params)
        v = Rng(71).normal(p.n_params)
        a = float(u @ q.curvature.matvec(v))
        b = float(v @ q.curvature.matvec(u))
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_matvec_counter(self):
        op = CurvatureOperator.from_dense(np.eye(3))
        op.matvec(np.ones(3))
        op.matvec(np.ones(3))
        assert op.matvec_count == 2
        op.matmat(np.ones((3, 4)))  # a block counts one matvec per column
        assert op.matvec_count == 6
        with pytest.raises(ValidationError):
            op.matmat(np.ones((3, 0)))
        with pytest.raises(ValidationError):
            op.matmat(np.ones(3))
        assert op.matvec_count == 6

    @settings(max_examples=30, deadline=None)
    @OPERATOR_CASES
    def test_matmat_columns_equal_matvec(self, kind, activation, loss, n, chunk, k, seed):
        q, vs = operator_problem(kind, activation, loss, n, chunk, k, seed)
        block = q.curvature.matmat(vs)
        assert block.shape == (q.dim, k)
        for j in range(k):
            col = q.curvature.matvec(vs[:, j])
            scale = max(1.0, float(np.max(np.abs(col))))
            assert np.max(np.abs(block[:, j] - col)) <= BLOCK_TOL * scale
        assert q.curvature.matvec_count == 2 * k

    @settings(max_examples=30, deadline=None)
    @OPERATOR_CASES
    def test_in_span_equals_value_at_and_grad_at(self, kind, activation, loss, n, chunk, k,
                                                 seed):
        # values and slopes at random coefficient rows, with a zero row that
        # reads the constant exactly, against one-point products and dots;
        # curvatures against the block product and a dot
        q, vs = operator_problem(kind, activation, loss, n, chunk, k, seed)
        coeffs = 0.1 * Rng(seed + 3).normal(3 * k).reshape(3, k)
        coeffs[1] = 0.0
        values, slopes, curvs = in_span(q, vs, coeffs)
        assert (values.shape, slopes.shape, curvs.shape) == ((3,), (3, k), (k,))
        assert q.curvature.matvec_count == k
        assert values[1] == q.constant
        points = [q.theta0.values + vs @ c for c in coeffs]
        want_values = np.array([value_at(q, th) for th in points])
        want_slopes = np.array([vs.T @ grad_at(q, th) for th in points])
        want_curvs = oracle.operator_forms(q.curvature, vs)
        for got, want in ((values, want_values), (slopes, want_slopes), (curvs, want_curvs)):
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= BLOCK_TOL * scale

    @settings(max_examples=30, deadline=None)
    @OPERATOR_CASES
    def test_gram_equals_block_transpose_times_product(self, kind, activation, loss, n,
                                                       chunk, k, seed):
        q, vs = operator_problem(kind, activation, loss, n, chunk, k, seed)
        gram = q.curvature.gram(vs)
        assert gram.shape == (k, k)
        assert q.curvature.matvec_count == k
        want = vs.T @ q.curvature.matmat(vs)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(gram - want)) <= BLOCK_TOL * scale

    @settings(max_examples=30, deadline=None)
    @OPERATOR_CASES
    def test_trajectory_values_equal_value_at_the_iterates(self, kind, activation, loss,
                                                            n, chunk, k, seed):
        # the iterates theta_{i+1} = theta_i + tau_i d_i, walked explicitly
        q, vs = operator_problem(kind, activation, loss, n, chunk, k, seed)
        d = np.asfortranarray(vs / np.linalg.norm(vs, axis=0))
        tau = 0.1 * Rng(seed + 3).normal(k)
        iterates = [q.theta0.values]
        for i in range(k):
            iterates.append(iterates[-1] + tau[i] * d[:, i])
        got = trajectory_values(q, d, tau)
        assert got.shape == (k + 1,)
        assert q.curvature.matvec_count == k
        assert got[0] == q.constant
        want = np.array([value_at(q, th) for th in iterates])
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= BLOCK_TOL * scale

    @pytest.mark.parametrize("coeffs", [np.zeros(2), np.zeros((4, 3)), np.zeros((4, 1))],
                             ids=["one_dim", "more_columns", "fewer_columns"])
    def test_in_span_rejects_coefficients_of_another_shape(self, coeffs):
        q = synthetic_quadratic(np.eye(3), np.ones(3))
        with pytest.raises(ValidationError,
                           match=rf"^coeffs \({coeffs.shape[0]},.*\) do not fit directions \(3, 2\)$"):
            in_span(q, np.eye(3)[:, :2], coeffs)
        assert q.curvature.matvec_count == 0

    @pytest.mark.parametrize("taus", [[0.1], [0.1, 0.2, 0.3]], ids=["fewer", "more"])
    def test_trajectory_rejects_a_coefficient_count_off_the_directions(self, taus):
        q = synthetic_quadratic(np.eye(3), np.ones(3))
        with pytest.raises(ValidationError, match=r"^coeffs .* do not fit directions \(3, 2\)$"):
            trajectory_values(q, np.eye(3)[:, :2], taus)

    def test_trajectory_without_steps_is_the_anchor(self):
        q = synthetic_quadratic(np.eye(3), np.ones(3), constant=0.7)
        np.testing.assert_array_equal(trajectory_values(q, np.empty((3, 0)), []), [0.7])
        assert q.curvature.matvec_count == 0

    def test_step_coefficients_hold_the_steps_before_each_point(self):
        np.testing.assert_array_equal(step_coefficients([2.0, 3.0]),
                                      [[0.0, 0.0], [2.0, 0.0], [2.0, 3.0]])

    def test_gram_beta_term_covers_every_masked_run(self):
        # a (weight, bias, weight) layout: two runs of weights around a bias
        mask = np.array([True, True, False, True])
        op = CurvatureOperator.from_dense(np.zeros((4, 4)), beta=0.5, weights=WBW[::2])
        vs = Rng(73).normal(8).reshape(4, 2)
        want = 0.5 * vs[mask].T @ vs[mask]
        assert np.max(np.abs(op.gram(vs) - want)) <= BLOCK_TOL * np.max(np.abs(want))

    def test_matmat_adds_beta_to_a_new_block(self):
        # the identity's raw product is the caller's block itself, which the
        # beta term must not be added to in place
        op = CurvatureOperator(3, lambda vs: vs, beta=0.5, weights=WBW[:1])
        vs = np.ones((3, 2))
        out = op.matmat(vs)
        np.testing.assert_array_equal(vs, np.ones((3, 2)))
        np.testing.assert_array_equal(out, [[1.5, 1.5], [1.5, 1.5], [1.0, 1.0]])

    def test_gram_validates_the_block(self):
        op = CurvatureOperator.from_dense(np.eye(3))
        with pytest.raises(ValidationError):
            op.gram(np.ones((3, 0)))
        with pytest.raises(ValidationError):
            op.gram(np.ones(3))
        assert op.matvec_count == 0

    def test_directional_curvatures_match_single_directions(self, toy_quadratic):
        _, p, _, q = toy_quadratic
        d = np.linalg.qr(Rng(72).normal(p.n_params * 5).reshape(p.n_params, 5))[0]
        curvs = directional_curvatures(q, d)
        for j in range(5):
            # product and dot, independent of the in_span path both calls take
            single = float(d[:, j] @ q.curvature.matvec(d[:, j]))
            assert abs(curvs[j] - single) <= BLOCK_TOL * max(1.0, abs(single))
            one_column = directional_curvature(q, d[:, j])
            assert abs(one_column - single) <= BLOCK_TOL * max(1.0, abs(single))
        with pytest.raises(ValidationError):
            directional_curvatures(q, 2.0 * d)

    def test_positive_definite_on_masked_subspace(self):
        mlp, p, batch = small_problem(seed=54)
        q = build_quadratic(mlp, p, batch, "ggn", beta=0.3, delta=0.0)
        for i in range(5):
            d = np.zeros(p.n_params)
            w = np.nonzero(weight_mask(p))[0]
            d[w] = Rng(80 + i).normal(w.size)
            d = unit(d)
            assert directional_curvature(q, d) >= 0.3 - 1e-10


class TestGradAt:
    def test_at_anchor(self, toy_quadratic):
        _, p, _, q = toy_quadratic
        np.testing.assert_allclose(grad_at(q, p), q.gradient, atol=1e-14)

    def test_affinity(self, toy_quadratic):
        _, p, _, q = toy_quadratic
        u = Rng(90).normal(p.n_params)
        g0 = grad_at(q, p.values)
        g1 = grad_at(q, p.values + u)
        g2 = grad_at(q, p.values + 2.0 * u)
        np.testing.assert_allclose(g2 - g0, 2.0 * (g1 - g0), rtol=1e-10, atol=1e-12)

    def test_dense_assembly_oracle(self):
        rng = Rng(91)
        h = random_spd(rng, 40)
        g = rng.normal(40)
        theta0 = rng.normal(40)
        q = synthetic_quadratic(h, g, 1.5, ParamVector.from_values(theta0))
        theta = theta0 + rng.normal(40)
        expected = h @ (theta - theta0) + g
        np.testing.assert_allclose(grad_at(q, theta), expected, atol=1e-10)


class TestDirectionalDerivatives:
    def test_eigenvector_curvature_is_eigenvalue(self):
        rng = Rng(92)
        h = random_spd(rng, 12)
        w, v = np.linalg.eigh(h)
        q = synthetic_quadratic(h, np.zeros(12))
        for i in (0, 5, 11):
            assert directional_curvature(q, v[:, i]) == pytest.approx(w[i], rel=1e-12)

    def test_negative_gradient_slope(self, toy_quadratic):
        _, p, _, q = toy_quadratic
        d = -q.gradient / np.linalg.norm(q.gradient)
        slope = directional_slope(q, p, d)
        assert slope == pytest.approx(-np.linalg.norm(q.gradient), rel=1e-12)
        assert slope <= 0

    def test_matches_1d_stencils_on_exact_cut(self, toy_quadratic):
        _, p, _, q = toy_quadratic
        rng = Rng(93)
        theta = p.values + 0.1 * rng.normal(p.n_params)
        d = unit(rng.normal(p.n_params))
        h = 1e-3
        r = lambda tau: value_at(q, theta + tau * d)
        slope_fd = (r(h) - r(-h)) / (2 * h)
        curv_fd = (r(h) - 2 * r(0.0) + r(-h)) / h**2
        assert directional_slope(q, theta, d) == pytest.approx(slope_fd, rel=1e-6)
        assert directional_curvature(q, d) == pytest.approx(curv_fd, rel=1e-6)

    def test_cut_identity_exact(self, toy_quadratic):
        # q(theta + tau d) = 1/2 tau^2 curv + tau slope + q(theta)
        _, p, _, q = toy_quadratic
        rng = Rng(94)
        theta = p.values + 0.2 * rng.normal(p.n_params)
        d = unit(rng.normal(p.n_params))
        for tau in (-1.7, 0.3, 2.5):
            lhs = value_at(q, theta + tau * d)
            rhs = (
                0.5 * tau**2 * directional_curvature(q, d)
                + tau * directional_slope(q, theta, d)
                + value_at(q, theta)
            )
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_requires_unit_norm(self, toy_quadratic):
        _, p, _, q = toy_quadratic
        with pytest.raises(ValidationError):
            directional_curvature(q, np.full(p.n_params, 0.5))


class TestSubspaceEval:
    def test_anchor_point_value(self, toy_quadratic):
        _, p, _, q = toy_quadratic
        u1 = np.zeros(p.n_params)
        u1[0] = 1.0
        u2 = np.zeros(p.n_params)
        u2[1] = 1.0
        vals = subspace_eval(q, p, u1, u2, [(0.0, 0.0)])
        assert vals[0] == pytest.approx(q.constant, abs=1e-14)

    def test_matches_direct_evaluation(self, toy_quadratic):
        _, p, _, q = toy_quadratic
        rng = Rng(95)
        u1 = unit(rng.normal(p.n_params))
        raw = rng.normal(p.n_params)
        u2 = unit(raw - (raw @ u1) * u1)
        grid = [(t1, t2) for t1 in (-1.0, 0.0, 0.7) for t2 in (-0.4, 0.9)]
        vals = subspace_eval(q, p, u1, u2, grid)
        for (t1, t2), got in zip(grid, vals):
            direct = value_at(q, p.values + t1 * u1 + t2 * u2)
            assert got == pytest.approx(direct, rel=1e-10, abs=1e-12)

    def test_exactly_two_matvecs_at_anchor(self, toy_quadratic):
        _, p, _, q = toy_quadratic
        u1 = np.zeros(p.n_params)
        u1[3] = 1.0
        u2 = np.zeros(p.n_params)
        u2[4] = 1.0
        before = q.curvature.matvec_count
        subspace_eval(q, p, u1, u2, [(0.1, 0.2), (0.3, -0.1), (1.0, 1.0)])
        assert q.curvature.matvec_count - before == 2

    def test_shifted_evaluation_point(self, toy_quadratic):
        # theta* away from the anchor: one extra matvec, same closed form
        _, p, _, q = toy_quadratic
        rng = Rng(33)
        star = p.values + 0.3 * rng.normal(p.n_params)
        u1 = unit(rng.normal(p.n_params))
        raw = rng.normal(p.n_params)
        u2 = unit(raw - (raw @ u1) * u1)
        grid = [(0.0, 0.0), (0.5, -0.25), (-1.0, 0.75)]
        before = q.curvature.matvec_count
        vals = subspace_eval(q, star, u1, u2, grid)
        assert q.curvature.matvec_count - before == 3
        for (t1, t2), got in zip(grid, vals):
            direct = value_at(q, star + t1 * u1 + t2 * u2)
            assert got == pytest.approx(direct, rel=1e-10, abs=1e-12)

    def test_even_symmetry_without_linear_terms(self):
        rng = Rng(96)
        h = np.diag(np.arange(1.0, 7.0))
        q = synthetic_quadratic(h, np.zeros(6))
        u1 = np.eye(6)[0]
        u2 = np.eye(6)[1]
        grid = [(0.5, 0.8), (-0.5, 0.8), (0.5, -0.8), (-0.5, -0.8)]
        vals = subspace_eval(q, np.zeros(6), u1, u2, grid)
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)
        assert vals[0] == pytest.approx(vals[2], rel=1e-12)
        assert vals[0] == pytest.approx(vals[3], rel=1e-12)

    @pytest.mark.parametrize("grid", [[0.5, 1.0], [(0.5, 1.0, 0.2)]], ids=["one_dim", "three_columns"])
    def test_grid_not_one_coefficient_per_direction_rejected(self, grid):
        q = synthetic_quadratic(np.eye(3), np.ones(3))
        with pytest.raises(ValidationError, match=r"^coeffs .* do not fit directions \(3, 2\)$"):
            subspace_eval(q, np.zeros(3), np.eye(3)[0], np.eye(3)[1], grid)

    def test_rejects_non_orthonormal(self, toy_quadratic):
        _, p, _, q = toy_quadratic
        u1 = unit(Rng(97).normal(p.n_params))
        with pytest.raises(ValidationError):
            subspace_eval(q, p, u1, u1, [(0.0, 0.0)])

    def test_orthonormal_within_1e_8(self):
        q = synthetic_quadratic(np.eye(4), np.ones(4))
        e = np.eye(4)
        subspace_eval(q, np.zeros(4), e[0], e[1], [(1.0, 1.0)])
        # unit vectors 2e-8 off orthogonal
        with pytest.raises(ValidationError, match="orthonormal within 1e-8"):
            subspace_eval(q, np.zeros(4), e[0], unit(e[1] + 2e-8 * e[0]), [(1.0, 1.0)])

    def test_nan_direction_not_orthonormal(self):
        q = synthetic_quadratic(np.eye(3), np.ones(3))
        u2 = np.array([0.0, np.nan, 0.0])
        with pytest.raises(ValidationError, match="orthonormal within 1e-8"):
            subspace_eval(q, np.zeros(3), np.eye(3)[0], u2, [(1.0, 1.0)])


class TestFullbatch:
    def test_single_chunk_equals_build_quadratic(self):
        mlp, p, batch = small_problem(seed=55, n=16)
        q1 = build_quadratic(mlp, p, batch, "ggn", beta=0.05)
        q2 = fullbatch_quadratic(mlp, p, batch, "ggn", beta=0.05,
                                 chunk_size=batch.size)
        assert q1.constant == pytest.approx(q2.constant, abs=1e-15)
        np.testing.assert_allclose(q1.gradient, q2.gradient, atol=1e-15)
        v = Rng(98).normal(p.n_params)
        np.testing.assert_allclose(
            q1.curvature.matvec(v), q2.curvature.matvec(v), atol=1e-14
        )

    @pytest.mark.parametrize("kind", ["hessian", "ggn"])
    def test_chunk_size_invariance(self, kind):
        mlp, p, batch = small_problem(seed=56, n=21)
        v = Rng(99).normal(p.n_params)
        ref = None
        for chunk in (1, 7, 21):
            q = fullbatch_quadratic(mlp, p, batch, kind, beta=0.02,
                                    chunk_size=chunk)
            out = (q.constant, q.gradient.copy(), q.curvature.matvec(v))
            if ref is None:
                ref = out
            else:
                assert out[0] == pytest.approx(ref[0], abs=1e-12)
                np.testing.assert_allclose(out[1], ref[1], atol=1e-12)
                np.testing.assert_allclose(out[2], ref[2], atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["hessian", "ggn"]),
        activation=st.sampled_from(["relu", "tanh"]),
        loss=st.sampled_from(["cross_entropy", "mse"]),
        n=st.integers(1, 30),
        seed=st.integers(0, 2**16),
    )
    def test_every_chunk_size_agrees(self, kind, activation, loss, n, seed):
        # chunk sizes 1..n, ragged last chunks included, against one chunk;
        # K-FAC is left out, it averages per-chunk factors by design
        arch = MlpArchitecture((5, 8, 4), activation, loss)
        mlp, p, batch = small_problem(seed=seed, n=n, arch=arch)
        vs = Rng(seed + 1).normal(p.n_params * 3).reshape(p.n_params, 3)

        def close(got, want):
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= BLOCK_TOL * scale

        ref = fullbatch_quadratic(mlp, p, batch, kind, beta=0.1, delta=0.01,
                                  chunk_size=n)
        ref_block, ref_col = ref.curvature.matmat(vs), ref.curvature.matvec(vs[:, 0])
        for chunk in range(1, n):
            q = fullbatch_quadratic(mlp, p, batch, kind, beta=0.1, delta=0.01,
                                    chunk_size=chunk)
            close(np.array(q.constant), np.array(ref.constant))
            close(q.gradient, ref.gradient)
            close(q.curvature.matmat(vs), ref_block)
            close(q.curvature.matvec(vs[:, 0]), ref_col)

    @pytest.mark.parametrize("kind", ["hessian", "ggn"])
    def test_batch_mean_identity(self, kind):
        # mean directional slope/curvature over a disjoint equal partition
        # equals the full-batch value
        mlp, p, data = small_problem(seed=57, n=24)
        batches = [
            Batch(data.inputs[i : i + 6], data.targets[i : i + 6])
            for i in range(0, 24, 6)
        ]
        q_full = fullbatch_quadratic(mlp, p, data, kind, beta=0.03, chunk_size=6)
        quads = [build_quadratic(mlp, p, b, kind, beta=0.03) for b in batches]
        for i in range(3):
            d = unit(Rng(100 + i).normal(p.n_params))
            slopes = [directional_slope(q, p, d) for q in quads]
            curvs = [directional_curvature(q, d) for q in quads]
            full_slope = directional_slope(q_full, p, d)
            full_curv = directional_curvature(q_full, d)
            assert np.mean(slopes) == pytest.approx(full_slope, rel=1e-10)
            assert np.mean(curvs) == pytest.approx(full_curv, rel=1e-10)

    def test_kfac_factor_level_average(self):
        mlp, p, data = small_problem(seed=58, n=12)
        q = fullbatch_quadratic(mlp, p, data, "kfac", beta=0.1, chunk_size=6,
                                fisher_mode="empirical")
        halves = [
            Batch(data.inputs[:6], data.targets[:6]),
            Batch(data.inputs[6:], data.targets[6:]),
        ]
        blocks = [mlp.kfac_factors(p, b, "empirical") for b in halves]
        avg = [KfacBlock(l, DenseSymMatrix(0.5 * (a.factor_a.entries + b.factor_a.entries)),
                         DenseSymMatrix(0.5 * (a.factor_b.entries + b.factor_b.entries)))
               for l, (a, b) in enumerate(zip(*blocks))]
        vs = Rng(4).normal(3 * p.n_params).reshape(p.n_params, 3)
        np.testing.assert_allclose(q.curvature.matmat(vs), kfac_block_product(avg, p, 0.1, vs),
                                   atol=1e-12)

    def test_nan_parameter_raises_naming_the_stage(self):
        mlp, p, batch = small_problem(seed=58)
        p.values[-1] = np.nan
        with pytest.raises(NumericalError, match="fullbatch_quadratic: non-finite theta"):
            fullbatch_quadratic(mlp, p, batch, "ggn", chunk_size=5)

    def test_inf_input_raises_on_the_loss(self):
        mlp, p, batch = small_problem(seed=59)
        x = batch.inputs.copy()
        x[0, 0] = np.inf
        bad = Batch(x, batch.targets)
        for build in (build_quadratic, fullbatch_quadratic):
            with np.errstate(invalid="ignore"), pytest.raises(
                    NumericalError, match=f"{build.__name__}: non-finite"):
                build(mlp, p, bad, "ggn")

    @pytest.mark.parametrize("build", [build_quadratic, fullbatch_quadratic])
    def test_unknown_kind_rejected_before_any_loss_pass(self, build, monkeypatch):
        mlp, p, batch = small_problem(seed=53)

        def no_loss(*args, **kwargs):
            raise AssertionError("loss_and_grad ran before the kind was checked")

        monkeypatch.setattr(mlp, "loss_and_grad", no_loss)
        with pytest.raises(ValidationError, match="unknown curvature kind 'hesian'"):
            build(mlp, p, batch, "hesian")

    def test_empty_dataset_rejected(self):
        mlp, p, _ = small_problem(seed=59)
        empty = Batch(np.zeros((0, 5)), np.zeros((0, 4)))
        with pytest.raises(ValidationError):
            fullbatch_quadratic(mlp, p, empty, "ggn")


# each consumer of the chunk walk, called on 12 rows in chunks of 4 with the
# full-batch quadratics of the same walk built beforehand
CHUNK_WALKS = {
    "fullbatch loss": lambda mlp, p, data, q, vs: fullbatch_quadratic(
        mlp, p, data, "hessian", chunk_size=4),
    "hessian product": lambda mlp, p, data, q, vs: q["hessian"].curvature.matmat(vs),
    "ggn product": lambda mlp, p, data, q, vs: q["ggn"].curvature.matmat(vs),
    "ggn gram": lambda mlp, p, data, q, vs: q["ggn"].curvature.gram(vs),
    "accumulate_kfac": lambda mlp, p, data, q, vs: accumulate_kfac(
        mlp, p, data, "mc_sample", Rng(3), chunk_size=4),
    **{f"row scan {kind}": lambda mlp, p, data, q, vs, kind=kind: eigendirection_scan(
        mlp, p, data, [np.arange(6), np.arange(6, 12)], 2, kind, rng=Rng(4), chunk_size=4,
        n_sources=1) for kind in ("ggn", "kfac")},
}


@pytest.mark.parametrize("walk", CHUNK_WALKS.values(), ids=CHUNK_WALKS.keys())
def test_chunk_walk_holds_one_trace_at_a_time(walk, monkeypatch):
    # when a trace is built, no trace built earlier in the call is alive
    mlp, p, data = small_problem(seed=60, n=12)
    q = {kind: fullbatch_quadratic(mlp, p, data, kind, beta=0.1, chunk_size=4)
         for kind in ("hessian", "ggn")}
    vs = Rng(5).normal(2 * p.n_params).reshape(p.n_params, 2)
    refs, alive = [], []
    real_init = Linearization.__init__

    def init(self, *args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        refs.append(weakref.ref(self))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Linearization, "__init__", init)
    walk(mlp, p, data, q, vs)
    assert len(alive) >= 3  # every walk takes the three chunks
    assert alive == [0] * len(alive)
