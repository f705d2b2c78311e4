"""Forward pass, exact gradients, curvature-vector products, K-FAC factors."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadbias import model
from quadbias.errors import NumericalError, ValidationError
from quadbias.linalg import Rng
from quadbias.model import (BLOCK_BUDGET, Batch, Mlp, MlpArchitecture, ParamVector,
                            _second_thread_helps, one_hot, softmax)
from quadbias.quadratic import build_quadratic

import curvature_oracle as oracle
from conftest import small_problem, weight_mask

# Block products sum in other orders than the per-vector loops; allow a few
# hundred float64 roundings relative to the largest entry.
ORACLE_TOL = 256 * np.finfo(np.float64).eps


def finite_diff_grad(mlp, params, batch, beta, h=1e-5):
    g = np.zeros(params.n_params)
    for i in range(params.n_params):
        plus = params.copy()
        plus.values[i] += h
        minus = params.copy()
        minus.values[i] -= h
        g[i] = (
            mlp.loss_and_grad(plus, batch, beta)[0]
            - mlp.loss_and_grad(minus, batch, beta)[0]
        ) / (2 * h)
    return g


def dense_from_matvec(op, dim):
    out = np.zeros((dim, dim))
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        out[:, i] = op(e)
    return out


class TestArchitectureAndParams:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValidationError):
            MlpArchitecture((4,))
        with pytest.raises(ValidationError):
            MlpArchitecture((4, 0, 2))
        with pytest.raises(ValidationError):
            MlpArchitecture((4, 2), activation="selu")

    @pytest.mark.parametrize("sizes", [(3.7, 5, 2), (4, True, 2), (4, 5.0, 2),
                                       (4, np.float64(5), 2), (4, np.bool_(True), 2),
                                       ("4", 2)])
    def test_rejects_sizes_that_are_not_integers(self, sizes):
        # int() used to truncate them: (3.7, True, 2) became (3, 1, 2)
        with pytest.raises(ValidationError, match=r"layers .*: config key 'layers' in "
                                                  r"\[model\] must be two or more integer"):
            MlpArchitecture(sizes)

    def test_numpy_integer_sizes_are_stored_as_ints(self):
        arch = MlpArchitecture((np.int64(4), np.int32(5), 2))
        assert arch.layer_sizes == (4, 5, 2)
        assert all(type(s) is int for s in arch.layer_sizes)

    def test_layout_partitions_params(self):
        mlp = Mlp(MlpArchitecture((3, 5, 2)))
        offsets = sorted((e.offset, e.offset + e.size) for e in mlp.layout)
        assert offsets[0][0] == 0
        for (a0, a1), (b0, b1) in zip(offsets, offsets[1:]):
            assert a1 == b0
        assert offsets[-1][1] == mlp.n_params == 3 * 5 + 5 + 5 * 2 + 2

    def test_weight_mask(self):
        mlp = Mlp(MlpArchitecture((3, 5, 2)))
        p = mlp.zero_params()
        mask = np.zeros(p.n_params, dtype=bool)
        for e in p.weight_entries:
            mask[e.span] = True
        assert mask.sum() == 3 * 5 + 5 * 2
        w_entry = [e for e in p.layout if e.role == "weight"][0]
        assert mask[w_entry.offset : w_entry.offset + w_entry.size].all()

    def test_views_are_the_layout_slices(self):
        # ParamVector.view and Linearization._split both read LayoutEntry.part
        mlp = Mlp(MlpArchitecture((3, 5, 2)))
        p = mlp.init_params(Rng(0))
        flat = np.stack([p.values, -p.values])
        lin = mlp.linearize(p, np.zeros((1, 3)))
        for e in p.layout:
            want = p.values[e.offset : e.offset + e.size].reshape(e.shape)
            got = p.view(e.layer, e.role)
            np.testing.assert_array_equal(got, want)
            assert np.shares_memory(got, p.values)
            split = lin._split(flat, e.layer)[e.role == "bias"]
            np.testing.assert_array_equal(split, np.stack([want, -want]))
            assert np.shares_memory(split, flat)

    @pytest.mark.parametrize("layer,role", [(2, "weight"), (2, "bias"), (-1, "bias"),
                                            (0, "scale")])
    def test_view_outside_the_layout_is_key_error(self, layer, role):
        p = Mlp(MlpArchitecture((3, 5, 2))).zero_params()
        with pytest.raises(KeyError):
            p.view(layer, role)

    def test_single_block_vector_has_no_bias(self):
        p = ParamVector.from_values(np.arange(3.0))
        np.testing.assert_array_equal(p.view(0, "weight"), [0.0, 1.0, 2.0])
        with pytest.raises(KeyError):
            p.view(0, "bias")

    def test_layer_views_follow_the_values_array(self):
        # the views are built once per array: an update in place keeps them,
        # an assigned array is never served through the old array's views
        mlp = Mlp(MlpArchitecture((3, 4, 2)))
        p = mlp.init_params(Rng(0))
        x = Rng(1).normal(5 * 3).reshape(5, 3)
        views = mlp._unpack(p)
        assert mlp._unpack(p) is views
        p.values -= 0.5
        assert mlp._unpack(p) is views
        np.testing.assert_array_equal(mlp.forward(p, x), mlp.forward(p.copy(), x))
        p.values = p.values * 2.0
        assert all(np.shares_memory(a, p.values) for pair in mlp._unpack(p) for a in pair)
        np.testing.assert_array_equal(mlp.forward(p, x), mlp.forward(p.copy(), x))
        np.testing.assert_array_equal(mlp._unpack(p)[1][1], p.view(1, "bias"))

    @pytest.mark.parametrize("read", [
        lambda mlp, p, x: mlp.forward(p, x),
        lambda mlp, p, x: mlp.linearize(p, x).jvp_mm(np.ones((p.n_params, 1))),
    ], ids=["forward", "linearize"])
    def test_parameters_of_another_architecture_rejected(self, read):
        # unchecked, the layer views of (3, 6, 3) parameters give a (3, 5, 3)
        # net the other net's logits, and a product a numpy broadcast error
        mlp = Mlp(MlpArchitecture((3, 5, 3)))
        other = Mlp(MlpArchitecture((3, 6, 3))).init_params(Rng(0))
        with pytest.raises(ValidationError, match="layout"):
            read(mlp, other, np.ones((4, 3)))

    def test_weight_entries_are_built_once_per_vector(self):
        p = Mlp(MlpArchitecture((3, 4, 2))).init_params(Rng(0))
        entries = p.weight_entries
        assert entries == tuple(e for e in p.layout if e.role == "weight")
        p.values -= 0.5
        assert p.weight_entries is entries


class TestForward:
    def test_zero_params_uniform_softmax(self):
        mlp = Mlp(MlpArchitecture((4, 6, 5)))
        x = Rng(0).normal(3 * 4).reshape(3, 4)
        logits = mlp.forward(mlp.zero_params(), x)
        np.testing.assert_array_equal(logits, np.zeros((3, 5)))
        np.testing.assert_allclose(softmax(logits), np.full((3, 5), 0.2))

    def test_identity_layer(self):
        mlp = Mlp(MlpArchitecture((3, 3), activation="identity"))
        p = mlp.zero_params()
        p.view(0, "weight")[...] = np.eye(3)
        x = Rng(1).normal(6).reshape(2, 3)
        np.testing.assert_array_equal(mlp.forward(p, x), x)

    def test_matches_straight_line_evaluation(self):
        arch = MlpArchitecture((4, 7, 3), "relu")
        mlp = Mlp(arch)
        p = mlp.init_params(Rng(3))
        x = Rng(5).normal(2 * 4).reshape(2, 4)
        w0, b0 = p.view(0, "weight"), p.view(0, "bias")
        w1, b1 = p.view(1, "weight"), p.view(1, "bias")
        expected = np.maximum(x @ w0 + b0, 0.0) @ w1 + b1
        np.testing.assert_allclose(mlp.forward(p, x), expected, atol=1e-14)

    def test_shape_mismatch(self):
        mlp = Mlp(MlpArchitecture((4, 2)))
        with pytest.raises(ValidationError):
            mlp.forward(mlp.zero_params(), np.zeros((3, 5)))


class TestLossAndGrad:
    def test_zero_params_cross_entropy_ln_c(self):
        mlp = Mlp(MlpArchitecture((4, 10)))
        x = Rng(0).normal(6 * 4).reshape(6, 4)
        batch = Batch(x, one_hot(Rng(1).integers(0, 10, 6), 10))
        loss, _ = mlp.loss_and_grad(mlp.zero_params(), batch, 0.0)
        np.testing.assert_allclose(loss, np.log(10.0), rtol=1e-12)

    def test_regularizer_adds_beta_w_to_weight_grads_only(self):
        mlp, p, batch = small_problem(seed=2)
        _, g0 = mlp.loss_and_grad(p, batch, 0.0)
        _, g1 = mlp.loss_and_grad(p, batch, 0.25)
        diff = g1 - g0
        mask = weight_mask(p)
        np.testing.assert_allclose(diff[mask], 0.25 * p.values[mask], atol=1e-12)
        np.testing.assert_array_equal(diff[~mask], 0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 6), st.booleans(), st.data())
    def test_cross_entropy_loss_is_the_two_pass_log_sum_exp(self, rows, classes, soft, data):
        # an identity layer makes the logits the inputs exactly; the loss
        # takes its log-partition from the softmax, which must give the bits
        # of shifting and exponentiating the logits a second time
        logits = np.array(data.draw(st.lists(st.floats(-700, 700), min_size=rows * classes,
                                             max_size=rows * classes))).reshape(rows, classes)
        if soft:
            targets = np.array(data.draw(st.lists(st.floats(0, 1), min_size=rows * classes,
                                                  max_size=rows * classes)))
            targets = targets.reshape(rows, classes)
        else:
            targets = one_hot(data.draw(st.lists(st.integers(0, classes - 1), min_size=rows,
                                                 max_size=rows)), classes)
        mlp = Mlp(MlpArchitecture((classes, classes), "identity"))
        p = mlp.zero_params()
        p.view(0, "weight")[...] = np.eye(classes)
        lin = mlp.linearize(p, logits, targets)
        np.testing.assert_array_equal(lin.logits, logits)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1))
        want = float((log_z - (shifted * targets).sum(axis=1)).sum() / rows)
        np.testing.assert_array_equal(mlp.loss_and_grad(p, lin, 0.0)[0], want)

    def test_gradient_vs_finite_differences_100_params(self):
        arch = MlpArchitecture((6, 9, 4))  # P = 63 + 40 = 103
        mlp, p, batch = small_problem(seed=4, n=16, arch=arch)
        _, g = mlp.loss_and_grad(p, batch, 0.01)
        g_fd = finite_diff_grad(mlp, p, batch, 0.01)
        scale = np.maximum(np.abs(g), 1e-8)
        assert np.max(np.abs(g - g_fd) / scale) <= 1e-5


class TestHvp:
    def test_zero_vector(self):
        mlp, p, batch = small_problem()
        np.testing.assert_array_equal(
            mlp.hvp(p, batch, np.zeros((p.n_params, 1)))[:, 0], np.zeros(p.n_params)
        )

    def test_single_linear_mse_dense_oracle(self):
        arch = MlpArchitecture((4, 3), "identity", "mse")
        mlp = Mlp(arch)
        p = mlp.init_params(Rng(2))
        x = Rng(3).normal(6 * 4).reshape(6, 4)
        batch = Batch(x, one_hot(Rng(4).integers(0, 3, 6), 3))
        beta = 0.05
        # dense Hessian of the linear least-squares problem, built explicitly
        n, d, c = 6, 4, 3
        h = np.zeros((p.n_params, p.n_params))
        h[: d * c, : d * c] = np.kron(2.0 / n * x.T @ x, np.eye(c))
        h[: d * c, d * c :] = np.kron(2.0 / n * x.sum(axis=0)[:, None], np.eye(c))
        h[d * c :, : d * c] = h[: d * c, d * c :].T
        h[d * c :, d * c :] = 2.0 * np.eye(c)
        h[np.diag_indices_from(h)] += beta * weight_mask(p)
        v = Rng(5).normal(p.n_params)
        hvp = build_quadratic(mlp, p, batch, "hessian", beta=beta).curvature.matvec
        np.testing.assert_allclose(hvp(v), h @ v, atol=1e-10)
        # constant in theta
        p2 = mlp.init_params(Rng(9))
        np.testing.assert_allclose(
            hvp(v), build_quadratic(mlp, p2, batch, "hessian", beta=beta).curvature.matvec(v),
            atol=1e-12
        )

    def test_vs_finite_difference_of_gradient(self):
        arch = MlpArchitecture((6, 9, 4))
        mlp, p, batch = small_problem(seed=6, n=16, arch=arch)
        v = Rng(7).normal(p.n_params)
        hv = build_quadratic(mlp, p, batch, "hessian", beta=0.02).curvature.matvec(v)
        h = 1e-5
        plus = p.with_values(p.values + h * v)
        minus = p.with_values(p.values - h * v)
        hv_fd = (
            mlp.loss_and_grad(plus, batch, 0.02)[1]
            - mlp.loss_and_grad(minus, batch, 0.02)[1]
        ) / (2 * h)
        scale = np.maximum(np.abs(hv), 1e-8)
        assert np.max(np.abs(hv - hv_fd) / scale) <= 1e-5

    def test_tanh_second_derivative_path(self):
        arch = MlpArchitecture((4, 6, 5, 3), "tanh")
        mlp, p, batch = small_problem(seed=8, n=10, arch=arch)
        v = Rng(9).normal(p.n_params)
        hv = mlp.hvp(p, batch, v[:, None])[:, 0]
        h = 1e-6
        plus = p.with_values(p.values + h * v)
        minus = p.with_values(p.values - h * v)
        hv_fd = (
            mlp.loss_and_grad(plus, batch, 0.0)[1]
            - mlp.loss_and_grad(minus, batch, 0.0)[1]
        ) / (2 * h)
        assert np.max(np.abs(hv - hv_fd)) / np.max(np.abs(hv)) <= 1e-5

    def test_linearity(self):
        mlp, p, batch = small_problem(seed=10)
        u = Rng(11).normal(p.n_params)
        v = Rng(12).normal(p.n_params)
        hvp = build_quadratic(mlp, p, batch, "hessian", beta=0.1).curvature.matvec
        lhs = hvp(2.0 * u + 3.0 * v)
        rhs = 2.0 * hvp(u) + 3.0 * hvp(v)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_symmetry(self):
        mlp, p, batch = small_problem(seed=13)
        u = Rng(14).normal(p.n_params)
        v = Rng(15).normal(p.n_params)
        a = float(u @ mlp.hvp(p, batch, v[:, None])[:, 0])
        b = float(v @ mlp.hvp(p, batch, u[:, None])[:, 0])
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


class TestGgnVp:
    def test_psd(self):
        mlp, p, batch = small_problem(seed=16)
        for i in range(10):
            v = Rng(17 + i).normal(p.n_params)
            assert float(v @ mlp.ggn_vp(p, batch, v[:, None])[:, 0]) >= -1e-12

    def test_dense_jacobian_oracle(self):
        arch = MlpArchitecture((4, 6, 3))  # P = 30 + 21 = 51
        mlp, p, batch = small_problem(seed=18, n=8, arch=arch)
        P = p.n_params
        g_dense = np.zeros((P, P))
        for n in range(batch.size):
            jac = np.zeros((3, P))
            for i in range(P):
                e = np.zeros(P)
                e[i] = 1.0
                jac[:, i] = mlp.jvp_batch(p, batch.inputs[n][None], e)[0]
            logits = mlp.forward(p, batch.inputs[n][None])[0]
            pr = softmax(logits[None])[0]
            h_loss = np.diag(pr) - np.outer(pr, pr)
            g_dense += jac.T @ h_loss @ jac / batch.size
        v = Rng(19).normal(P)
        expected = g_dense @ v
        got = mlp.ggn_vp(p, batch, v[:, None])[:, 0]
        assert np.max(np.abs(got - expected)) <= 1e-8 * max(1.0, np.max(np.abs(expected)))

    def test_equals_hvp_for_linear_model_quadratic_loss(self):
        arch = MlpArchitecture((5, 3), "identity", "mse")
        mlp = Mlp(arch)
        p = mlp.init_params(Rng(20))
        x = Rng(21).normal(7 * 5).reshape(7, 5)
        batch = Batch(x, one_hot(Rng(22).integers(0, 3, 7), 3))
        v = Rng(23).normal(p.n_params)
        np.testing.assert_array_equal(
            mlp.ggn_vp(p, batch, v[:, None])[:, 0], mlp.hvp(p, batch, v[:, None])[:, 0]
        )

    def test_symmetry_and_linearity(self):
        mlp, p, batch = small_problem(seed=24)
        u, v = Rng(25).normal(p.n_params), Rng(26).normal(p.n_params)
        def ggn_vp(v):
            return mlp.ggn_vp(p, batch, v[:, None])[:, 0]

        a = float(u @ ggn_vp(v))
        b = float(v @ ggn_vp(u))
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))
        lhs = ggn_vp(1.5 * u - 0.5 * v)
        rhs = 1.5 * ggn_vp(u) - 0.5 * ggn_vp(v)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_ggn_matches_mc_fisher(self):
        # dense GGN vs Monte-Carlo Fisher with sampled labels (cross-entropy)
        arch = MlpArchitecture((3, 5, 3))  # P = 20 + 18 = 38
        mlp, p, batch = small_problem(seed=27, n=4, arch=arch)
        P = p.n_params
        g_dense = dense_from_matvec(lambda v: mlp.ggn_vp(p, batch, v[:, None])[:, 0], P)
        n_mc = 10**5
        fisher = np.zeros((P, P))
        r = Rng(28)
        for n in range(batch.size):
            jac = np.zeros((3, P))
            for i in range(P):
                e = np.zeros(P)
                e[i] = 1.0
                jac[:, i] = mlp.jvp_batch(p, batch.inputs[n][None], e)[0]
            logits = mlp.forward(p, batch.inputs[n][None])[0]
            pr = softmax(logits[None])[0]
            u = r.uniform(n_mc)
            drawn = np.minimum((u[:, None] > np.cumsum(pr)).sum(axis=1), 2)
            resid = pr[None, :] - np.eye(3)[drawn]
            fisher += jac.T @ (resid.T @ resid / n_mc) @ jac / batch.size
        rel = np.linalg.norm(fisher - g_dense) / np.linalg.norm(g_dense)
        assert rel <= 0.02


class TestJacobianVp:
    def test_zero(self):
        mlp, p, batch = small_problem(seed=29)
        np.testing.assert_array_equal(
            mlp.jvp_batch(p, batch.inputs[0][None], np.zeros(p.n_params))[0], np.zeros(4)
        )

    def test_exact_for_linear_network(self):
        arch = MlpArchitecture((5, 3), "identity", "mse")
        mlp = Mlp(arch)
        p = mlp.init_params(Rng(30))
        v = Rng(31).normal(p.n_params)
        x = Rng(32).normal(5)
        f0 = mlp.forward(p, x[None])[0]
        f1 = mlp.forward(p.with_values(p.values + v), x[None])[0]
        np.testing.assert_allclose(mlp.jvp_batch(p, x[None], v)[0], f1 - f0,
                                   rtol=1e-13, atol=1e-13)

    def test_relu_finite_difference_away_from_kinks(self):
        mlp, p, batch = small_problem(seed=33)
        x = batch.inputs[0]
        v = Rng(34).normal(p.n_params)
        jv = mlp.jvp_batch(p, x[None], v)[0]
        h = 1e-6
        f_plus = mlp.forward(p.with_values(p.values + h * v), x[None])[0]
        f_minus = mlp.forward(p.with_values(p.values - h * v), x[None])[0]
        fd = (f_plus - f_minus) / (2 * h)
        assert np.max(np.abs(jv - fd)) / max(1e-8, np.max(np.abs(jv))) <= 1e-5


class TestKfacFactors:
    def test_single_linear_mse_empirical_gram_oracle(self):
        arch = MlpArchitecture((4, 3), "identity", "mse")
        mlp = Mlp(arch)
        p = mlp.init_params(Rng(35))
        x = Rng(36).normal(10 * 4).reshape(10, 4)
        batch = Batch(x, one_hot(Rng(37).integers(0, 3, 10), 3))
        blocks = mlp.kfac_factors(p, batch, "empirical")
        np.testing.assert_allclose(
            blocks[0].factor_a.entries, x.T @ x / 10.0, atol=1e-12
        )

    def test_factors_symmetric_psd(self):
        mlp, p, batch = small_problem(seed=38)
        for mode in ("empirical", "mc_sample"):
            blocks = mlp.kfac_factors(p, batch, mode, Rng(39))
            for blk in blocks:
                for f in (blk.factor_a.entries, blk.factor_b.entries):
                    np.testing.assert_allclose(f, f.T, atol=1e-12)
                    assert np.linalg.eigvalsh(f).min() >= -1e-10

    def test_mc_sample_deterministic(self):
        mlp, p, batch = small_problem(seed=40)
        b1 = mlp.kfac_factors(p, batch, "mc_sample", Rng(41))
        b2 = mlp.kfac_factors(p, batch, "mc_sample", Rng(41))
        for x, y in zip(b1, b2):
            np.testing.assert_array_equal(x.factor_a.entries, y.factor_a.entries)
            np.testing.assert_array_equal(x.factor_b.entries, y.factor_b.entries)

    @pytest.mark.parametrize("mode", ["empirical", "mc_sample"])
    def test_nan_parameter_raises_naming_layer_and_factor(self, mode):
        from quadbias.laplace import accumulate_kfac

        mlp, p, batch = small_problem(seed=43)
        # NaN logits: the backward pass carries NaN to the first factor
        # checked after the (finite) inputs' factor
        p.view(1, "weight")[0, 0] = np.nan
        expected = "kfac_factors: non-finite layer 0 output factor"
        with pytest.raises(NumericalError, match=expected):
            mlp.kfac_factors(p, batch, mode, Rng(44))
        with pytest.raises(NumericalError, match=expected):
            accumulate_kfac(mlp, p, batch, mode, Rng(44), chunk_size=5)

    def test_inf_input_raises_naming_the_input_factor(self):
        mlp, p, batch = small_problem(seed=45)
        batch.inputs[3, 1] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError,
                                                          match="layer 0 input factor"):
            mlp.kfac_factors(p, batch, "empirical")

    def test_mc_sample_requires_rng(self):
        mlp, p, batch = small_problem(seed=42)
        with pytest.raises(ValidationError):
            mlp.kfac_factors(p, batch, "mc_sample", None)

    def test_single_sample_block_is_gradient_outer_product(self):
        # with one sample the Kronecker factorization is exact: the dense
        # block A kron B must equal the outer product of the flat per-sample
        # weight gradient (this pins the vec convention end to end)
        arch = MlpArchitecture((4, 5, 3), "tanh")
        mlp = Mlp(arch)
        p = mlp.init_params(Rng(44))
        x = Rng(45).normal(4)
        batch = Batch(x[None], one_hot(np.array([2]), 3))
        _, grad = mlp.loss_and_grad(p, batch, 0.0)
        blocks = mlp.kfac_factors(p, batch, "empirical")
        offset = 0
        for blk in blocks:
            size = blk.m * blk.n
            w_grad = grad[offset : offset + size]
            dense = np.kron(blk.factor_a.entries, blk.factor_b.entries)
            np.testing.assert_allclose(dense, np.outer(w_grad, w_grad),
                                       atol=1e-14)
            offset += size + blk.n  # skip the bias slice

    @pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
    @pytest.mark.parametrize("loss", ["cross_entropy", "mse"])
    @pytest.mark.parametrize("mode", ["mc_sample", "empirical"])
    def test_equal_to_own_trace_oracle_bitwise(self, activation, loss, mode):
        # the factors come from Mlp.linearize's trace, softmax and backward
        # recursion; the oracle walks the network itself
        arch = MlpArchitecture((5, 7, 6, 3), activation, loss)
        mlp, p, batch = small_problem(seed=48, n=33, arch=arch)
        got = mlp.kfac_factors(p, batch, mode, Rng(49))
        want = oracle.kfac_factors(mlp, p, batch, mode, Rng(49))
        assert len(got) == len(want) == 3
        for g, w in zip(got, want):
            assert g.layer == w.layer
            np.testing.assert_array_equal(g.factor_a.entries, w.factor_a.entries)
            np.testing.assert_array_equal(g.factor_b.entries, w.factor_b.entries)

    @pytest.mark.parametrize("mode", ["mc_sample", "empirical"])
    def test_linearization_equal_to_its_batch_bitwise(self, mode):
        mlp, p, batch = small_problem(seed=50)
        lin = mlp.linearize(p, batch.inputs, batch.targets)
        got = mlp.kfac_factors(p, lin, mode, Rng(51))
        for g, w in zip(got, mlp.kfac_factors(p, batch, mode, Rng(51)), strict=True):
            np.testing.assert_array_equal(g.factor_a.entries, w.factor_a.entries)
            np.testing.assert_array_equal(g.factor_b.entries, w.factor_b.entries)
        with pytest.raises(ValidationError, match="other parameters"):
            mlp.kfac_factors(p.copy(), lin, mode, Rng(51))

    def test_empirical_needs_the_linearization_targets(self):
        mlp, p, batch = small_problem(seed=50)
        with pytest.raises(ValidationError, match="targets"):
            mlp.kfac_factors(p, mlp.linearize(p, batch.inputs), "empirical")

    def test_one_block_per_layer_weights_only(self):
        arch = MlpArchitecture((5, 7, 6, 3))
        mlp, p, batch = small_problem(seed=43, arch=arch)
        blocks = mlp.kfac_factors(p, batch, "empirical")
        assert [b.layer for b in blocks] == [0, 1, 2]
        assert [(b.m, b.n) for b in blocks] == [(5, 7), (7, 6), (6, 3)]


def assert_close_to_oracle(got, want):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= ORACLE_TOL * scale


class TestLinearization:
    @pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
    @pytest.mark.parametrize("loss", ["cross_entropy", "mse"])
    @pytest.mark.parametrize("n", [3, 70, 600])
    def test_block_products_match_per_vector_loops(self, activation, loss, n):
        # n = 70 runs 7 columns per pass, n = 600 one column per pass
        arch = MlpArchitecture((5, 7, 6, 3), activation, loss)
        mlp, p, batch = small_problem(seed=44, n=n, arch=arch)
        k = 9
        vs = Rng(45).normal(p.n_params * k).reshape(p.n_params, k)
        lin = mlp.linearize(p, batch.inputs, batch.targets)
        assert lin.cols_per_pass == max(1, BLOCK_BUDGET // n)
        ggn, hess, jvp = lin.ggn_mm(vs), lin.hvp_mm(vs), lin.jvp_mm(vs)
        assert ggn.shape == hess.shape == (p.n_params, k)
        assert jvp.shape == (k, n, 3)
        for j in range(k):
            v = vs[:, j]
            assert_close_to_oracle(ggn[:, j], oracle.ggn_vp(mlp, p, batch, v))
            assert_close_to_oracle(hess[:, j], oracle.hvp(mlp, p, batch, v))
            assert_close_to_oracle(jvp[j], oracle.jvp(mlp, p, batch.inputs, v))
        v = vs[:, 0]
        mask = weight_mask(p)
        ggn_op = build_quadratic(mlp, p, batch, "ggn", beta=0.2).curvature
        hess_op = build_quadratic(mlp, p, batch, "hessian", beta=0.2).curvature
        assert_close_to_oracle(ggn_op.matvec(v),
                               oracle.ggn_vp(mlp, p, batch, v) + 0.2 * mask * v)
        assert_close_to_oracle(hess_op.matvec(v),
                               oracle.hvp(mlp, p, batch, v) + 0.2 * mask * v)
        assert_close_to_oracle(mlp.jvp_batch(p, batch.inputs, v),
                               oracle.jvp(mlp, p, batch.inputs, v))
        # a (P, k) block through the operators, beta on every column
        ggn_b, hess_b = ggn_op.matmat(vs), hess_op.matmat(vs)
        assert ggn_b.shape == hess_b.shape == (p.n_params, k)
        for j in range(k):
            v = vs[:, j]
            assert_close_to_oracle(ggn_b[:, j],
                                   oracle.ggn_vp(mlp, p, batch, v) + 0.2 * mask * v)
            assert_close_to_oracle(hess_b[:, j],
                                   oracle.hvp(mlp, p, batch, v) + 0.2 * mask * v)

    @pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
    @pytest.mark.parametrize("loss", ["cross_entropy", "mse"])
    @pytest.mark.parametrize("n", [3, 70, 600])
    def test_ggn_forms_match_per_vector_product_and_dot(self, activation, loss, n):
        # the forms are the diagonal of ggn_gram; its other entries are the
        # cross terms v_i^T G v_j, checked against the same products
        arch = MlpArchitecture((5, 7, 6, 3), activation, loss)
        mlp, p, batch = small_problem(seed=48, n=n, arch=arch)
        k = 9
        vs = Rng(49).normal(p.n_params * k).reshape(p.n_params, k)
        gram = mlp.linearize(p, batch.inputs).ggn_gram(vs)  # no targets needed
        assert gram.shape == (k, k)
        products = np.column_stack([oracle.ggn_vp(mlp, p, batch, v) for v in vs.T])
        assert_close_to_oracle(np.diagonal(gram), np.einsum("ij,ij->j", vs, products))
        assert_close_to_oracle(gram, vs.T @ products)

    @pytest.mark.parametrize("sizes", [(5, 3), (5, 7, 3), (5, 7, 6, 3)],
                             ids=["one_layer", "two_layers", "three_layers"])
    @pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
    @pytest.mark.parametrize("loss", ["cross_entropy", "mse"])
    @pytest.mark.parametrize("n", [3, 70])
    def test_row_term_means_match_gradient_and_products(self, sizes, activation, loss, n):
        # row means of the slopes are v . g_B; of the curvatures v . G_B v,
        # and with the Hessian switch v . H_B v, whose r_n . R2[z_n] terms
        # need act'' for tanh and vanish on a one-layer net
        arch = MlpArchitecture(sizes, activation, loss)
        mlp, p, batch = small_problem(seed=50, n=n, arch=arch)
        k = 6
        vs = Rng(51).normal(p.n_params * k).reshape(p.n_params, k)
        lin = mlp.linearize(p, batch.inputs, batch.targets)
        grad = mlp.loss_and_grad(p, lin, 0.0)[1]
        for hessian, product in ((False, lin.ggn_mm), (True, lin.hvp_mm)):
            terms = lin.row_terms(vs, hessian)
            assert terms.shape == (k, n, 2)
            assert_close_to_oracle(terms[..., 0].mean(axis=1), vs.T @ grad)
            assert_close_to_oracle(terms[..., 1].mean(axis=1),
                                   np.einsum("pk,pk->k", vs, product(vs)))

    @pytest.mark.parametrize("loss", ["cross_entropy", "mse"])
    def test_row_terms_without_curvature_are_the_slopes_alone(self, loss, monkeypatch):
        # the K-FAC scan's pass: the same slope bits, a zero curvature column,
        # and no loss-Hessian product
        arch = MlpArchitecture((5, 7, 6, 3), "tanh", loss)
        mlp, p, batch = small_problem(seed=54, n=40, arch=arch)
        vs = Rng(55).normal(p.n_params * 4).reshape(p.n_params, 4)
        lin = mlp.linearize(p, batch.inputs, batch.targets)
        full = lin.row_terms(vs, False)
        monkeypatch.setattr(lin, "_loss_hessian", None)
        slopes = lin.row_terms(vs, False, curvature=False)
        assert slopes.shape == full.shape
        assert slopes[..., 0].tobytes() == full[..., 0].tobytes()
        assert not slopes[..., 1].any()

    @pytest.mark.parametrize("activation", ["relu", "identity"])
    @pytest.mark.parametrize("loss", ["cross_entropy", "mse"])
    def test_zero_second_derivative_terms_skipped_bit_for_bit(self, activation, loss):
        # relu and identity have act'' = 0, so their Hessian product and
        # Hessian row terms skip the act'' terms; multiplying by an explicit
        # zero array instead must give the same bits
        arch = MlpArchitecture((5, 7, 6, 3), activation, loss)
        mlp, p, batch = small_problem(seed=52, n=40, arch=arch)
        vs = Rng(53).normal(p.n_params * 3).reshape(p.n_params, 3)
        fast = mlp.linearize(p, batch.inputs, batch.targets)
        slow = mlp.linearize(p, batch.inputs, batch.targets)
        assert fast.d2 is None
        slow.d2 = [np.zeros_like(a) for a in slow.acts[1:]]
        for name, args in (("hvp_mm", ()), ("row_terms", (True,))):
            got, want = getattr(fast, name)(vs, *args), getattr(slow, name)(vs, *args)
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_forward_mode_pass_keeps_the_last_layer_unless_asked(self, activation):
        arch = MlpArchitecture((5, 7, 6, 3), activation)
        mlp, p, batch = small_problem(seed=54, arch=arch)
        lin = mlp.linearize(p, batch.inputs, batch.targets)
        vt = Rng(55).normal(2 * p.n_params).reshape(2, p.n_params)
        every = lin._r_forward(vt, every=True)
        assert len(every) == 3
        assert lin._r_forward(vt).tobytes() == every[-1].tobytes()
        last, r2 = lin._r_forward(vt, second=True)
        assert last.tobytes() == every[-1].tobytes() and r2.shape == last.shape

    def test_loss_and_grad_on_linearization_equals_batch(self):
        mlp, p, batch = small_problem(seed=46)
        lin = mlp.linearize(p, batch.inputs, batch.targets)
        loss_b, grad_b = mlp.loss_and_grad(p, batch, 0.1)
        loss_l, grad_l = mlp.loss_and_grad(p, lin, 0.1)
        assert loss_b == loss_l
        np.testing.assert_array_equal(grad_b, grad_l)

    def test_rejects_misuse(self):
        mlp, p, batch = small_problem(seed=47)
        lin = mlp.linearize(p, batch.inputs, batch.targets)
        with pytest.raises(ValidationError):
            mlp.ggn_vp(p.copy(), lin, np.ones((p.n_params, 1)))
        with pytest.raises(ValidationError):
            lin.ggn_mm(np.ones(p.n_params))
        with pytest.raises(ValidationError):
            lin.ggn_gram(np.ones((p.n_params + 1, 2)))
        with pytest.raises(ValidationError):
            mlp.linearize(p, batch.inputs).hvp_mm(np.ones((p.n_params, 2)))
        with pytest.raises(ValidationError, match="targets"):
            mlp.loss_and_grad(p, mlp.linearize(p, batch.inputs), 0.0)
        with pytest.raises(ValidationError):
            mlp.linearize(p, np.ones((2, 4)))

    def test_zero_rows(self):
        mlp, p, _ = small_problem(seed=48)
        lin = mlp.linearize(p, np.zeros((0, 5)))
        assert lin.logits.shape == (0, 4)
        assert lin.jvp_mm(np.ones((p.n_params, 2))).shape == (2, 0, 4)


def _on_worker():
    return threading.current_thread().name.startswith("test-pass")


class TestPassSplit:
    @pytest.mark.parametrize("product, args", [
        ("jvp_mm", ()), ("ggn_mm", ()), ("hvp_mm", ()), ("row_terms", (False,)),
        ("row_terms", (True,)), ("ggn_gram", ()),
    ], ids=["jvp_mm", "ggn_mm", "hvp_mm", "row_terms", "row_terms_hessian", "ggn_gram"])
    @pytest.mark.parametrize("k", [1, 10, 13])
    def test_split_bit_equal_to_serial(self, product, args, k, pass_split):
        # 100 rows: 5 columns per pass, so k = 10 is two whole passes and
        # k = 13 three, the last of 3 columns
        force, pool = pass_split
        arch = MlpArchitecture((5, 7, 6, 3), "tanh", "cross_entropy")
        mlp, p, batch = small_problem(seed=52, n=100, arch=arch)
        lin = mlp.linearize(p, batch.inputs, batch.targets)
        vs = Rng(53).normal(p.n_params * k).reshape(p.n_params, k)
        force(True)
        split = getattr(lin, product)(vs, *args)
        assert pool.submits == (k > lin.cols_per_pass)
        force(False)
        serial = getattr(lin, product)(vs, *args)
        assert split.shape == serial.shape
        assert split.tobytes() == serial.tobytes()

    def test_errors_raised_once_both_halves_are_done(self, pass_split):
        force, _ = pass_split
        force(True)
        mlp, p, batch = small_problem(seed=54, n=600)  # one column per pass
        lin = mlp.linearize(p, batch.inputs)
        ran = []

        def worker_fails(vt):
            ran.append(_on_worker())
            if _on_worker():
                raise NumericalError("pass on the worker")
            return vt

        with pytest.raises(NumericalError, match="pass on the worker"):
            lin._by_pass(np.ones((p.n_params, 5)), (p.n_params,), worker_fails)
        assert sorted(ran) == [False] * 3 + [True]  # the worker stops at its first

        def main_fails(vt):
            if not _on_worker():
                raise NumericalError("pass on the main thread")
            time.sleep(0.05)
            ran.append(vt.shape[0])
            return vt

        ran.clear()
        with pytest.raises(NumericalError, match="pass on the main thread"):
            lin._by_pass(np.ones((p.n_params, 5)), (p.n_params,), main_fails)
        assert ran == [1, 1]

    def test_halves_split_only_from_the_work_gate(self, pass_split, monkeypatch):
        # the worker is there, but only work of at least SPLIT_WORK per item
        # and two or more items are handed to it
        _, pool = pass_split
        monkeypatch.setattr(model, "_pass_worker", lambda: pool)
        ran = []
        for items, work in ((range(4), model.SPLIT_WORK - 1), (range(1), model.SPLIT_WORK),
                            (range(4), model.SPLIT_WORK)):
            ran.clear()
            model._run_halves(items, lambda part: ran.extend((i, _on_worker()) for i in part),
                              work)
            assert sorted(ran) == [(i, work >= model.SPLIT_WORK and i % 2 == 1) for i in items]
        assert pool.submits == 1

    @pytest.mark.parametrize("environ, cores, blas, helps", [
        ({}, 2, "scipy-openblas", False),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, "scipy-openblas", True),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2, "scipy-openblas", False),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, "scipy-openblas", False),
        ({"OMP_NUM_THREADS": "1"}, 2, "openblas", True),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, "openblas", False),
        ({"MKL_NUM_THREADS": "1"}, 2, "mkl-sdl", True),
        ({"MKL_NUM_THREADS": "1"}, 1, "mkl-sdl", False),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, "other", False),
        ({"OMP_NUM_THREADS": "1"}, 2, "other", True),
    ])
    def test_second_thread_rule(self, environ, cores, blas, helps):
        assert _second_thread_helps(environ, cores, blas) == helps


class TestTargetShape:
    @pytest.mark.parametrize("width", [1, 5])
    @pytest.mark.parametrize("call", ["loss_and_grad", "kfac_factors", "build_quadratic"])
    def test_targets_of_another_width_rejected(self, call, width):
        # one-hot targets one column wide used to broadcast against the logits
        from quadbias.quadratic import build_quadratic

        arch = MlpArchitecture((4, 6, 3))
        mlp, p, batch = small_problem(seed=53, arch=arch)
        bad = Batch(batch.inputs, one_hot(batch.labels % width, width))
        run = {"loss_and_grad": lambda: mlp.loss_and_grad(p, bad, 0.0),
               "kfac_factors": lambda: mlp.kfac_factors(p, bad, "empirical"),
               "build_quadratic": lambda: build_quadratic(mlp, p, bad, "ggn")}[call]
        with pytest.raises(ValidationError,
                           match=rf"targets shape \(12, {width}\) != logits shape \(12, 3\)"):
            run()


class TestBatchValidation:
    def test_rejects_soft_targets(self):
        with pytest.raises(ValidationError):
            Batch(np.zeros((2, 3)), np.full((2, 2), 0.5))

    @pytest.mark.parametrize("row", [[1.0, 0.5, -0.5], [0.5, 1.0, -0.5], [1.0, 2.0, -2.0]])
    def test_rejects_a_target_other_than_zero_or_one(self, row):
        # each row sums to 1 and holds exactly one 1, yet gives a wrong loss
        # and gradient
        with pytest.raises(ValidationError, match="one-hot"):
            Batch(np.zeros((1, 2)), [row])

    def test_rows_are_the_checked_batch_of_those_rows(self):
        x = Rng(0).normal(7 * 3).reshape(7, 3)
        y = one_hot([2, 0, 1, 1, 0, 2, 2], 3)
        pos = np.array([5, 0, 3, 6])
        part, want = Batch(x, y).rows(pos), Batch(x[pos], y[pos])
        assert isinstance(part, Batch)
        assert part.inputs.tobytes() == want.inputs.tobytes()
        assert part.targets.tobytes() == want.targets.tobytes()
        with pytest.raises(ValidationError, match="one-hot"):
            Batch(x[pos], np.full((4, 3), 1.0 / 3.0))

    def test_one_hot_roundtrip(self):
        y = one_hot(np.array([2, 0, 1]), 3)
        np.testing.assert_array_equal(np.argmax(y, axis=1), [2, 0, 1])
        with pytest.raises(ValidationError):
            one_hot(np.array([3]), 3)


class TestPredictedLabels:
    N = 40

    def _walks(self, monkeypatch, x):
        """(first row, rows, on the worker) of every walk of the network over
        rows of x, recorded as they run."""
        walks = []
        real_walk = Mlp._walk
        row_bytes = x.strides[0]

        def walk(self, wb, rows, acts=None):
            if np.shares_memory(rows, x):
                offset = rows.__array_interface__["data"][0] - x.__array_interface__["data"][0]
                walks.append((offset // row_bytes, rows.shape[0], _on_worker()))
            return real_walk(self, wb, rows, acts)

        monkeypatch.setattr(Mlp, "_walk", walk)
        return walks

    @pytest.mark.parametrize("chunk", [1, 7, N - 1, N, 2 * N])
    @pytest.mark.parametrize("split", [True, False], ids=["split", "serial"])
    def test_labels_are_the_argmax_of_one_forward(self, chunk, split, pass_split, monkeypatch):
        force, pool = pass_split
        arch = MlpArchitecture((5, 9, 7, 6), "tanh", "cross_entropy")
        mlp, p, batch = small_problem(seed=56, n=self.N, arch=arch)
        want = np.argmax(mlp.forward(p, batch.inputs), axis=1)
        walks = self._walks(monkeypatch, batch.inputs)
        force(split)
        got = mlp.predicted_labels(p, batch.inputs, chunk)
        np.testing.assert_array_equal(got, want)
        starts = range(0, self.N, chunk)
        # every chunk walked once, the last one ragged, the odd ones on the
        # worker when the walk is split; they go to it as one task
        assert sorted(walks) == [(s, min(chunk, self.N - s), split and i % 2 == 1)
                                 for i, s in enumerate(starts)]
        assert pool.submits == (split and len(starts) > 1)

    def test_no_rows(self):
        mlp, p, _ = small_problem(seed=57)
        assert mlp.predicted_labels(p, np.zeros((0, 5)), 4).shape == (0,)
