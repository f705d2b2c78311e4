"""K-FAC Laplace posterior: construction, sampling, debiasing, predictive."""

import logging

import numpy as np
import pytest

from quadbias.cg import CgConfig
from quadbias.errors import NumericalError, ValidationError
from quadbias.harness import parse_experiment_config
from quadbias.laplace import (
    accumulate_kfac,
    build_posterior,
    clamped_eigh,
    debias_kfac,
    draw_noise,
    predictive,
    sample_params,
)
from quadbias.linalg import DenseSymMatrix, Rng, sym_eigh
from quadbias.model import (
    Batch,
    KfacBlock,
    LayoutEntry,
    MlpArchitecture,
    ParamVector,
    build_layout,
    softmax,
)
from quadbias.quadratic import CurvatureOperator, synthetic_quadratic, value_at

import laplace_oracle as oracle
from conftest import small_problem
from random_matrices import random_spd


def block_mean(m, n, fill=0.0):
    """ParamVector with one (m, n) weight matrix and an n-bias."""
    layout = (
        LayoutEntry(0, "weight", (m, n), 0),
        LayoutEntry(0, "bias", (n,), m * n),
    )
    return ParamVector(np.full(m * n + n, fill), layout)


def make_block(a, b, layer=0):
    return KfacBlock(layer=layer, factor_a=DenseSymMatrix(np.asarray(a, float)),
                     factor_b=DenseSymMatrix(np.asarray(b, float)))


def _unit_posterior(beta):
    return build_posterior([make_block(np.eye(2), np.eye(2))], block_mean(2, 2), 10, beta)


def _small_loss_and_grad(beta):
    mlp, p, batch = small_problem()
    return mlp.loss_and_grad(p, batch, beta)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name, call", [
    ("epsilon", lambda v: CgConfig(epsilon=v)),
    ("beta", lambda v: CurvatureOperator(3, lambda vs: vs, beta=v)),
    ("delta", lambda v: CurvatureOperator(3, lambda vs: vs, delta=v)),
    ("beta", lambda v: _unit_posterior(0.1).with_beta(v)),
    ("beta", _unit_posterior),
    ("beta", _small_loss_and_grad),
], ids=["cg_epsilon", "operator_beta", "operator_delta", "with_beta", "build_posterior",
        "loss_and_grad"])
def test_non_finite_hyperparameter_rejected_naming_it(name, call, value):
    with pytest.raises(ValidationError, match=rf"^{name} must be .*finite, got {value}$"):
        call(value)


def dense_block(blk):
    return np.kron(blk.factor_a.entries, blk.factor_b.entries)


class TestBuildPosterior:
    def test_zero_factors_variance(self):
        mean = block_mean(2, 3)
        post = build_posterior([make_block(np.zeros((2, 2)), np.zeros((3, 3)))],
                               mean, n_train=100, beta=0.1)
        # per-weight variance 1/(N beta) = 0.1, verified by MC below; here
        # check the cached eigenvalues directly
        np.testing.assert_allclose(post._eigs[0].kron_eigs, np.zeros(6))

    def test_diagonal_block_covariance_eigenvalues(self):
        mean = block_mean(2, 2)
        post = build_posterior(
            [make_block(np.diag([2.0, 3.0]), np.diag([5.0, 7.0]))],
            mean, n_train=1, beta=1.0,
        )
        eigs = sorted(1.0 / (post._eigs[0].kron_eigs + 1.0))
        np.testing.assert_allclose(
            eigs, sorted([1 / 11, 1 / 15, 1 / 16, 1 / 22]), rtol=1e-12
        )

    def test_dense_kronecker_inverse_oracle(self):
        rng = Rng(1)
        a = random_spd(rng, 4, cond=5.0)
        b = random_spd(rng, 4, cond=5.0)
        n, beta = 37, 0.3
        mean = block_mean(4, 4)
        post = build_posterior([make_block(a, b)], mean, n, beta)
        dense_cov = np.linalg.inv(n * (np.kron(a, b) + beta * np.eye(16)))
        # rebuild the covariance from the cached factor eigendecompositions
        eig = post._eigs[0]
        u = np.kron(eig.eig_a.basis, eig.eig_b.basis)
        rebuilt = (u / (n * (eig.kron_eigs + beta))) @ u.T
        rel = np.linalg.norm(rebuilt - dense_cov) / np.linalg.norm(dense_cov)
        assert rel <= 1e-10

    def test_eigen_identity_block_plus_beta(self):
        # U (S + beta I) U^T reconstructs the dense block + beta I
        rng = Rng(2)
        a = random_spd(rng, 3, cond=4.0)
        b = random_spd(rng, 5, cond=4.0)
        mean = block_mean(3, 5)
        post = build_posterior([make_block(a, b)], mean, 10, 0.7)
        eig = post._eigs[0]
        u = np.kron(eig.eig_a.basis, eig.eig_b.basis)
        rebuilt = (u * (eig.kron_eigs + 0.7)) @ u.T
        target = np.kron(a, b) + 0.7 * np.eye(15)
        assert np.linalg.norm(rebuilt - target) <= 1e-10 * np.linalg.norm(target)

    def test_rejects_strongly_negative_factor(self):
        mean = block_mean(2, 2)
        bad = make_block(np.diag([1.0, -1.0]), np.eye(2))
        with pytest.raises(ValidationError):
            build_posterior([bad], mean, 10, 0.1)

    @pytest.mark.parametrize("order", [(0,), (1, 0)])
    def test_rejects_blocks_that_do_not_follow_the_layout(self, order):
        # a 2-3-2 net: weights (2, 3) then (3, 2)
        mean = ParamVector(np.zeros(17), build_layout(MlpArchitecture((2, 3, 2))))
        blocks = [make_block(np.eye(2), np.eye(3), layer=0),
                  make_block(np.eye(3), np.eye(2), layer=1)]
        match = "does not match the layer layout" if len(order) == 1 else "weight shape"
        with pytest.raises(ValidationError, match=match):
            build_posterior([blocks[l] for l in order], mean, 10, 0.1)

    def test_clamps_slightly_negative(self):
        eig = clamped_eigh(DenseSymMatrix(np.diag([1.0, -1e-9])))
        assert eig.eigenvalues.min() == 0.0

    @pytest.mark.parametrize("nan_at", [(1, 1), (slice(None), slice(None))])
    def test_nan_factor_eigenvalue_raises_naming_the_factor(self, nan_at):
        factor = np.eye(3)
        factor[nan_at] = np.nan
        with pytest.raises(NumericalError, match="layer 1 input factor"):
            clamped_eigh(DenseSymMatrix(factor), context="layer 1 input factor")

    def test_beta_zero_requires_positive_factors(self):
        mean = block_mean(2, 2)
        with pytest.raises(ValidationError):
            build_posterior([make_block(np.zeros((2, 2)), np.zeros((2, 2)))],
                            mean, 10, 0.0)


class TestSampling:
    def test_deterministic_given_seed(self):
        mean = block_mean(3, 2, fill=1.0)
        post = build_posterior(
            [make_block(random_spd(Rng(3), 3), random_spd(Rng(4), 2))],
            mean, 50, 0.2,
        )
        s1 = sample_params(post, Rng(77))
        s2 = sample_params(post, Rng(77))
        np.testing.assert_array_equal(s1.values, s2.values)

    def test_bias_coordinates_stay_at_mean(self):
        mean = block_mean(3, 2, fill=2.5)
        post = build_posterior(
            [make_block(random_spd(Rng(5), 3), random_spd(Rng(6), 2))],
            mean, 50, 0.2,
        )
        s = sample_params(post, Rng(8))
        np.testing.assert_array_equal(s.values[6:], mean.values[6:])
        assert not np.array_equal(s.values[:6], mean.values[:6])

    def test_zero_factor_mc_variance(self):
        mean = block_mean(2, 2)
        post = build_posterior([make_block(np.zeros((2, 2)), np.zeros((2, 2)))],
                               mean, 100, 0.1)
        rng = Rng(9)
        draws = np.array([sample_params(post, rng.split(i)).values[:4]
                          for i in range(10**5)])
        var = draws.var(axis=0)
        np.testing.assert_allclose(var, 0.1, rtol=0.03)

    def test_mc_covariance_matches_dense(self):
        rng = Rng(10)
        a = random_spd(rng, 3, cond=3.0)
        b = random_spd(rng, 3, cond=3.0)
        n, beta = 20, 0.5
        mean = block_mean(3, 3)
        post = build_posterior([make_block(a, b)], mean, n, beta)
        base = Rng(11)
        draws = np.array([sample_params(post, base.split(i)).values[:9]
                          for i in range(10**5)])
        emp = np.cov(draws.T)
        dense_cov = np.linalg.inv(n * (np.kron(a, b) + beta * np.eye(9)))
        rel = np.linalg.norm(emp - dense_cov) / np.linalg.norm(dense_cov)
        assert rel <= 0.05

    def test_mc_mean_is_theta_star(self):
        mean = block_mean(2, 2, fill=3.0)
        post = build_posterior([make_block(np.eye(2), np.eye(2))], mean, 10, 1.0)
        base = Rng(12)
        n_samples = 20000
        draws = np.array([sample_params(post, base.split(i)).values[:4]
                          for i in range(n_samples)])
        sigma = np.sqrt(1.0 / (10 * 2.0))
        tol = 4.0 * sigma / np.sqrt(n_samples)
        np.testing.assert_allclose(draws.mean(axis=0), 3.0, atol=tol)


class TestDebiasKfac:
    def _pair(self, m=3, n=3, seed=13):
        rng = Rng(seed)
        return (
            [make_block(random_spd(rng, m), random_spd(rng, n))],
            [make_block(random_spd(rng, m), random_spd(rng, n))],
        )

    def test_self_debias_identity(self):
        blocks, _ = self._pair()
        out = debias_kfac(blocks, blocks)
        np.testing.assert_allclose(
            out[0].factor_a.entries, blocks[0].factor_a.entries, atol=1e-12
        )
        np.testing.assert_allclose(
            out[0].factor_b.entries, blocks[0].factor_b.entries, atol=1e-12
        )

    def test_directional_identity_on_eigenvectors(self):
        blocks_b, blocks_bt = self._pair()
        debiased = debias_kfac(blocks_b, blocks_bt)
        k_b = dense_block(blocks_b[0])
        k_bt = dense_block(blocks_bt[0])
        k_hat = dense_block(debiased[0])
        eig = sym_eigh(k_b)
        for i in range(eig.k):
            u = eig.basis[:, i]
            assert float(u @ k_hat @ u) == pytest.approx(
                float(u @ k_bt @ u), rel=1e-10, abs=1e-12
            )

    def test_dense_reconstruction(self):
        blocks_b, blocks_bt = self._pair(seed=14)
        debiased = debias_kfac(blocks_b, blocks_bt)
        ua = sym_eigh(blocks_b[0].factor_a).basis
        ub = sym_eigh(blocks_b[0].factor_b).basis
        u = np.kron(ua, ub)
        s_a = np.diag(ua.T @ blocks_bt[0].factor_a.entries @ ua)
        s_b = np.diag(ub.T @ blocks_bt[0].factor_b.entries @ ub)
        expected = (u * np.kron(s_a, s_b)) @ u.T
        got = dense_block(debiased[0])
        assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_preserves_eigenbasis(self):
        blocks_b, blocks_bt = self._pair(seed=15)
        debiased = debias_kfac(blocks_b, blocks_bt)
        ua = sym_eigh(blocks_b[0].factor_a).basis
        da = ua.T @ debiased[0].factor_a.entries @ ua
        off = da - np.diag(np.diag(da))
        assert np.max(np.abs(off)) <= 1e-10

    def test_dimension_mismatch(self):
        a = [make_block(np.eye(2), np.eye(3))]
        b = [make_block(np.eye(3), np.eye(3))]
        with pytest.raises(ValidationError):
            debias_kfac(a, b)


class TestAccumulate:
    def test_single_chunk_equals_factors(self):
        mlp, p, batch = small_problem(seed=62, n=10)
        direct = mlp.kfac_factors(p, batch, "empirical")
        acc = accumulate_kfac(mlp, p, batch, "empirical", chunk_size=10)
        for x, y in zip(direct, acc):
            np.testing.assert_allclose(x.factor_a.entries, y.factor_a.entries,
                                       atol=1e-15)

    def test_two_equal_chunks_average(self):
        mlp, p, data = small_problem(seed=63, n=12)
        halves = [
            Batch(data.inputs[:6], data.targets[:6]),
            Batch(data.inputs[6:], data.targets[6:]),
        ]
        acc = accumulate_kfac(mlp, p, data, "empirical", chunk_size=6)
        parts = [mlp.kfac_factors(p, h, "empirical") for h in halves]
        for l in range(len(acc)):
            mean_a = 0.5 * (parts[0][l].factor_a.entries + parts[1][l].factor_a.entries)
            np.testing.assert_allclose(acc[l].factor_a.entries, mean_a, atol=1e-12)

    def test_ragged_chunks_weighted_by_their_rows(self):
        # chunks of 4, 4 and 2 rows weighted 0.4, 0.4 and 0.2: under the
        # empirical Fisher each factor is a row mean, so the weighted chunk
        # average is the factor of all 10 rows at once
        mlp, p, data = small_problem(seed=63, n=10)
        acc = accumulate_kfac(mlp, p, data, "empirical", chunk_size=4)
        for x, y in zip(acc, mlp.kfac_factors(p, data, "empirical")):
            np.testing.assert_allclose(x.factor_a.entries, y.factor_a.entries, atol=1e-12)
            np.testing.assert_allclose(x.factor_b.entries, y.factor_b.entries, atol=1e-12)

    def test_chunk_order_invariance_empirical(self):
        mlp, p, data = small_problem(seed=64, n=12)
        perm = Rng(0).permutation(12)
        data_perm = Batch(data.inputs[perm], data.targets[perm])
        a = accumulate_kfac(mlp, p, data, "empirical", chunk_size=4)
        b = accumulate_kfac(mlp, p, data_perm, "empirical", chunk_size=4)
        for x, y in zip(a, b):
            np.testing.assert_allclose(x.factor_a.entries, y.factor_a.entries,
                                       atol=1e-12)
            np.testing.assert_allclose(x.factor_b.entries, y.factor_b.entries,
                                       atol=1e-12)

    def test_empty_rejected(self):
        mlp, p, _ = small_problem(seed=65)
        empty = Batch(np.zeros((0, 5)), np.zeros((0, 4)))
        with pytest.raises(ValidationError):
            accumulate_kfac(mlp, p, empty, "empirical")


def predict(post, mlp, x, s_samples, seed):
    """The predictive on the rows x, with s_samples draws from seed."""
    return predictive(post, mlp, mlp.linearize(post.mean, x), draw_noise(post, s_samples, seed))


class TestPredictive:
    def _posterior(self, beta, seed=66, n_train=200):
        mlp, p, batch = small_problem(seed=seed, n=30)
        blocks = mlp.kfac_factors(p, batch, "empirical")
        return mlp, p, build_posterior(blocks, p, n_train, beta)

    def test_rows_sum_to_one(self):
        mlp, p, post = self._posterior(0.5)
        x = Rng(20).normal(8 * 5).reshape(8, 5)
        probs = predict(post, mlp, x, 10, seed=3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(probs >= 0)

    def test_huge_beta_collapses_to_map(self):
        mlp, p, post = self._posterior(1e12)
        x = Rng(21).normal(6 * 5).reshape(6, 5)
        probs = predict(post, mlp, x, 20, seed=4)
        map_probs = softmax(mlp.forward(p, x))
        np.testing.assert_allclose(probs, map_probs, atol=1e-5)

    def test_kl_to_map_nonincreasing_in_beta(self):
        x = Rng(22).normal(20 * 5).reshape(20, 5)
        kls = []
        for beta in (1e-2, 1e-1, 1.0, 10.0):
            mlp, p, post = self._posterior(beta)
            map_probs = softmax(mlp.forward(p, x))
            kl_sum = 0.0
            for seed in range(5):
                probs = predict(post, mlp, x, 25, seed=seed)
                kl_sum += np.mean(
                    np.sum(probs * (np.log(probs + 1e-300) - np.log(map_probs)), axis=1)
                )
            kls.append(kl_sum / 5)
        for a, b in zip(kls, kls[1:]):
            assert b <= a + 1e-12

    def test_default_grid_matches_design(self):
        grid = parse_experiment_config({"experiment": {"kind": "laplace-sweep"}}).la_grid
        assert len(grid) == 14
        assert grid[0] == pytest.approx(1e-4)
        assert grid[12] == pytest.approx(1.0)
        assert grid[13] == 10.0


# Largest |difference| between a sweep probability and the oracle's, fixed
# before the comparison was first run. The only difference allowed is the
# rounding of theta_s - theta* in the oracle, about 1e-16 per coordinate,
# which moves a probability by well under 1e-14.
ORACLE_ATOL = 1e-12


class TestSweepAgainstOracle:
    """One decomposition, one draw block and one linearization (of one input
    set, or of several stacked), shared across beta and run in groups of
    draws, against everything recomputed per call and per draw."""

    GRID = (1e-4, 1e-2, 0.3, 1.0, 10.0)

    def _fit(self, activation, loss, seed=70):
        arch = MlpArchitecture((5, 7, 6, 4), activation, loss)
        mlp, p, batch = small_problem(seed=seed, n=40, arch=arch)
        blocks = mlp.kfac_factors(p, batch, "mc_sample", Rng(seed + 1))
        rng = Rng(seed + 2)
        input_sets = [rng.normal(9 * 5).reshape(9, 5), 3.0 + rng.normal(6 * 5).reshape(6, 5)]
        return mlp, p, blocks, input_sets

    @pytest.mark.parametrize("loss", ["cross_entropy", "mse"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_shared_work_equals_per_call_oracle(self, activation, loss):
        mlp, p, blocks, input_sets = self._fit(activation, loss)
        post = build_posterior(blocks, p, 150, self.GRID[0])
        noise = draw_noise(post, 6, 2001)
        lins = [mlp.linearize(p, x) for x in input_sets]
        for beta in self.GRID:
            post_beta = post.with_beta(beta)
            for x, lin in zip(input_sets, lins):
                got = predictive(post_beta, mlp, lin, noise)
                want = oracle.predictive(blocks, p, 150, beta, mlp, x, 6, 2001)
                np.testing.assert_allclose(got, want, rtol=0.0, atol=ORACLE_ATOL)

    def test_stacked_rows_equal_separate_input_sets(self):
        # the sweep linearizes the test rows over the OOD rows once
        mlp, p, blocks, input_sets = self._fit("tanh", "cross_entropy")
        post = build_posterior(blocks, p, 150, 0.3)
        got = predictive(post, mlp, mlp.linearize(p, np.vstack(input_sets)),
                         draw_noise(post, 5, 2001))
        n_test = input_sets[0].shape[0]
        for x, rows in zip(input_sets, (got[:n_test], got[n_test:])):
            want = oracle.predictive(blocks, p, 150, 0.3, mlp, x, 5, 2001)
            np.testing.assert_allclose(rows, want, rtol=0.0, atol=ORACLE_ATOL)

    @pytest.mark.parametrize("s_samples, groups", [(1, [1]), (3, [3]), (4, [3, 1])])
    def test_draw_groups_equal_per_draw_oracle(self, monkeypatch, s_samples, groups):
        # DRAW_BUDGET 27 on 9 rows gives groups of 3 draws: S = 1, the group
        # size, and one past it, whose last group is partial
        import quadbias.laplace as laplace
        from quadbias.model import Linearization

        monkeypatch.setattr(laplace, "DRAW_BUDGET", 27)
        seen = []
        jvp_mm = Linearization.jvp_mm

        def counting(lin, vs):
            seen.append(vs.shape[1])
            return jvp_mm(lin, vs)

        monkeypatch.setattr(Linearization, "jvp_mm", counting)
        mlp, p, blocks, input_sets = self._fit("relu", "cross_entropy")
        post = build_posterior(blocks, p, 150, 1e-2)
        got = predictive(post, mlp, mlp.linearize(p, input_sets[0]),
                         draw_noise(post, s_samples, 2001))
        assert seen == groups
        want = oracle.predictive(blocks, p, 150, 1e-2, mlp, input_sets[0], s_samples, 2001)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=ORACLE_ATOL)

    def test_draws_are_the_sample_params_draws(self):
        from quadbias.laplace import _displacements

        mlp, p, blocks, _ = self._fit("tanh", "cross_entropy")
        noise = draw_noise(build_posterior(blocks, p, 150, 1e-4), 5, 7)
        for beta in (1e-4, 0.5):
            post = build_posterior(blocks, p, 150, 1e-4).with_beta(beta)
            ref = oracle.posterior(blocks, p, 150, beta)
            deltas = _displacements(post, noise)
            assert deltas.shape == (p.n_params, 5)
            for s in range(5):
                want = oracle.sample_params(ref, Rng(7).split(s))
                np.testing.assert_array_equal(p.values + deltas[:, s], want)
                np.testing.assert_array_equal(
                    sample_params(post, Rng(7).split(s)).values, want)

    def test_with_beta_decomposes_nothing(self, monkeypatch):
        import quadbias.laplace as laplace

        mlp, p, blocks, input_sets = self._fit("relu", "cross_entropy")
        post = build_posterior(blocks, p, 150, 1e-4)
        lin, noise = mlp.linearize(p, input_sets[0]), draw_noise(post, 2, 1)

        def no_eigh(m):
            raise AssertionError("factor decomposed again")

        monkeypatch.setattr(laplace, "sym_eigh", no_eigh)
        for beta in self.GRID:
            post_beta = post.with_beta(beta)
            assert post_beta.beta == beta and post_beta._eigs is post._eigs
            predictive(post_beta, mlp, lin, noise)

    def test_with_beta_zero_requires_positive_factors(self):
        post = build_posterior([make_block(np.zeros((2, 2)), np.eye(2))],
                               block_mean(2, 2), 10, 0.1)
        with pytest.raises(ValidationError, match="strictly positive"):
            post.with_beta(0.0)
        with pytest.raises(ValidationError, match="beta must be >= 0"):
            post.with_beta(-1.0)
        assert post.beta == 0.1

    def test_one_clamp_warning_per_posterior(self, caplog):
        caplog.set_level(logging.WARNING, logger="quadbias.laplace")
        mlp, p, blocks, input_sets = self._fit("relu", "cross_entropy")
        blocks = [make_block(b.factor_a.entries + np.eye(b.m), b.factor_b.entries + np.eye(b.n),
                             b.layer) for b in blocks]
        blocks[1] = KfacBlock(1, DenseSymMatrix(np.diag([1.0] * 6 + [-1e-9])),
                              DenseSymMatrix(np.diag([2.0] * 5 + [-3e-9])))
        post = build_posterior(blocks, p, 150, self.GRID[0])
        noise, lin = draw_noise(post, 2, 1), mlp.linearize(p, input_sets[0])
        for beta in self.GRID:
            predictive(post.with_beta(beta), mlp, lin, noise)
        messages = [r.getMessage() for r in caplog.records if "clamping" in r.getMessage()]
        assert messages == ["clamping 2 slightly negative eigenvalues in 2 of 6 "
                            "factors (min -3.000e-09) to zero"]

    def test_noise_and_linearization_must_fit(self):
        mlp, p, blocks, input_sets = self._fit("relu", "cross_entropy")
        post = build_posterior(blocks, p, 150, 0.1)
        lin, noise = mlp.linearize(p, input_sets[0]), draw_noise(post, 3, 1)
        for bad in (noise[:, 1:], noise[:0], noise[0]):
            with pytest.raises(ValidationError, match="noise shape"):
                predictive(post, mlp, lin, bad)
        other = mlp.linearize(p.copy(), input_sets[0])
        with pytest.raises(ValidationError, match="other parameters"):
            predictive(post, mlp, other, noise)

    @pytest.mark.parametrize("s_samples", [0, -1])
    def test_draw_noise_needs_one_sample(self, s_samples):
        mlp, p, blocks, _ = self._fit("relu", "cross_entropy")
        post = build_posterior(blocks, p, 150, 0.1)
        with pytest.raises(ValidationError, match=f"s_samples must be >= 1, got {s_samples}"):
            draw_noise(post, s_samples, 0)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestPredictiveFailsLoudly:
    def _posterior(self):
        mlp, p, batch = small_problem(seed=71, n=30)
        return mlp, p, build_posterior(mlp.kfac_factors(p, batch, "empirical"), p, 100, 0.5)

    def test_nan_mean_raises(self):
        mlp, p, batch = small_problem(seed=71, n=30)
        bad = p.copy()
        bad.values[3] = np.nan
        post = build_posterior(mlp.kfac_factors(p, batch, "empirical"), bad, 100, 0.5)
        x = Rng(72).normal(4 * 5).reshape(4, 5)
        with pytest.raises(NumericalError, match="predictive: non-finite probability"):
            predict(post, mlp, x, 3, seed=1)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_input_raises_naming_the_row(self, value):
        mlp, p, post = self._posterior()
        x = Rng(73).normal(4 * 5).reshape(4, 5)
        x[2, 1] = value
        with pytest.raises(NumericalError, match=r"non-finite probability at \[2, "):
            predict(post, mlp, x, 3, seed=1)

    def test_non_finite_row_is_named_with_its_class_over_draw_groups(self, monkeypatch):
        # 5 draws in groups of 2, 2 and 1 over 12 rows; a NaN logit makes the
        # whole softmax row NaN, so the first class named is 0
        import quadbias.laplace as laplace

        monkeypatch.setattr(laplace, "DRAW_BUDGET", 24)
        mlp, p, post = self._posterior()
        x = Rng(74).normal(12 * 5).reshape(12, 5)
        x[9, 0] = np.nan
        with pytest.raises(NumericalError, match=r"non-finite probability at \[9, 0\] = nan$"):
            predict(post, mlp, x, 5, seed=1)


class TestGaussianCorrespondence:
    def test_quadratic_matches_log_density_differences(self):
        # -N q(theta; D) with zero gradient equals the Gaussian log density of
        # N(theta*, (N H)^-1) up to a constant: check via differences.
        rng = Rng(23)
        dim, n = 8, 40
        h = random_spd(rng, dim, cond=6.0)
        theta_star = rng.normal(dim)
        q = synthetic_quadratic(h, np.zeros(dim), 0.9,
                                ParamVector.from_values(theta_star))
        cov = np.linalg.inv(n * h)
        cov_inv = n * h

        def logpdf(theta):
            d = theta - theta_star
            return -0.5 * float(d @ cov_inv @ d)

        for i in range(5):
            t1 = theta_star + rng.normal(dim)
            t2 = theta_star + rng.normal(dim)
            lhs = -n * value_at(q, t1) - (-n * value_at(q, t2))
            rhs = logpdf(t1) - logpdf(t2)
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)
