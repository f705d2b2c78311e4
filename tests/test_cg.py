"""Conjugate gradients and the two-batch debiased variant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadbias.cg import CgConfig, cg_minimize, debiased_cg, newton_step
from quadbias.errors import NumericalError, ValidationError
from quadbias.linalg import Rng
from quadbias.model import ParamVector
from quadbias.quadratic import (
    build_quadratic,
    directional_curvature,
    directional_slope,
    synthetic_quadratic,
    value_at,
)

from cg_oracle import rebuild_magnitudes, sequential_debiased_cg
from conftest import small_problem
from random_matrices import random_spd


def spd_quadratic(seed, dim, cond=10.0, grad_scale=1.0):
    rng = Rng(seed)
    h = random_spd(rng, dim, cond)
    g = grad_scale * rng.normal(dim)
    return synthetic_quadratic(h, g), h, g


class TestCgMinimize:
    def test_identity_system_one_iteration(self):
        b = np.array([1.0, -2.0, 0.5])
        q = synthetic_quadratic(np.eye(3), -b)
        trace = cg_minimize(q, CgConfig(epsilon=1e-12, p_max=10))
        assert trace.n_steps == 1
        assert trace.termination == "tolerance"
        np.testing.assert_allclose(trace.final(), b, atol=1e-12)
        assert trace.residual_norms[-1] <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(dim=st.integers(1, 30), cond=st.floats(1.0, 10.0), seed=st.integers(0, 2**16))
    def test_spd_solve_reaches_epsilon_within_dim_iterations(self, dim, cond, seed):
        # tolerance fixed at 1e-8 of the starting residual; in floating point
        # CG loses conjugacy as the condition number grows, so it is capped
        q, h, g = spd_quadratic(seed, dim, cond)
        eps = 1e-8 * np.linalg.norm(g)
        trace = cg_minimize(q, CgConfig(epsilon=eps, p_max=dim))
        assert trace.termination == "tolerance"
        assert trace.n_steps <= dim
        assert trace.residual_norms[-1] <= eps
        assert np.linalg.norm(h @ trace.final() + g) <= 10 * eps

    def test_diagonal_solve(self):
        q = synthetic_quadratic(np.diag([1.0, 2.0]), -np.array([1.0, 1.0]))
        trace = cg_minimize(q, CgConfig(epsilon=1e-12, p_max=2))
        np.testing.assert_allclose(trace.final(), [1.0, 0.5], atol=1e-12)

    def test_2x2_frozen_solution(self):
        # A = [[4,1],[1,3]], b = (1,2) -> x = (1/11, 7/11)
        q = synthetic_quadratic(np.array([[4.0, 1.0], [1.0, 3.0]]),
                                -np.array([1.0, 2.0]))
        trace = cg_minimize(q, CgConfig(epsilon=1e-14, p_max=2))
        assert trace.n_steps <= 2
        np.testing.assert_allclose(trace.final(), [1.0 / 11.0, 7.0 / 11.0],
                                   atol=1e-10)

    def test_reconstruction_identity_exact(self):
        q, _, _ = spd_quadratic(1, 20)
        trace = cg_minimize(q, CgConfig(epsilon=1e-10, p_max=20))
        iterates = list(trace.iterates())
        for p in range(trace.n_steps):
            rebuilt = iterates[p] + trace.magnitudes[p] * trace.directions[:, p]
            np.testing.assert_array_equal(rebuilt, iterates[p + 1])

    def test_conjugacy(self):
        q, h, _ = spd_quadratic(2, 30)
        trace = cg_minimize(q, CgConfig(epsilon=1e-14, p_max=30))
        d = trace.directions.T
        for i in range(len(d)):
            hi = h @ d[i]
            ci = float(d[i] @ hi)
            for j in range(i + 1, len(d)):
                cj = float(d[j] @ (h @ d[j]))
                assert abs(d[j] @ hi) <= 1e-8 * np.sqrt(ci * cj)

    def test_monotone_descent_and_positive_magnitudes(self):
        q, _, _ = spd_quadratic(3, 25)
        trace = cg_minimize(q, CgConfig(epsilon=1e-12, p_max=25))
        vals = [value_at(q, th) for th in trace.iterates()]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12
        assert all(t > 0 for t in trace.magnitudes)

    def test_magnitude_is_one_dim_newton_step(self):
        q, _, _ = spd_quadratic(4, 15)
        trace = cg_minimize(q, CgConfig(epsilon=1e-12, p_max=15))
        for p, theta in zip(range(trace.n_steps), trace.iterates()):
            d = trace.directions[:, p]
            slope = directional_slope(q, theta, d)
            curv = directional_curvature(q, d)
            assert trace.magnitudes[p] == pytest.approx(-slope / curv, rel=1e-10)

    def test_same_batch_slopes_nonpositive(self):
        q, _, _ = spd_quadratic(5, 15)
        trace = cg_minimize(q, CgConfig(epsilon=1e-12, p_max=15))
        for p, theta in zip(range(trace.n_steps), trace.iterates()):
            slope = directional_slope(q, theta, trace.directions[:, p])
            assert slope <= 1e-12

    def test_negative_curvature_termination(self):
        h = np.diag([1.0, -2.0])
        q = synthetic_quadratic(h, np.array([0.0, 1.0]))
        trace = cg_minimize(q, CgConfig(epsilon=1e-14, p_max=10))
        assert trace.termination == "negative_curvature"

    def test_one_matvec_per_iteration(self):
        q, _, _ = spd_quadratic(6, 12)
        before = q.curvature.matvec_count
        trace = cg_minimize(q, CgConfig(epsilon=1e-14, p_max=12))
        assert q.curvature.matvec_count - before == trace.n_steps

    def test_zero_gradient_takes_no_step(self):
        q = synthetic_quadratic(np.eye(4), np.zeros(4))
        trace = cg_minimize(q, CgConfig(epsilon=1e-12, p_max=5))
        assert trace.n_steps == 0
        assert trace.termination == "tolerance"

    def test_nan_curvature_raises_naming_the_iteration(self):
        # a NaN curvature passes the floor test; left unchecked it yields
        # all-NaN iterates labelled max_iter
        q = synthetic_quadratic(np.diag([np.nan, 1.0, 2.0]), np.ones(3))
        with pytest.raises(NumericalError, match="iteration 0"):
            cg_minimize(q, CgConfig(epsilon=1e-12, p_max=5))


class TestNewtonStep:
    def test_zero_gradient(self):
        q = synthetic_quadratic(np.eye(4), np.zeros(4))
        step, trace = newton_step(q, CgConfig(epsilon=1e-12, p_max=10))
        np.testing.assert_array_equal(step, np.zeros(4))

    def test_matches_direct_solve_50x50(self):
        q, h, g = spd_quadratic(7, 50)
        step, trace = newton_step(q, CgConfig(epsilon=1e-12, p_max=50))
        direct = np.linalg.solve(h, -g)
        rel = np.linalg.norm(step - direct) / np.linalg.norm(direct)
        assert rel <= 1e-8
        assert trace.n_steps <= 50

    def test_linear_in_gradient(self):
        rng = Rng(8)
        h = random_spd(rng, 20)
        g = rng.normal(20)
        cfg = CgConfig(epsilon=1e-14, p_max=40)
        s1, _ = newton_step(synthetic_quadratic(h, g), cfg)
        s2, _ = newton_step(synthetic_quadratic(h, 2.0 * g), cfg)
        np.testing.assert_allclose(s2, 2.0 * s1, rtol=1e-10, atol=1e-12)

    def test_negative_curvature_surfaces_in_trace(self):
        q = synthetic_quadratic(np.diag([1.0, -1.0]), np.array([1.0, 1.0]))
        _, trace = newton_step(q, CgConfig(epsilon=1e-14, p_max=10))
        assert trace.termination == "negative_curvature"


class TestDebiasedCg:
    def _model_quadratic_pair(self, same=False):
        mlp, p, batch = small_problem(seed=60, n=24)
        mlp2, _, batch2 = small_problem(seed=61, n=24)
        q_b = build_quadratic(mlp, p, batch, "ggn", beta=0.05)
        q_bt = build_quadratic(
            mlp, p, batch if same else batch2, "ggn", beta=0.05
        )
        return q_b, q_bt

    def test_same_batch_congruent_bitwise(self):
        q_b, q_bt = self._model_quadratic_pair(same=True)
        cfg = CgConfig(epsilon=1e-12, p_max=25)
        dir_trace, deb_trace = debiased_cg(q_b, q_bt, cfg)
        assert deb_trace.termination == dir_trace.termination
        dir_iterates, deb_iterates = list(dir_trace.iterates()), list(deb_trace.iterates())
        assert len(deb_iterates) == len(dir_iterates)
        for a, b in zip(dir_iterates, deb_iterates):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(dir_trace.magnitudes, deb_trace.magnitudes)
        np.testing.assert_array_equal(dir_trace.residual_norms,
                                      deb_trace.residual_norms)

    def test_sign_flipped_gradient_pair(self):
        # same curvature, opposite gradient: tau~_0 = -tau_0
        rng = Rng(9)
        h = random_spd(rng, 10)
        g = rng.normal(10)
        q_b = synthetic_quadratic(h, g)
        q_bt = synthetic_quadratic(h, -g)
        _, deb = debiased_cg(q_b, q_bt, CgConfig(epsilon=1e-14, p_max=1))
        dir_trace, _ = debiased_cg(q_b, q_b, CgConfig(epsilon=1e-14, p_max=1))
        assert deb.magnitudes[0] == pytest.approx(-dir_trace.magnitudes[0],
                                                  rel=1e-12)

    def test_recursive_gradient_matches_fresh_over_30_iterations(self):
        rng = Rng(10)
        h_b = random_spd(rng, 60, cond=30.0)
        h_bt = random_spd(rng, 60, cond=30.0)
        g_b, g_bt = rng.normal(60), rng.normal(60)
        q_b = synthetic_quadratic(h_b, g_b)
        q_bt = synthetic_quadratic(h_bt, g_bt)
        cfg = CgConfig(epsilon=1e-16, p_max=30)
        _, deb = debiased_cg(q_b, q_bt, cfg)
        assert deb.n_steps == 30
        for p, theta in enumerate(deb.iterates()):
            fresh = h_bt @ (theta - np.zeros(60)) + g_bt
            # residual_norms stores ||recursive gradient||
            assert deb.residual_norms[p] == pytest.approx(
                np.linalg.norm(fresh), rel=1e-10
            )

    def test_debiased_reconstruction_exact(self):
        q_b, q_bt = self._model_quadratic_pair()
        _, deb = debiased_cg(q_b, q_bt, CgConfig(epsilon=1e-14, p_max=12))
        iterates = list(deb.iterates())
        for p in range(deb.n_steps):
            rebuilt = iterates[p] + deb.magnitudes[p] * deb.directions[:, p]
            np.testing.assert_array_equal(rebuilt, iterates[p + 1])

    def test_two_matvecs_per_iteration(self):
        q_b, q_bt = self._model_quadratic_pair()
        before = q_b.curvature.matvec_count + q_bt.curvature.matvec_count
        dir_trace, deb = debiased_cg(q_b, q_bt, CgConfig(epsilon=1e-14, p_max=10))
        total = q_b.curvature.matvec_count + q_bt.curvature.matvec_count - before
        assert total == 2 * deb.n_steps

    def test_interleaved_equals_sequential(self):
        # the one loop against the two-pass reference: CG on q_b first, then
        # its directions replayed with magnitudes measured on q_bt
        q_b, q_bt = self._model_quadratic_pair()
        for k in (1, 6, 15):
            cfg = CgConfig(1e-14, p_max=k)
            dir_trace, deb = debiased_cg(q_b, q_bt, cfg)
            ref_dir, ref_deb = sequential_debiased_cg(q_b, q_bt, cfg)
            for got, ref in ((dir_trace, ref_dir), (deb, ref_deb)):
                assert got.termination == ref.termination
                got_iterates, ref_iterates = list(got.iterates()), list(ref.iterates())
                assert len(got_iterates) == len(ref_iterates) == k + 1
                for a, b in zip(got_iterates, ref_iterates):
                    np.testing.assert_array_equal(a, b)
                np.testing.assert_array_equal(got.directions, ref.directions)
                np.testing.assert_array_equal(got.magnitudes, ref.magnitudes)
                np.testing.assert_array_equal(got.residual_norms, ref.residual_norms)

    def test_iterates_equal_the_oracle_recursion_bitwise(self):
        # the traces keep no iterates; iterates() rebuilds them from the
        # directions and magnitudes, and must give the oracle's own walk
        # (with q_b itself, the oracle replays the direction trace)
        q_b, q_bt = self._model_quadratic_pair()
        dir_trace, deb = debiased_cg(q_b, q_bt, CgConfig(1e-14, p_max=12))
        assert deb.n_steps == 12
        for got, q in ((dir_trace, q_b), (deb, q_bt)):
            ref, ref_iterates = rebuild_magnitudes(q, dir_trace)
            assert got.magnitudes == ref.magnitudes
            got_iterates = list(got.iterates())
            assert len(got_iterates) == len(ref_iterates) == 13
            for a, b in zip(got_iterates, ref_iterates):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(got.final(), ref_iterates[-1])

    def test_traces_share_one_direction_block(self):
        q_b, q_bt = self._model_quadratic_pair()
        dir_trace, deb = debiased_cg(q_b, q_bt, CgConfig(1e-14, p_max=12))
        assert deb.directions is dir_trace.directions
        assert dir_trace.directions.shape == (q_b.dim, dir_trace.n_steps)
        assert dir_trace.directions.flags.f_contiguous

    def test_negative_curvature_on_second_batch_stops_both(self):
        h_b = np.diag([2.0, 1.0])
        h_bt = np.diag([-1.0, -1.0])
        q_b = synthetic_quadratic(h_b, np.array([1.0, 1.0]))
        q_bt = synthetic_quadratic(h_bt, np.array([1.0, 1.0]))
        dir_trace, deb = debiased_cg(q_b, q_bt, CgConfig(epsilon=1e-14, p_max=2))
        assert deb.termination == "negative_curvature"
        assert dir_trace.termination == "negative_curvature"
        assert deb.n_steps == 0

    def test_inf_magnitude_curvature_raises_naming_the_iteration(self):
        # left unchecked, an inf magnitude-batch curvature yields NaN
        # debiased iterates labelled tolerance
        q_b = synthetic_quadratic(np.diag([1.0, 2.0, 3.0]), np.ones(3))
        q_bt = synthetic_quadratic(np.diag([np.inf, 1.0, 1.0]), np.ones(3))
        with pytest.raises(NumericalError, match="iteration 0"):
            debiased_cg(q_b, q_bt, CgConfig(epsilon=1e-12, p_max=3))

    def test_mismatched_anchor_rejected(self):
        q_b = synthetic_quadratic(np.eye(3), np.ones(3))
        q_bt = synthetic_quadratic(
            np.eye(3), np.ones(3), theta0=ParamVector.from_values(np.ones(3))
        )
        for pair in ((q_b, q_bt), (q_bt, q_b)):
            with pytest.raises(ValidationError, match="quadratics must share the anchor point"):
                debiased_cg(*pair, CgConfig())

    def test_dimension_mismatch_rejected(self):
        q_b = synthetic_quadratic(np.eye(3), np.ones(3))
        q_bt = synthetic_quadratic(np.eye(4), np.ones(4))
        for pair in ((q_b, q_bt), (q_bt, q_b)):
            with pytest.raises(ValidationError, match="quadratics must share the anchor point"):
                debiased_cg(*pair, CgConfig())
