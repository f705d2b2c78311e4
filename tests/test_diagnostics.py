"""Directional scans, overlap matrices, spectral transfer, bias summaries."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadbias.cg import CgConfig
from quadbias.diagnostics import (
    DirectionSet,
    bias_summary,
    cg_direction_scan,
    eigendirection_scan,
    overlap_matrix,
    relative_errors,
    slope_bias,
    spectral_transfer,
)
from quadbias.errors import NumericalError, ValidationError
from quadbias.linalg import Rng, sym_eigh
from quadbias.model import Batch, MlpArchitecture
from quadbias.quadratic import (
    build_quadratic,
    fullbatch_quadratic,
    grad_at,
    synthetic_quadratic,
)

import scan_oracle
from conftest import small_problem
from random_matrices import haar_orthogonal, random_spd

SCAN_TOL = 256 * np.finfo(np.float64).eps


def eigen_set(basis, source=0):
    return DirectionSet(source_batch=source, directions=basis)


class TestDirectionSet:
    def test_eigen_kind_requires_orthonormal(self):
        skewed = np.eye(4)
        skewed[0, 1] = 0.5
        with pytest.raises(ValidationError):
            eigen_set(skewed)


class TestOverlapMatrix:
    def test_self_overlap_is_identity(self):
        u = haar_orthogonal(Rng(1), 6)
        om = overlap_matrix(eigen_set(u), eigen_set(u, 1))
        np.testing.assert_allclose(om.omega, np.eye(6), atol=1e-12)

    def test_permuted_columns(self):
        u = haar_orthogonal(Rng(2), 5)
        perm = [3, 0, 4, 1, 2]
        om = overlap_matrix(eigen_set(u), eigen_set(u[:, perm], 1))
        expected = np.zeros((5, 5))
        for i, p in enumerate(perm):
            expected[p, i] = 1.0
        np.testing.assert_allclose(om.omega, expected, atol=1e-12)

    def test_full_basis_rows_sum_to_one(self):
        u = haar_orthogonal(Rng(3), 12)
        v = haar_orthogonal(Rng(4), 12)
        om = overlap_matrix(eigen_set(u), eigen_set(v, 1))
        np.testing.assert_allclose(om.row_sums(), 1.0, atol=1e-10)
        assert om.omega.min() >= 0.0
        assert om.omega.max() <= 1.0 + 1e-12

    def test_truncated_rows_report_captured_mass(self):
        u = haar_orthogonal(Rng(5), 10)[:, :4]
        v = haar_orthogonal(Rng(6), 10)[:, :3]
        om = overlap_matrix(eigen_set(u), eigen_set(v, 1))
        assert om.omega.shape == (4, 3)
        assert np.all(om.row_sums() <= 1.0 + 1e-10)

    def test_grayscale_mapping(self):
        om = overlap_matrix(
            eigen_set(np.eye(3)), eigen_set(np.eye(3), 1)
        )
        gray = om.to_grayscale()
        assert gray[0, 0] == 1.0  # omega = 1 -> white
        assert gray[0, 1] == 0.0  # omega <= 1e-8 -> black

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            overlap_matrix(eigen_set(np.eye(3)), eigen_set(np.eye(4), 1))


class TestSpectralTransfer:
    def test_aligned_bases_return_spectrum(self):
        u = haar_orthogonal(Rng(7), 8)
        lam = np.sort(Rng(8).uniform(8))[::-1] + 1.0
        h = (u * lam) @ u.T
        eig = sym_eigh(h)
        om = overlap_matrix(
            eigen_set(eig.basis), eigen_set(eig.basis, 1)
        )
        pred = spectral_transfer(eig, eig, om)
        np.testing.assert_allclose(pred, eig.eigenvalues, rtol=1e-10)

    def test_matches_direct_quadratic_form(self):
        rng = Rng(9)
        h_b = random_spd(rng, 24, cond=8.0)
        h_bt = random_spd(rng, 24, cond=8.0)
        eig_b, eig_bt = sym_eigh(h_b), sym_eigh(h_bt)
        om = overlap_matrix(
            eigen_set(eig_b.basis), eigen_set(eig_bt.basis, 1)
        )
        pred = spectral_transfer(eig_b, eig_bt, om)
        for i in range(24):
            u = eig_b.basis[:, i]
            assert pred[i] == pytest.approx(float(u @ h_bt @ u), rel=1e-10)

    def test_equal_spectra_inequalities(self):
        # misaligned equal-spectra pair: prediction for u_1 bounded by lambda_1,
        # prediction for u_P bounded below by lambda_P
        rng = Rng(10)
        lam = np.sort(rng.uniform(16))[::-1] + 0.5
        u = haar_orthogonal(rng, 16)
        v = haar_orthogonal(rng, 16)
        h_bt = (v * lam) @ v.T
        eig_b = sym_eigh((u * lam) @ u.T)
        eig_bt = sym_eigh(h_bt)
        om = overlap_matrix(eigen_set(eig_b.basis), eigen_set(eig_bt.basis, 1))
        pred = spectral_transfer(eig_b, eig_bt, om)
        assert pred[0] <= lam[0] + 1e-10
        assert pred[-1] >= lam[-1] - 1e-10

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 32))
    def test_equal_spectra_property(self, seed, dim):
        rng = Rng(seed)
        lam = np.sort(rng.uniform(dim))[::-1]
        u = haar_orthogonal(rng, dim)
        v = haar_orthogonal(rng, dim)
        top = float(u[:, 0] @ ((v * lam) @ v.T) @ u[:, 0])
        bottom = float(u[:, -1] @ ((v * lam) @ v.T) @ u[:, -1])
        assert top <= lam[0] + 1e-10
        assert bottom >= lam[-1] - 1e-10


class TestSlopeBias:
    def test_self_pair(self):
        q, _, _ = _spd_pair(seed=11)
        theta = np.zeros(q.dim)
        info = slope_bias(q, q, theta)
        assert info.slope_b == pytest.approx(-np.linalg.norm(grad_at(q, theta)))
        assert info.slope_bt == info.slope_b
        assert info.angle == pytest.approx(0.0, abs=1e-7)

    def test_antiparallel_gradients(self):
        rng = Rng(12)
        h = random_spd(rng, 6)
        g = rng.normal(6)
        q_b = synthetic_quadratic(h, g)
        q_bt = synthetic_quadratic(h, -g)
        info = slope_bias(q_b, q_bt, np.zeros(6))
        assert info.slope_bt == pytest.approx(np.linalg.norm(g), rel=1e-12)
        assert info.angle == pytest.approx(np.pi, abs=1e-7)

    def test_equal_norm_identity(self):
        # slope_bt - slope_b = ||grad_b|| (1 - cos angle) for equal norms
        rng = Rng(13)
        h = random_spd(rng, 10)
        g_b = rng.normal(10)
        g_raw = rng.normal(10)
        g_bt = g_raw * (np.linalg.norm(g_b) / np.linalg.norm(g_raw))
        info = slope_bias(
            synthetic_quadratic(h, g_b), synthetic_quadratic(h, g_bt), np.zeros(10)
        )
        expected_gap = np.linalg.norm(g_b) * (1.0 - np.cos(info.angle))
        assert info.slope_bt - info.slope_b == pytest.approx(expected_gap, rel=1e-10)

    def test_exact_projection_identity(self):
        rng = Rng(14)
        h = random_spd(rng, 7)
        g_b, g_bt = rng.normal(7), rng.normal(7)
        info = slope_bias(
            synthetic_quadratic(h, g_b), synthetic_quadratic(h, g_bt), np.zeros(7)
        )
        assert info.slope_bt == pytest.approx(
            -float(g_b @ g_bt) / np.linalg.norm(g_b), rel=1e-12
        )

    def test_zero_gradient_rejected(self):
        q = synthetic_quadratic(np.eye(3), np.zeros(3))
        with pytest.raises(ValidationError):
            slope_bias(q, q, np.zeros(3))


def _spd_pair(seed):
    rng = Rng(seed)
    h = random_spd(rng, 8)
    g = rng.normal(8)
    return synthetic_quadratic(h, g), h, g


class TestEigendirectionScan:
    def _setup(self):
        mlp, p, data = small_problem(seed=70, n=32)
        return mlp, p, data, [np.arange(i, i + 8) for i in range(0, 32, 8)]

    def test_same_batch_curvature_equals_eigenvalues(self):
        mlp, p, data, parts = self._setup()
        dsets, reports = eigendirection_scan(
            mlp, p, data, parts, k=3, kind="ggn", beta=0.05, rng=Rng(0)
        )
        for dset, rep in zip(dsets, reports):
            col = rep.source_column()
            np.testing.assert_allclose(
                rep.curvatures[:, col], dset.eigenvalues, rtol=1e-10
            )

    @pytest.mark.parametrize("kind", ["ggn", "hessian", "kfac"])
    def test_batch_mean_equals_fullbatch_row(self, kind):
        # the parts partition the data, so every row mean is the mean of
        # the batch means; K-FAC curvatures average factors, not rows
        mlp, p, data, parts = self._setup()
        _, reports = eigendirection_scan(
            mlp, p, data, parts, k=3, kind=kind, beta=0.05, rng=Rng(0),
            chunk_size=8,
        )
        for rep in reports:
            np.testing.assert_allclose(
                rep.slopes[:, :-1].mean(axis=1), rep.slopes[:, -1], rtol=1e-10, atol=1e-14
            )
            if kind != "kfac":
                np.testing.assert_allclose(
                    rep.curvatures[:, :-1].mean(axis=1), rep.curvatures[:, -1], rtol=1e-10
                )

    def test_source_indices_subset(self):
        mlp, p, data, parts = self._setup()
        dsets, reports = eigendirection_scan(
            mlp, p, data, parts, k=2, kind="ggn", beta=0.05, rng=Rng(0),
            source_indices=[1, 3],
        )
        assert [r.source_batch for r in reports] == [1, 3]
        assert len(dsets) == 2

    @pytest.mark.parametrize("kind", ["hessian", "ggn", "kfac"])
    def test_all_curvature_kinds(self, kind):
        # the eigenvalue-as-curvature identity holds whatever the proxy
        mlp, p, data, parts = self._setup()
        dsets, reports = eigendirection_scan(
            mlp, p, data, parts[:2], k=2, kind=kind, beta=0.05, rng=Rng(0),
            source_indices=[0], fisher_mode="mc_sample",
        )
        rep = reports[0]
        col = rep.source_column()
        np.testing.assert_allclose(
            rep.curvatures[:, col], dsets[0].eigenvalues, rtol=1e-9
        )

    @pytest.mark.parametrize("part,problem", [
        (np.arange(28, 36), r"\[0, 32\)"),  # past the last row
        ([8, -1, 10], r"\[0, 32\)"),  # negative, which numpy would read from the end
        ([8.0, 9.5], "whole numbers"),
        ([], "one or more"),
        (np.arange(32) < 8, "bool array"),  # a row mask, not positions 1 and 0
    ], ids=["past_the_end", "negative", "fraction", "empty", "bool"])
    def test_parts_must_be_row_positions_of_data(self, part, problem):
        mlp, p, data, parts = self._setup()
        parts[1] = part
        with pytest.raises(ValidationError, match=f"^part 1 .*{problem}"):
            eigendirection_scan(mlp, p, data, parts, k=2, kind="ggn", rng=Rng(0),
                                source_indices=[0])

    def test_k_above_the_parameter_count_rejected(self):
        mlp, p, data, parts = self._setup()
        with pytest.raises(ValidationError, match="k <= dim"):
            eigendirection_scan(mlp, p, data, parts, k=p.n_params + 1, kind="ggn",
                                rng=Rng(0), source_indices=[0])

    @pytest.mark.parametrize("kind", ["ggn", "hessian"])
    def test_empty_data_rejected(self, kind):
        # empty data holds no row, so no part can name one
        mlp, p, data, parts = self._setup()
        empty = Batch(data.inputs[:0], data.targets[:0])
        with pytest.raises(ValidationError, match=r"^part 0 .*\[0, 0\)"):
            eigendirection_scan(mlp, p, empty, parts, k=2, kind=kind, rng=Rng(0),
                                source_indices=[0])

    def test_non_finite_row_term_raises_naming_the_scan(self):
        # the bad row is in no source part, so the source quadratics build
        mlp, p, data, parts = self._setup()
        inputs = data.inputs.copy()
        inputs[30, 0] = np.inf
        data = Batch(inputs, data.targets)
        with np.errstate(all="ignore"), pytest.raises(
                NumericalError, match="eigendirection_scan: non-finite row_term"):
            eigendirection_scan(mlp, p, data, parts, k=2, kind="ggn", rng=Rng(0),
                                source_indices=[0])


class TestRowScanAgainstPerBatchOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["ggn", "hessian", "kfac"]),
        fisher_mode=st.sampled_from(["mc_sample", "empirical"]),
        hidden=st.sampled_from([(), (8,), (6, 5)]),
        activation=st.sampled_from(["relu", "tanh", "identity"]),
        loss=st.sampled_from(["cross_entropy", "mse"]),
        part_sizes=st.lists(st.integers(1, 7), min_size=1, max_size=5),
        spare_rows=st.integers(0, 5),
        chunk_size=st.integers(1, 40),
        n_src=st.integers(1, 3),
        k=st.integers(1, 4),
        beta=st.floats(0.01, 0.5),
        delta=st.floats(0.001, 0.1),
        seed=st.integers(0, 2**16),
    )
    @example(kind="ggn", fisher_mode="mc_sample", hidden=(8,), activation="relu",
             loss="cross_entropy", part_sizes=[4, 1, 6], spare_rows=2, chunk_size=5,
             n_src=2, k=3, beta=0.05, delta=0.01, seed=0)
    @example(kind="hessian", fisher_mode="mc_sample", hidden=(8,), activation="tanh",
             loss="cross_entropy", part_sizes=[4, 1, 6], spare_rows=2, chunk_size=5,
             n_src=2, k=3, beta=0.05, delta=0.01, seed=0)
    @example(kind="kfac", fisher_mode="mc_sample", hidden=(6, 5), activation="tanh",
             loss="mse", part_sizes=[4, 1, 6], spare_rows=2, chunk_size=5,
             n_src=2, k=3, beta=0.05, delta=0.01, seed=0)
    def test_row_scan_equals_per_batch_oracle(self, kind, fisher_mode, hidden, activation,
                                              loss, part_sizes, spare_rows,
                                              chunk_size, n_src, k, beta, delta, seed):
        # parts of ragged sizes take shuffled rows (some rows in no part), and
        # the chunk size rarely divides the rows; tanh has act'' != 0, which
        # the Hessian rows read
        arch = MlpArchitecture((5, *hidden, 4), activation, loss)
        n_batches = len(part_sizes)
        mlp, p, data = small_problem(seed=seed, n=sum(part_sizes) + spare_rows, arch=arch)
        rng = Rng(seed + 1)
        rows = rng.permutation(data.size)
        parts = np.split(rows[: sum(part_sizes)], np.cumsum(part_sizes)[:-1])
        batches = [Batch(data.inputs[pos], data.targets[pos]) for pos in parts]
        sources = [int(m) for m in rng.permutation(n_batches)[: min(n_src, n_batches)]]
        dsets, reports = eigendirection_scan(
            mlp, p, data, parts, k=k, kind=kind, beta=beta, delta=delta,
            rng=Rng(seed), chunk_size=chunk_size, source_indices=sources,
            fisher_mode=fisher_mode,
        )
        assert [r.source_batch for r in reports] == sources
        for dset, rep in zip(dsets, reports):
            # the K-FAC streams of the scan, fresh for each source: batch i
            # on split(10_000 + i), the full batch on split(20_000)
            slopes, curvs, full_s, full_c = scan_oracle.per_batch_scores(
                mlp, p, batches, data, dset.directions, kind, beta, delta, chunk_size,
                fisher_mode, [Rng(seed).split(10_000 + i) for i in range(n_batches)],
                Rng(seed).split(20_000))
            for got, want in (
                (rep.slopes, np.column_stack([slopes, full_s])),
                (rep.curvatures, np.column_stack([curvs, full_c])),
            ):
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(got - want)) <= SCAN_TOL * scale


class TestCgDirectionScan:
    def _setup(self):
        mlp, p, data = small_problem(seed=71, n=32)
        batches = [
            Batch(data.inputs[i : i + 8], data.targets[i : i + 8])
            for i in range(0, 32, 8)
        ]
        quads = [
            build_quadratic(mlp, p, b, "ggn", beta=0.05, batch_id=i)
            for i, b in enumerate(batches)
        ]
        q_full = fullbatch_quadratic(mlp, p, data, "ggn", beta=0.05, chunk_size=8)
        return quads, q_full

    def test_same_batch_columns(self):
        quads, q_full = self._setup()
        trace, rep = cg_direction_scan(quads[0], quads, q_full, CgConfig(p_max=6))
        col = rep.batch_ids.index(quads[0].batch_id)
        magnitudes = -rep.slopes[:, col] / rep.curvatures[:, col]
        assert np.all(rep.slopes[:, col] <= 1e-12)
        assert np.all(magnitudes > 0.0)
        np.testing.assert_allclose(magnitudes, trace.magnitudes, rtol=1e-10)

    def test_cross_batch_matches_independent_recomputation(self):
        quads, q_full = self._setup()
        trace, rep = cg_direction_scan(quads[0], quads, q_full, CgConfig(p_max=5))
        assert rep.k == 5
        assert rep.slopes.shape == rep.curvatures.shape == (5, len(quads) + 1)
        # the full-batch quadratic is the last column
        columns = [(q, rep.slopes[:, j], rep.curvatures[:, j],
                    -rep.slopes[:, j] / rep.curvatures[:, j])
                   for j, q in enumerate([*quads, q_full])]
        iterates = list(trace.iterates())
        for q, slopes, curvs, mags in columns:
            for p_i in range(rep.k):
                # the per-vector oracle: one product and one dot per number
                d = trace.directions[:, p_i]
                slope = float(d @ (q.curvature.matvec(iterates[p_i] - q.theta0.values)
                                   + q.gradient))
                curv = float(d @ q.curvature.matvec(d))
                assert slopes[p_i] == pytest.approx(slope, rel=1e-12, abs=1e-14)
                assert curvs[p_i] == pytest.approx(curv, rel=1e-12)
                assert mags[p_i] == pytest.approx(-slope / curv, rel=1e-12, abs=1e-14)

    def test_one_matvec_per_direction_per_quadratic(self):
        quads, q_full = self._setup()
        before = [q.curvature.matvec_count for q in [*quads, q_full]]
        trace, rep = cg_direction_scan(quads[0], quads, q_full, CgConfig(p_max=5))
        after = [q.curvature.matvec_count for q in [*quads, q_full]]
        n = rep.k
        # one gram of the n directions per quadratic; quads[0] also runs
        # the CG itself, one matvec per direction
        assert [a - b for a, b in zip(after, before)] == (
            [2 * n] + [n] * (len(quads) - 1) + [n])

    def test_quadratics_must_share_the_anchor(self):
        quads, q_full = self._setup()
        moved = synthetic_quadratic(np.eye(q_full.dim), q_full.gradient,
                                    theta0=q_full.theta0.with_values(q_full.theta0.values + 1.0))
        with pytest.raises(ValidationError, match="anchor"):
            cg_direction_scan(quads[0], quads, moved, CgConfig(p_max=2))

    def test_negative_curvature_truncates_and_flags(self):
        h = np.diag([1.0, -1.0, 2.0])
        q_bad = synthetic_quadratic(h, np.array([1.0, 1.0, 1.0]), batch_id=0)
        q_full = synthetic_quadratic(np.eye(3), np.ones(3), batch_id="FULL")
        trace, rep = cg_direction_scan(q_bad, [q_bad], q_full, CgConfig(p_max=3))
        assert trace.termination == "negative_curvature"
        assert rep.k == trace.n_steps

    def test_stop_on_the_first_direction_gives_an_empty_scan(self):
        # d_0 = -g/|g| = -e_0 has curvature -1, so CG takes no step
        q_bad = synthetic_quadratic(np.diag([-1.0, 2.0]), np.array([1.0, 0.0]), batch_id=0)
        q_other = synthetic_quadratic(np.eye(2), np.ones(2), batch_id=1)
        q_full = synthetic_quadratic(np.eye(2), np.ones(2), batch_id="FULL")
        trace, rep = cg_direction_scan(q_bad, [q_bad, q_other], q_full, CgConfig(p_max=3))
        assert trace.n_steps == 0
        assert trace.termination == "negative_curvature"
        for arr in (rep.slopes, rep.curvatures):
            assert arr.shape == (0, 3)
        assert rep.batch_ids == [0, 1]

    def test_step_cap_is_the_configs_p_max(self):
        q = synthetic_quadratic(random_spd(Rng(5), 6), np.ones(6), batch_id=0)
        trace, rep = cg_direction_scan(q, [q], q, CgConfig(p_max=1))
        assert trace.n_steps == rep.k == 1
        assert trace.termination == "max_iter"
        # the cap binds: without it CG takes more than one step here
        assert cg_direction_scan(q, [q], q, CgConfig(p_max=4))[0].n_steps > 1


class TestBiasSummary:
    def test_no_subsampling_gives_zero_errors(self):
        mlp, p, data = small_problem(seed=72, n=16)
        _, reports = eigendirection_scan(
            mlp, p, data, [np.arange(data.size)], k=3, kind="ggn", beta=0.05, rng=Rng(0),
            chunk_size=16,
        )
        summ = bias_summary(reports, "curvature")[0]
        np.testing.assert_allclose(summ.relative_errors, 0.0, atol=1e-12)

    def test_hand_arithmetic(self):
        errs, n_excl = relative_errors(np.array([1.0, 2.0, 4.0]), np.ones(3))
        np.testing.assert_allclose(errs, [0.0, 1.0, 3.0])
        assert n_excl == 0
        assert np.median(errs) == 1.0

    def test_near_zero_truth_excluded_and_counted(self):
        errs, n_excl = relative_errors(
            np.array([1.0, 2.0]), np.array([1.0, 1e-15])
        )
        assert errs.shape == (1,)
        assert n_excl == 1

    @pytest.mark.parametrize("measured, truth", [
        ([1.0, 2.0, np.nan], [np.nan, 1.0, 1.0]),  # a NaN truth counted as near zero
        ([1.0, np.inf], [1.0, 1.0]),
        ([1.0, 1.0], [1.0, -np.inf]),
    ])
    def test_non_finite_value_raises(self, measured, truth):
        with pytest.raises(NumericalError, match="relative error: non-finite"):
            relative_errors(np.array(measured), np.array(truth))

    def test_quantity_validation(self):
        with pytest.raises(ValidationError):
            bias_summary([], "wiggliness")
