"""Eigensolvers, Kronecker utilities, and the seeded generator."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadbias.errors import NumericalError, ValidationError
from quadbias.linalg import (
    DENSE_FALLBACK_DIM,
    DenseSymMatrix,
    Rng,
    haar_orthogonal,
    kron_matvec,
    materialize_operator,
    random_spd,
    random_symmetric,
    sym_eigh,
    top_k_eigenpairs,
)


class TestRng:
    def test_empty_draw(self):
        assert Rng(0).normal(0).shape == (0,)

    def test_same_seed_same_stream(self):
        a = Rng(99).normal(10)
        b = Rng(99).normal(10)
        np.testing.assert_array_equal(a, b)

    def test_two_calls_are_distinct_but_reproducible(self):
        r = Rng(5)
        first, second = r.normal(4), r.normal(4)
        assert not np.array_equal(first, second)
        r2 = Rng(5)
        np.testing.assert_array_equal(first, r2.normal(4))
        np.testing.assert_array_equal(second, r2.normal(4))

    def test_moments_large_sample(self):
        n = 10**6
        x = Rng(7).normal(n)
        assert abs(x.mean()) < 4.0 / np.sqrt(n)
        assert abs(x.var() - 1.0) < 0.01

    def test_split_independent(self):
        r = Rng(3)
        a = r.split(0).normal(8)
        b = r.split(1).normal(8)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, Rng(3).split(0).normal(8))

    def test_state_roundtrip(self):
        r = Rng(11)
        r.normal(17)
        state = r.state_dict()
        r2 = Rng.from_state_dict(state)
        np.testing.assert_array_equal(r.normal(9), r2.normal(9))

    def test_bad_seed(self):
        with pytest.raises(ValidationError):
            Rng(-1)


class TestSymEigh:
    def test_identity(self):
        eig = sym_eigh(np.eye(3))
        np.testing.assert_allclose(eig.eigenvalues, [1, 1, 1])
        # basis is a signed permutation of identity columns
        np.testing.assert_allclose(np.abs(eig.basis) @ np.abs(eig.basis.T), np.eye(3),
                                   atol=1e-12)

    def test_diagonal_ordering_and_signs(self):
        eig = sym_eigh(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(eig.eigenvalues, [3.0, 2.0, 1.0])
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0  # e1 for eigenvalue 3
        expected[2, 1] = 1.0  # e3 for eigenvalue 2
        expected[1, 2] = 1.0  # e2 for eigenvalue 1
        np.testing.assert_allclose(eig.basis, expected, atol=1e-12)

    def test_reconstruction_random(self):
        m = random_symmetric(Rng(21), 5)
        eig = sym_eigh(m)
        rebuilt = eig.basis @ np.diag(eig.eigenvalues) @ eig.basis.T
        assert np.linalg.norm(rebuilt - m) < 1e-12

    def test_reconstruction_relative_error_dim_200(self):
        m = random_symmetric(Rng(2), 200)
        eig = sym_eigh(m)
        rebuilt = eig.basis @ np.diag(eig.eigenvalues) @ eig.basis.T
        assert np.linalg.norm(rebuilt - m) / np.linalg.norm(m) <= 1e-10

    def test_sign_convention(self):
        m = random_symmetric(Rng(4), 8)
        eig = sym_eigh(m)
        for j in range(8):
            col = eig.basis[:, j]
            nz = np.nonzero(np.abs(col) > 1e-12)[0]
            assert col[nz[0]] > 0

    def test_orthonormal_columns(self):
        eig = sym_eigh(random_symmetric(Rng(4), 12))
        gram = eig.basis.T @ eig.basis
        np.testing.assert_allclose(gram, np.eye(12), atol=1e-10)

    def test_non_symmetric_rejected_naming_pair(self):
        m = np.eye(3)
        m[0, 2] = 1e-3
        with pytest.raises(ValidationError, match=r"\[0,2\]|\[2,0\]"):
            sym_eigh(m)

    def test_asymmetry_found_beside_a_nan(self):
        m = np.eye(3)
        m[0, 2] = 1e-3
        m[1, 1] = np.nan
        with pytest.raises(ValidationError, match=r"\[0,2\]|\[2,0\]"):
            DenseSymMatrix(m)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises_naming_the_first(self, value):
        m = np.eye(4)
        m[1, 2] = m[2, 1] = value
        m[3, 3] = value
        with pytest.raises(NumericalError, match=r"non-finite entry M\[1,2\]"):
            sym_eigh(m)

    def test_all_inf_accepted_without_warning_then_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = DenseSymMatrix(np.full((3, 3), np.inf))
            with pytest.raises(NumericalError, match=r"M\[0,0\] = inf"):
                sym_eigh(m)


class TestTopK:
    def test_diagonal_operator(self):
        d = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        eig = top_k_eigenpairs(lambda v: d * v, 5, 2, Rng(0))
        np.testing.assert_allclose(eig.eigenvalues, [5.0, 4.0])
        np.testing.assert_allclose(np.abs(eig.basis[:, 0]), [1, 0, 0, 0, 0], atol=1e-10)
        np.testing.assert_allclose(np.abs(eig.basis[:, 1]), [0, 1, 0, 0, 0], atol=1e-10)

    def test_rank_one(self):
        v = Rng(8).normal(6)
        v /= np.linalg.norm(v)
        eig = top_k_eigenpairs(lambda w: v * float(v @ w), 6, 1, Rng(0))
        np.testing.assert_allclose(eig.eigenvalues, [1.0], atol=1e-10)
        assert min(np.linalg.norm(eig.basis[:, 0] - v),
                   np.linalg.norm(eig.basis[:, 0] + v)) < 1e-8

    def test_matches_dense_on_spd(self):
        m = random_spd(Rng(3), 50)
        dense = sym_eigh(m)
        topk = top_k_eigenpairs(lambda v: m @ v, 50, 10, Rng(1))
        np.testing.assert_allclose(
            topk.eigenvalues, dense.eigenvalues[:10],
            rtol=1e-8,
        )

    def test_iterative_path_matches_dense(self):
        dim = DENSE_FALLBACK_DIM + 40
        rng = Rng(12)
        q = haar_orthogonal(rng, dim)
        lam = np.sort(1.0 + 9.0 * rng.uniform(dim))[::-1]
        m = (q * lam) @ q.T
        topk = top_k_eigenpairs(lambda v: m @ v, dim, 5, Rng(2))
        np.testing.assert_allclose(topk.eigenvalues, lam[:5], rtol=1e-7)

    def test_subspace_agreement_for_separated_eigenvalues(self):
        m = random_spd(Rng(9), 80)
        dense = sym_eigh(m)
        topk = top_k_eigenpairs(lambda v: m @ v, 80, 6, Rng(7))
        # principal angles between the two top-6 subspaces
        s = np.linalg.svd(dense.basis[:, :6].T @ topk.basis, compute_uv=False)
        assert np.max(np.arccos(np.clip(s, -1, 1))) <= 1e-6

    @pytest.mark.parametrize("where", ["one NaN", "all inf"])
    def test_dense_path_rejects_a_non_finite_operator(self, where):
        m = random_spd(Rng(3), 6)
        if where == "one NaN":
            m[2, 4] = np.nan
        else:
            m[:] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # NaN in op's matmul
            with pytest.raises(NumericalError, match="non-finite entry"):
                top_k_eigenpairs(lambda v: m @ v, 6, 2, Rng(0))

    def test_bad_k(self):
        with pytest.raises(ValidationError):
            top_k_eigenpairs(lambda v: v, 4, 0, Rng(0))
        with pytest.raises(ValidationError):
            top_k_eigenpairs(lambda v: v, 4, 5, Rng(0))

    def test_non_convergence_carries_residuals(self):
        from quadbias.errors import NumericalError

        dim = DENSE_FALLBACK_DIM + 40
        # clustered spectrum + a one-iteration budget forces ARPACK to give up
        d = 1.0 + 1e-9 * Rng(5).uniform(dim)
        with pytest.raises(NumericalError) as excinfo:
            top_k_eigenpairs(lambda v: d * v, dim, 6, Rng(1), maxiter=1)
        assert excinfo.value.residual_norms is not None


class TestKronMatvec:
    def test_identity_factors(self):
        w = Rng(5).normal(6)
        np.testing.assert_array_equal(kron_matvec(np.eye(2), np.eye(3), w), w)

    def test_matches_explicit_kron(self):
        ua = Rng(1).normal(4).reshape(2, 2)
        ub = Rng(2).normal(9).reshape(3, 3)
        w = Rng(3).normal(6)
        np.testing.assert_allclose(
            kron_matvec(ua, ub, w), np.kron(ua, ub) @ w, atol=1e-12
        )

    def test_basis_vector_extracts_column(self):
        ua = Rng(4).normal(9).reshape(3, 3)
        ub = Rng(5).normal(4).reshape(2, 2)
        full = np.kron(ua, ub)
        for j in range(6):
            e = np.zeros(6)
            e[j] = 1.0
            np.testing.assert_allclose(kron_matvec(ua, ub, e), full[:, j], atol=1e-13)
        np.testing.assert_allclose(kron_matvec(ua, ub, np.eye(6)), full, atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            kron_matvec(np.eye(2), np.eye(3), np.zeros(5))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_property_all_small_dims(self, m, n, seed):
        r = Rng(seed)
        ua = r.normal(m * m).reshape(m, m)
        ub = r.normal(n * n).reshape(n, n)
        w = r.normal(m * n)
        np.testing.assert_allclose(
            kron_matvec(ua, ub, w), np.kron(ua, ub) @ w, atol=1e-12
        )


def test_materialize_operator_symmetrizes():
    m = random_symmetric(Rng(6), 7)
    out = materialize_operator(lambda v: m @ v, 7)
    np.testing.assert_allclose(out, m, atol=1e-13)


def test_materialize_operator_applies_one_block():
    from quadbias.quadratic import CurvatureOperator

    m = random_symmetric(Rng(7), 7)
    blocks = []

    def matmat(vs):
        blocks.append(vs.shape)
        return m @ vs

    def matvec(v):
        raise AssertionError("materialized one column at a time")

    op = CurvatureOperator("hessian", 7, matmat, beta=0.5)
    np.testing.assert_allclose(materialize_operator(op, 7), m + 0.5 * np.eye(7),
                               atol=1e-13)
    assert blocks == [(7, 7)]
    assert op.matvec_count == 7
