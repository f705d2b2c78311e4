"""Eigensolvers, Kronecker utilities, and the seeded generator."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadbias import Mlp, MlpArchitecture, linalg
from quadbias.errors import NumericalError, ValidationError
from quadbias.harness import train
from quadbias.linalg import (
    DENSE_FALLBACK_DIM,
    DenseSymMatrix,
    EigenDecomposition,
    Rng,
    _canonical_signs,
    kron_matvec,
    materialize_operator,
    sym_eigh,
    top_k_eigenpairs,
)
from quadbias.quadratic import CurvatureOperator, build_quadratic

from conftest import TOY_BETA, TOY_TRAIN
from random_matrices import haar_orthogonal, random_spd, random_symmetric

ITERATIVE_DIM = DENSE_FALLBACK_DIM + 88


def _canonical_signs_loop(basis: np.ndarray) -> np.ndarray:
    """The oracle for ``_canonical_signs``: one column at a time, flip it when
    its first entry with |x| > 1e-12 is negative."""
    out = basis.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            out[:, j] = -col
    return out


def arpack_top_k(m: np.ndarray, k: int, seed: int):
    """The oracle: scipy's ARPACK at tol = 0 from the start vector the
    package draws; descending eigenvalues, their vectors as columns and the
    number of matvecs it asked for."""
    import scipy.sparse.linalg

    op = CurvatureOperator.from_dense(m)
    dim = m.shape[0]
    linop = scipy.sparse.linalg.LinearOperator((dim, dim), matvec=op, dtype=np.float64)
    w, v = scipy.sparse.linalg.eigsh(linop, k=k, which="LA", v0=Rng(seed).normal(dim), tol=0)
    order = np.argsort(w)[::-1]
    return w[order], v[:, order], op.matvec_count


def decaying_spectrum():
    """A fixed curvature-like operator: a geometric spectrum over a damping
    floor, in a seeded random basis; the matrix and its spectrum."""
    lam = 10.0 * 0.95 ** np.arange(ITERATIVE_DIM) + 0.03
    q = haar_orthogonal(Rng(21), ITERATIVE_DIM)
    return (q * lam) @ q.T, lam


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

    def test_bad_seed(self):
        with pytest.raises(ValidationError):
            Rng(-1)

    def test_split_takes_a_numpy_integer_stream(self):
        np.testing.assert_array_equal(Rng(0).split(np.int64(3)).normal(4),
                                      Rng(0).split(3).normal(4))

    @pytest.mark.parametrize("stream", [1.5, True, -1, 2**64],
                             ids=["fraction", "bool", "negative", "past_64_bits"])
    def test_split_rejects_a_stream_outside_seeds(self, stream):
        # -1 would wrap to stream 0, the parent's own, and repeat its draws
        with pytest.raises(ValidationError, match="^stream must be an integer in"):
            Rng(0).split(stream)

    def test_fractional_stream_rejected_not_truncated(self):
        with pytest.raises(ValidationError, match="^stream must be an integer in"):
            Rng(0, 1.5)


class TestEigenDecomposition:
    def test_requires_orthonormal(self):
        skewed = np.eye(4)
        skewed[0, 1] = 0.5
        with pytest.raises(ValidationError, match="^eigenbasis must be orthonormal within 1e-8$"):
            EigenDecomposition(skewed, np.zeros(4))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_basis_rejected(self, value):
        basis = np.eye(3)
        basis[0, 0] = value
        with np.errstate(invalid="ignore"), pytest.raises(  # inf * 0 in D^T D
                ValidationError, match="^eigenbasis must be orthonormal"):
            EigenDecomposition(basis, np.zeros(3))


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

    def test_canonical_signs_equal_the_column_loop(self):
        basis = Rng(31).normal(6 * 9).reshape(6, 9)
        basis[:, 0] = 0.0
        basis[:, 1] = -0.0
        basis[:, 2] = [-1e-12, 1e-12, -1e-13, -0.0, -1e-15, 1e-20]  # none above 1e-12
        basis[:, 3] = [-1e-12, 0.0, 1e-12, -2.0, 1.0, 1.0]  # first big entry negative
        basis[:, 4] = [-1e-12, -1e-13, -0.0, 2.0, -1.0, -1.0]  # first big entry positive
        basis[:, 5] = [0.0, 0.0, 0.0, 0.0, 0.0, -3e-12]  # only the last entry is big
        want = _canonical_signs_loop(basis)
        got = _canonical_signs(basis)
        assert got.tobytes() == want.tobytes()  # -0.0 and 0.0 included
        flipped = [j for j in range(9) if want[:, j].tobytes() != basis[:, j].tobytes()]
        assert {3, 5} <= set(flipped) and not {0, 1, 2, 4} & set(flipped)
        # eigh's vectors reordered by a column index are in Fortran order;
        # the result keeps the loop's C order, which later products round by
        w, v = np.linalg.eigh(random_symmetric(Rng(5), 40))
        v = v[:, np.argsort(-w)]
        got, want = _canonical_signs(v), _canonical_signs_loop(v)
        assert got.tobytes() == want.tobytes() and got.strides == want.strides

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
        with pytest.raises(NumericalError, match=r"sym_eigh: non-finite entry at \[1, 2\]"):
            sym_eigh(m)

    def test_all_inf_accepted_without_warning_then_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = DenseSymMatrix(np.full((3, 3), np.inf))
            with pytest.raises(NumericalError, match=r"at \[0, 0\] = inf"):
                sym_eigh(m)


class TestTopK:
    def test_diagonal_operator(self):
        d = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        eig = top_k_eigenpairs(CurvatureOperator.from_dense(np.diag(d)), 5, 2, Rng(0))
        np.testing.assert_allclose(eig.eigenvalues, [5.0, 4.0])
        np.testing.assert_allclose(np.abs(eig.basis[:, 0]), [1, 0, 0, 0, 0], atol=1e-10)
        np.testing.assert_allclose(np.abs(eig.basis[:, 1]), [0, 1, 0, 0, 0], atol=1e-10)

    def test_rank_one(self):
        v = Rng(8).normal(6)
        v /= np.linalg.norm(v)
        eig = top_k_eigenpairs(CurvatureOperator.from_dense(np.outer(v, v)), 6, 1, Rng(0))
        np.testing.assert_allclose(eig.eigenvalues, [1.0], atol=1e-10)
        assert min(np.linalg.norm(eig.basis[:, 0] - v),
                   np.linalg.norm(eig.basis[:, 0] + v)) < 1e-8

    def test_matches_dense_on_spd(self):
        m = random_spd(Rng(3), 50)
        dense = sym_eigh(m)
        topk = top_k_eigenpairs(CurvatureOperator.from_dense(m), 50, 10, Rng(1))
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
        topk = top_k_eigenpairs(CurvatureOperator.from_dense(m), dim, 5, Rng(2))
        np.testing.assert_allclose(topk.eigenvalues, lam[:5], rtol=1e-7)

    def test_subspace_agreement_for_separated_eigenvalues(self):
        m = random_spd(Rng(9), 80)
        dense = sym_eigh(m)
        topk = top_k_eigenpairs(CurvatureOperator.from_dense(m), 80, 6, Rng(7))
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
                top_k_eigenpairs(CurvatureOperator.from_dense(m), 6, 2, Rng(0))

    def test_bad_k(self):
        with pytest.raises(ValidationError):
            top_k_eigenpairs(CurvatureOperator.from_dense(np.eye(4)), 4, 0, Rng(0))
        with pytest.raises(ValidationError):
            top_k_eigenpairs(CurvatureOperator.from_dense(np.eye(4)), 4, 5, Rng(0))
        with pytest.raises(ValidationError, match="maxiter must be >= 1, got 0"):
            top_k_eigenpairs(CurvatureOperator.from_dense(np.eye(4)), 4, 2, Rng(0), maxiter=0)

    def test_non_convergence_carries_residuals(self):
        from quadbias.errors import NumericalError

        dim = DENSE_FALLBACK_DIM + 40
        # clustered spectrum + a one-restart budget makes the Lanczos solver give up
        d = 1.0 + 1e-9 * Rng(5).uniform(dim)
        with pytest.raises(NumericalError) as excinfo:
            top_k_eigenpairs(CurvatureOperator.from_dense(np.diag(d)), dim, 6, Rng(1),
                             maxiter=1)
        assert excinfo.value.residual_norms is not None


@pytest.fixture()
def lanczos_dims(monkeypatch):
    """The dim of every ``_lanczos`` call made while the test runs."""
    dims = []
    lanczos = linalg._lanczos
    monkeypatch.setattr(linalg, "_lanczos",
                        lambda op, dim, *args: dims.append(dim) or lanczos(op, dim, *args))
    return dims


class TestDenseFallbackBoundary:
    """Every eigenproblem above DENSE_FALLBACK_DIM goes to Lanczos, checked
    against the dense solve it replaced; at or below it the solve is dense."""

    @pytest.mark.parametrize("width", [8, 16])  # P = 226 and 442, as in sweep-dense
    def test_size_sweep_ggn_takes_lanczos_and_matches_dense(self, toy_dataset, lanczos_dims,
                                                            width):
        arch = MlpArchitecture((16, width, 10), "relu", "cross_entropy")
        theta = train(arch, toy_dataset, TOY_TRAIN)[-1].params
        p = theta.n_params
        batch = toy_dataset.train_batch().rows(np.arange(32))
        op = build_quadratic(Mlp(arch), theta, batch, "ggn", TOY_BETA).curvature
        eig = top_k_eigenpairs(op, p, 10, Rng(0))
        assert lanczos_dims == [p]
        dense = sym_eigh(materialize_operator(op, p))
        np.testing.assert_allclose(eig.eigenvalues, dense.eigenvalues[:10], rtol=1e-12, atol=0)
        # sines of the principal angles: what of each basis lies outside the other
        top = dense.basis[:, :10]
        sines = np.linalg.svd(eig.basis - top @ (top.T @ eig.basis), compute_uv=False)
        assert np.arcsin(np.clip(sines, 0.0, 1.0)).max() <= 1e-8

    def test_at_the_boundary_the_solve_is_dense(self, lanczos_dims):
        d = np.linspace(1.0, 2.0, DENSE_FALLBACK_DIM)
        eig = top_k_eigenpairs(CurvatureOperator.from_dense(np.diag(d)), DENSE_FALLBACK_DIM, 2,
                               Rng(0))
        assert lanczos_dims == []
        np.testing.assert_array_equal(eig.eigenvalues, d[::-1][:2])

    def test_repeated_spectrum_at_or_below_the_boundary_is_exact(self, lanczos_dims):
        m = np.diag(np.repeat([4.0, 3.0, 2.0, 1.0], DENSE_FALLBACK_DIM // 4))
        eig = top_k_eigenpairs(CurvatureOperator.from_dense(m), m.shape[0], 6, Rng(0))
        assert lanczos_dims == []
        np.testing.assert_array_equal(eig.eigenvalues, [4.0] * 6)


class TestLanczos:
    """The iterative path: a numpy thick-restart Lanczos, checked against
    dense ``eigh`` and against scipy's ARPACK, whose defaults it keeps."""

    def test_non_finite_product_raises_before_it_enters_the_basis(self, capfd):
        op = CurvatureOperator(600, lambda v: v * np.nan)
        with pytest.raises(NumericalError, match=r"Lanczos eigensolver at step 1: non-finite"):
            top_k_eigenpairs(op, 600, 3, Rng(0))
        assert capfd.readouterr().err == ""  # LAPACK never saw a NaN

    def test_non_finite_product_names_its_step(self):
        d = np.linspace(1.0, 2.0, ITERATIVE_DIM)
        calls = []

        def product(vs):
            calls.append(1)
            out = d[:, None] * vs
            out[100] *= np.inf if len(calls) == 7 else 1.0
            return out

        with pytest.raises(NumericalError, match=r"at step 7: non-finite product"):
            top_k_eigenpairs(CurvatureOperator(ITERATIVE_DIM, product), ITERATIVE_DIM, 2, Rng(0))

    def test_invariant_subspace_goes_on_from_a_fresh_vector(self):
        # the start vector's Krylov space is 3-dimensional; the three zeros
        # asked for need vectors from outside it
        m = np.diag(np.r_[5.0, 4.0, np.zeros(598)])
        op = CurvatureOperator.from_dense(m)
        eig = top_k_eigenpairs(op, 600, 5, Rng(0))
        w_arpack, _, arpack_matvecs = arpack_top_k(m, 5, 0)
        np.testing.assert_allclose(eig.eigenvalues, [5, 4, 0, 0, 0], rtol=0, atol=5e-12)
        np.testing.assert_allclose(eig.eigenvalues, w_arpack, rtol=0, atol=5e-12)
        np.testing.assert_allclose(eig.basis.T @ eig.basis, np.eye(5), rtol=0, atol=1e-12)
        np.testing.assert_allclose(m @ eig.basis, eig.basis * eig.eigenvalues, rtol=0, atol=1e-12)
        assert op.matvec_count <= arpack_matvecs

    def test_repeated_top_eigenvalue(self):
        m = np.diag(np.repeat([3.0, 2.0, 1.0], 200))
        eig = top_k_eigenpairs(CurvatureOperator.from_dense(m), 600, 5, Rng(0))
        np.testing.assert_allclose(eig.eigenvalues, [3.0] * 5, rtol=0, atol=3e-12)
        np.testing.assert_allclose(eig.eigenvalues, arpack_top_k(m, 5, 0)[0], rtol=0, atol=3e-12)
        np.testing.assert_allclose(eig.basis.T @ eig.basis, np.eye(5), rtol=0, atol=1e-12)
        assert np.abs(eig.basis[200:]).max() <= 1e-12  # all in the eigenvalue-3 block

    @settings(max_examples=12, deadline=None)
    @given(dim=st.integers(DENSE_FALLBACK_DIM + 1, 700), k=st.integers(1, 12),
           spectrum=st.sampled_from(["spread", "indefinite", "clustered"]),
           seed=st.integers(0, 2**32 - 1))
    def test_property_matches_dense_eigh(self, dim, k, spectrum, seed):
        rng = Rng(seed)
        if spectrum == "spread":
            lam = 1.0 + 9.0 * rng.uniform(dim)
        elif spectrum == "indefinite":
            lam = rng.normal(dim)
        else:  # k + 3 eigenvalues within 1e-3 of each other, above the rest
            lam = np.concatenate([1.0 + 1e-3 * rng.uniform(k + 3),
                                  1.8 * rng.uniform(dim - k - 3) - 1.0])
        q = haar_orthogonal(rng, dim)
        m = (q * lam) @ q.T
        m = 0.5 * (m + m.T)
        scale = np.abs(lam).max()
        eig = top_k_eigenpairs(CurvatureOperator.from_dense(m), dim, k, rng)
        exact = np.linalg.eigvalsh(m)[::-1][:k]
        np.testing.assert_allclose(eig.eigenvalues, exact, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(eig.basis.T @ eig.basis, np.eye(k), rtol=0, atol=1e-12)
        residuals = np.linalg.norm(m @ eig.basis - eig.basis * eig.eigenvalues, axis=0)
        assert residuals.max() <= 1e-10 * scale

    def test_equal_rng_gives_equal_bytes(self):
        m, _ = decaying_spectrum()
        a, b = (top_k_eigenpairs(CurvatureOperator.from_dense(m), ITERATIVE_DIM, 10, Rng(4))
                for _ in range(2))
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert a.basis.tobytes() == b.basis.tobytes()

    def test_agrees_with_arpack(self):
        m, lam = decaying_spectrum()
        eig = top_k_eigenpairs(CurvatureOperator.from_dense(m), ITERATIVE_DIM, 10, Rng(0))
        w_arpack, v_arpack, _ = arpack_top_k(m, 10, 0)
        np.testing.assert_allclose(eig.eigenvalues, lam[:10], rtol=1e-14)
        np.testing.assert_allclose(eig.eigenvalues, w_arpack, rtol=1e-14)
        v_arpack *= np.sign(np.sum(v_arpack * eig.basis, axis=0))
        np.testing.assert_allclose(eig.basis, v_arpack, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k, matvecs", [(3, 47), (10, 63)])
    def test_matvec_count_is_pinned_and_at_most_arpacks(self, k, matvecs):
        # ncv = 20 either way; restarts keep 11 (k = 3) or 15 (k = 10) vectors
        m, _ = decaying_spectrum()
        op = CurvatureOperator.from_dense(m)
        top_k_eigenpairs(op, ITERATIVE_DIM, k, Rng(0))
        assert op.matvec_count == matvecs
        assert op.matvec_count <= arpack_top_k(m, k, 0)[2]


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

    @pytest.mark.parametrize("u_a, u_b", [(np.ones(2), np.eye(3)), (np.eye(2), np.ones(3))])
    def test_one_dimensional_factor_rejected(self, u_a, u_b):
        with pytest.raises(ValidationError, match="factors must be 2-d"):
            kron_matvec(u_a, u_b, np.zeros(6))

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
    out = materialize_operator(CurvatureOperator.from_dense(m), 7)
    np.testing.assert_allclose(out, m, atol=1e-13)


def test_materialize_operator_applies_one_block():
    m = random_symmetric(Rng(7), 7)
    blocks = []

    def matmat(vs):
        blocks.append(vs.shape)
        return m @ vs

    op = CurvatureOperator(7, matmat, beta=0.5)
    np.testing.assert_allclose(materialize_operator(op, 7), m + 0.5 * np.eye(7),
                               atol=1e-13)
    assert blocks == [(7, 7)]
    assert op.matvec_count == 7
