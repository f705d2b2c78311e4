"""Dense symmetric eigensolvers, a matrix-free top-k eigensolver, Kronecker
utilities, and seeded random number generation.

All arithmetic is 64-bit floating point throughout. Eigendecompositions follow
a fixed deterministic convention: eigenvalues in descending order, columns
unit-norm, and in each column the first entry with absolute value > 1e-12 is
positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import SEEDS, NumericalError, ValidationError, check_counts, is_seed, require_finite

if TYPE_CHECKING:  # quadratic imports this module
    from .quadratic import CurvatureOperator

# Symmetry tolerance for DenseSymMatrix inputs.
SYMMETRY_TOL = 1e-12

# Problems up to this dimension are solved by materializing the operator and
# calling the dense eigensolver; larger ones use the iterative Krylov path.
DENSE_FALLBACK_DIM = 512


def _mix64(a: int, b: int) -> int:
    """splitmix64-style mixing of two 64-bit words into one."""
    x = (a * 0x9E3779B97F4A7C15 + b + 1) % 2**64
    x ^= x >> 30
    x = x * 0xBF58476D1CE4E5B9 % 2**64
    x ^= x >> 27
    x = x * 0x94D049BB133111EB % 2**64
    x ^= x >> 31
    return x


class Rng:
    """Seeded random stream backed by the Philox counter-based generator.

    The same seed yields the same stream on every platform. Instances are not
    shared across threads; derive independent child streams with :meth:`split`.
    """

    def __init__(self, seed: int, stream: int = 0):
        if not is_seed(seed):
            raise ValidationError(f"seed must be {SEEDS}, got {seed!r}")
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def split(self, stream: int) -> "Rng":
        """Independent child stream; deterministic in (seed, parent, stream)."""
        return Rng(self.seed, _mix64(self.stream, stream))

    def normal(self, n: int) -> np.ndarray:
        check_counts(0, n=n)
        return self._gen.standard_normal(n)

    def uniform(self, n: int) -> np.ndarray:
        return self._gen.random(n)

    def integers(self, low: int, high: int, n: int) -> np.ndarray:
        return self._gen.integers(low, high, size=n)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


@dataclass(frozen=True)
class DenseSymMatrix:
    """Explicit symmetric matrix used for oracle checks and K-FAC factors."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"expected a square matrix, got shape {m.shape}")
        check_symmetric(m)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def check_symmetric(m: np.ndarray, tol: float = SYMMETRY_TOL) -> None:
    """Raise ValidationError naming the worst (i, j) pair if m is not symmetric.

    Pairs whose difference is NaN (a NaN entry, or inf against inf) are not
    compared here: ``sym_eigh`` rejects every non-finite entry by name.
    """
    with np.errstate(invalid="ignore"):  # inf - inf and inf / inf give NaN
        diff = np.abs(m - m.T)
        rel = diff / np.maximum(1.0, np.abs(m))
    rel[np.isnan(rel)] = 0.0
    worst = np.unravel_index(np.argmax(rel), rel.shape)
    if rel[worst] > tol:
        i, j = int(worst[0]), int(worst[1])
        raise ValidationError(
            f"matrix is not symmetric: |M[{i},{j}] - M[{j},{i}]| = {diff[i, j]:.3e} "
            f"exceeds {tol:.0e} * max(1, |M[{i},{j}]|)"
        )


@dataclass(frozen=True)
class EigenDecomposition:
    """Column-orthonormal basis with eigenvalues in descending order.

    Sign convention: in each column, the first entry with absolute value
    > 1e-12 is positive. Ties in eigenvalues keep the solver's ordering.
    """

    basis: np.ndarray
    eigenvalues: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def k(self) -> int:
        return self.basis.shape[1]


def _canonical_signs(basis: np.ndarray) -> np.ndarray:
    """Flip columns so the first entry with |x| > 1e-12 is positive; a
    column with no such entry is left as it is."""
    big = np.abs(basis) > 1e-12
    first = big.argmax(axis=0), np.arange(basis.shape[1])  # row 0 when none is big
    out = basis.copy()  # C order, whatever the order of basis
    out[:, big[first] & (basis[first] < 0)] *= -1.0
    return out


def sym_eigh(m: DenseSymMatrix | np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix, descending order.

    A non-finite entry raises NumericalError naming the first one, before
    LAPACK sees the matrix.
    """
    if not isinstance(m, DenseSymMatrix):
        m = DenseSymMatrix(np.asarray(m, dtype=np.float64))
    require_finite("sym_eigh", entry=m.entries)
    w, v = np.linalg.eigh(m.entries)
    order = np.argsort(w)[::-1]
    return EigenDecomposition(
        basis=_canonical_signs(v[:, order]), eigenvalues=w[order].copy()
    )


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def materialize_operator(op: CurvatureOperator, dim: int) -> np.ndarray:
    """Apply op to the identity as one block; symmetrize to absorb roundoff."""
    return _sym(op.matmat(np.eye(dim)))


def top_k_eigenpairs(
    op: CurvatureOperator,
    dim: int,
    k: int,
    rng: Rng,
    maxiter: int | None = None,
) -> EigenDecomposition:
    """k algebraically largest eigenpairs of a matrix-free symmetric operator.

    For dim <= DENSE_FALLBACK_DIM the operator is materialized with one
    ``matmat`` and solved densely; otherwise a seeded thick-restart Lanczos
    iteration calls it one vector at a time, with at most ``maxiter``
    restarts (10 * dim by default). A non-finite product, or no convergence
    within ``maxiter``, raises NumericalError. The Lanczos path can undercount
    an exactly repeated top eigenvalue without error: for
    ``diag(repeat([4, 3, 2, 1], 150))`` and k = 6 it returns [4, 4, 4, 4, 4, 3].
    """
    maxiter = 10 * dim if maxiter is None else maxiter
    check_counts(k=k, maxiter=maxiter)
    if k > dim:
        raise ValidationError(f"need k <= dim, got k={k}, dim={dim}")
    if dim <= DENSE_FALLBACK_DIM or k >= dim - 1:
        full = sym_eigh(materialize_operator(op, dim))
        return EigenDecomposition(
            basis=full.basis[:, :k].copy(), eigenvalues=full.eigenvalues[:k].copy()
        )
    w, v = _lanczos(op, dim, k, rng, maxiter)
    return EigenDecomposition(basis=_canonical_signs(v), eigenvalues=w)


def _gram_schmidt(w: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w without its components along the orthonormal rows, by classical
    Gram-Schmidt run twice, and the coefficients taken out."""
    h = rows @ w
    w = w - h @ rows
    h2 = rows @ w
    return w - h2 @ rows, h + h2


def _lanczos(op, dim: int, k: int, rng: Rng, maxiter: int) -> tuple[np.ndarray, np.ndarray]:
    """Thick-restart Lanczos (Wu and Simon, SIAM J. Matrix Anal. Appl. 2000):
    the k largest eigenvalues, descending, and their vectors as columns.

    It keeps scipy's ARPACK defaults: a basis of ncv = min(dim, max(2k + 1,
    20)) vectors grown from ``rng.normal(dim)`` and reorthogonalized in full
    at every step; a restart keeps the top k + (ncv - k) // 2 Ritz pairs and
    the residual's direction. A Ritz pair has converged when its residual is
    at most eps * max(eps**(2/3), |theta|), ARPACK's test at tol = 0. A
    residual at most eps times what was taken out of it marks an invariant
    subspace: the basis goes on from a fresh ``rng`` vector orthogonal to it.
    """
    eps = np.finfo(np.float64).eps
    ncv = min(dim, max(2 * k + 1, 20))
    keep = k + (ncv - k) // 2
    basis = np.empty((ncv + 1, dim))  # rows; the last is the residual's direction
    t = np.zeros((ncv + 1, ncv + 1))  # the projected operator, and a spare row
    basis[0] = (v0 := rng.normal(dim)) / np.linalg.norm(v0)
    j = steps = 0
    for _ in range(maxiter):
        for j in range(j, ncv):
            w = op(basis[j])
            steps += 1
            require_finite(f"Lanczos eigensolver at step {steps}", product=w)
            w, h = _gram_schmidt(w, basis[: j + 1])
            beta = np.linalg.norm(w)
            if beta <= eps * np.linalg.norm(h):
                beta = 0.0
                w = _gram_schmidt(rng.normal(dim), basis[: j + 1])[0]
            basis[j + 1] = w / np.linalg.norm(w)
            t[j, j] = h[j]
            t[j, j + 1] = t[j + 1, j] = beta
        theta, s = np.linalg.eigh(t[:ncv, :ncv])  # ascending
        bounds = beta * np.abs(s[-1])
        converged = bounds[-k:] <= eps * np.maximum(eps ** (2 / 3), np.abs(theta[-k:]))
        if converged.all():
            return theta[::-1][:k].copy(), basis[:ncv].T @ s[:, ::-1][:, :k]
        basis[:keep] = s[:, -keep:].T @ basis[:ncv]
        basis[keep] = basis[ncv]
        t[:] = 0.0
        t[range(keep), range(keep)] = theta[-keep:]
        t[keep, :keep] = t[:keep, keep] = beta * s[-1, -keep:]
        j = keep
    raise NumericalError(
        f"Lanczos eigensolver did not converge in {maxiter} restarts for k={k}, "
        f"dim={dim}; {int(converged.sum())} of {k} pairs converged",
        residual_norms=bounds[::-1][:k].tolist(),
    )


def kron_matvec(u_a: np.ndarray, u_b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Apply the Kronecker product (u_a otimes u_b) to a vector of length m*n,
    or to every column of an (m*n, k) block.

    The vec convention is fixed: w is the column-stacking of the n x m matrix
    W, equivalently the row-major flattening of its m x n transpose. With that
    convention (u_a otimes u_b) w = vec(u_b W u_a^T), so the product costs two
    small matrix multiplications instead of forming the (m n) x (m n) matrix.
    """
    u_a = np.asarray(u_a, dtype=np.float64)
    u_b = np.asarray(u_b, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if u_a.ndim != 2 or u_b.ndim != 2:
        raise ValidationError("factors must be 2-d arrays")
    m = u_a.shape[1]
    n = u_b.shape[1]
    if w.ndim not in (1, 2) or w.shape[0] != m * n:
        raise ValidationError(
            f"vector length {w.shape} does not match factor dims {m}*{n}"
        )
    cols = w.reshape(m * n, -1)  # a vector is one column
    k = cols.shape[1]
    w_mats = cols.T.reshape(k, m, n)  # row-major views of the column-stacked n x m Ws
    return (u_a @ w_mats @ u_b.T).reshape(k, m * n).T.reshape(w.shape)
