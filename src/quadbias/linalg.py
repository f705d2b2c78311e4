"""Dense symmetric eigensolvers, a matrix-free top-k eigensolver, Kronecker
utilities, and seeded random number generation.

All arithmetic is 64-bit floating point throughout. Eigendecompositions follow
a fixed deterministic convention: eigenvalues in descending order, columns
unit-norm, and in each column the first entry with absolute value > 1e-12 is
positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError, ValidationError

# Symmetry tolerance for DenseSymMatrix inputs.
SYMMETRY_TOL = 1e-12

# Problems up to this dimension are solved by materializing the operator and
# calling the dense eigensolver; larger ones use the iterative Krylov path.
DENSE_FALLBACK_DIM = 512

# Relative tolerance handed to the iterative eigensolver (0 = machine precision,
# the scipy/ARPACK convention).
ITERATIVE_TOL = 0.0


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

    ALGORITHM = "philox-4x64"

    def __init__(self, seed: int, stream: int = 0):
        if seed < 0 or seed >= 2**64:
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def split(self, stream: int) -> "Rng":
        """Independent child stream; deterministic in (seed, parent, stream)."""
        return Rng(self.seed, _mix64(self.stream, stream))

    def normal(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValidationError(f"n must be >= 0, got {n}")
        return self._gen.standard_normal(n)

    def uniform(self, n: int) -> np.ndarray:
        return self._gen.random(n)

    def integers(self, low: int, high: int, n: int) -> np.ndarray:
        return self._gen.integers(low, high, size=n)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the generator state."""
        raw = self._gen.bit_generator.state
        return {
            "algorithm": self.ALGORITHM,
            "seed": self.seed,
            "stream": self.stream,
            "counter": [int(x) for x in raw["state"]["counter"]],
            "key": [int(x) for x in raw["state"]["key"]],
            "buffer": [int(x) for x in raw["buffer"]],
            "buffer_pos": int(raw["buffer_pos"]),
            "has_uint32": int(raw["has_uint32"]),
            "uinteger": int(raw["uinteger"]),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "Rng":
        rng = cls(state["seed"], state["stream"])
        rng._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.array(state["counter"], dtype=np.uint64),
                "key": np.array(state["key"], dtype=np.uint64),
            },
            "buffer": np.array(state["buffer"], dtype=np.uint64),
            "buffer_pos": state["buffer_pos"],
            "has_uint32": state["has_uint32"],
            "uinteger": state["uinteger"],
        }
        return rng


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
    """Flip columns so the first entry with |x| > 1e-12 is positive."""
    out = basis.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            out[:, j] = -col
    return out


def sym_eigh(m: DenseSymMatrix | np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix, descending order.

    A non-finite entry raises NumericalError naming the first one, before
    LAPACK sees the matrix.
    """
    if not isinstance(m, DenseSymMatrix):
        m = DenseSymMatrix(np.asarray(m, dtype=np.float64))
    if not np.isfinite(m.entries).all():
        i, j = np.argwhere(~np.isfinite(m.entries))[0]
        raise NumericalError(
            f"sym_eigh: non-finite entry M[{i},{j}] = {m.entries[i, j]}"
        )
    w, v = np.linalg.eigh(m.entries)
    order = np.argsort(w)[::-1]
    return EigenDecomposition(
        basis=_canonical_signs(v[:, order]), eigenvalues=w[order].copy()
    )


def materialize_operator(op: Callable[[np.ndarray], np.ndarray], dim: int) -> np.ndarray:
    """Apply op to the identity columns; symmetrize to absorb roundoff.

    An op with a ``matmat`` method (a CurvatureOperator) gets the identity as
    one block; a plain callable gets one column at a time.
    """
    if hasattr(op, "matmat"):
        cols = op.matmat(np.eye(dim))
    else:
        cols = np.empty((dim, dim))
        e = np.zeros(dim)
        for j in range(dim):
            e[j] = 1.0
            cols[:, j] = op(e)
            e[j] = 0.0
    return 0.5 * (cols + cols.T)


def top_k_eigenpairs(
    op: Callable[[np.ndarray], np.ndarray],
    dim: int,
    k: int,
    rng: Rng,
    maxiter: int | None = None,
) -> EigenDecomposition:
    """k algebraically largest eigenpairs of a matrix-free symmetric operator.

    For dim <= DENSE_FALLBACK_DIM the operator is materialized and solved
    densely; otherwise a seeded Lanczos/ARPACK iteration is used with
    tolerance ITERATIVE_TOL and the given iteration budget.
    """
    if not 1 <= k <= dim:
        raise ValidationError(f"need 1 <= k <= dim, got k={k}, dim={dim}")
    if dim <= DENSE_FALLBACK_DIM or k >= dim - 1:
        full = sym_eigh(materialize_operator(op, dim))
        return EigenDecomposition(
            basis=full.basis[:, :k].copy(), eigenvalues=full.eigenvalues[:k].copy()
        )
    # Imported here, so a process that never takes this branch loads no scipy.
    import scipy.sparse.linalg

    linop = scipy.sparse.linalg.LinearOperator(
        (dim, dim), matvec=op, dtype=np.float64
    )
    v0 = rng.normal(dim)
    try:
        w, v = scipy.sparse.linalg.eigsh(
            linop, k=k, which="LA", v0=v0, tol=ITERATIVE_TOL, maxiter=maxiter
        )
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        residuals = []
        for lam, vec in zip(exc.eigenvalues, exc.eigenvectors.T):
            residuals.append(float(np.linalg.norm(op(vec) - lam * vec)))
        raise NumericalError(
            f"eigensolver did not converge for k={k}, dim={dim}; "
            f"{len(residuals)} of {k} pairs converged",
            residual_norms=residuals,
        ) from exc
    order = np.argsort(w)[::-1]
    return EigenDecomposition(
        basis=_canonical_signs(v[:, order]), eigenvalues=w[order].copy()
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
    m = u_a.shape[1]
    n = u_b.shape[1]
    if u_a.ndim != 2 or u_b.ndim != 2:
        raise ValidationError("factors must be 2-d arrays")
    if w.ndim not in (1, 2) or w.shape[0] != m * n:
        raise ValidationError(
            f"vector length {w.shape} does not match factor dims {m}*{n}"
        )
    cols = w.reshape(m * n, -1)  # a vector is one column
    k = cols.shape[1]
    w_mats = cols.T.reshape(k, m, n)  # row-major views of the column-stacked n x m Ws
    return (u_a @ w_mats @ u_b.T).reshape(k, m * n).T.reshape(w.shape)


def haar_orthogonal(rng: Rng, n: int) -> np.ndarray:
    """Haar-distributed random orthogonal matrix (QR with sign fix)."""
    g = rng.normal(n * n).reshape(n, n)
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def random_symmetric(rng: Rng, n: int, scale: float = 1.0) -> np.ndarray:
    """Seeded random symmetric matrix (for tests and oracles)."""
    g = rng.normal(n * n).reshape(n, n) * scale
    return 0.5 * (g + g.T)


def random_spd(rng: Rng, n: int, cond: float = 10.0) -> np.ndarray:
    """Seeded random SPD matrix with spectrum in [1, cond]."""
    q = haar_orthogonal(rng, n)
    lam = 1.0 + (cond - 1.0) * rng.uniform(n)
    return (q * lam) @ q.T
