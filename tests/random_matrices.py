"""Seeded random matrices for tests and oracles."""

import numpy as np

from quadbias.linalg import Rng


def haar_orthogonal(rng: Rng, n: int) -> np.ndarray:
    """Haar-distributed random orthogonal matrix (QR with sign fix)."""
    g = rng.normal(n * n).reshape(n, n)
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def random_symmetric(rng: Rng, n: int, scale: float = 1.0) -> np.ndarray:
    """Seeded random symmetric matrix."""
    g = rng.normal(n * n).reshape(n, n) * scale
    return 0.5 * (g + g.T)


def random_spd(rng: Rng, n: int, cond: float = 10.0) -> np.ndarray:
    """Seeded random SPD matrix with spectrum in [1, cond]."""
    q = haar_orthogonal(rng, n)
    lam = 1.0 + (cond - 1.0) * rng.uniform(n)
    return (q * lam) @ q.T
