"""Cold start: the package imports on numpy alone, and scipy's ARPACK is
loaded by the first iterative eigensolve."""

import os
import subprocess
import sys
from pathlib import Path

import quadbias

SRC = str(Path(quadbias.__file__).resolve().parents[1])

SCRIPT = """
import sys
import numpy as np
import quadbias, quadbias.harness, quadbias.harness.cli
from quadbias.linalg import DENSE_FALLBACK_DIM, Rng, top_k_eigenpairs
from quadbias.quadratic import CurvatureOperator

def loaded():
    return sorted(m for m in ("scipy.stats", "scipy.sparse.linalg") if m in sys.modules)

print(loaded())
top_k_eigenpairs(CurvatureOperator.from_dense(2.0 * np.eye(DENSE_FALLBACK_DIM)),
                 DENSE_FALLBACK_DIM, 2, Rng(0))
print(loaded())
d = np.linspace(1.0, 2.0, DENSE_FALLBACK_DIM + 1)
top_k_eigenpairs(CurvatureOperator.from_dense(np.diag(d)), DENSE_FALLBACK_DIM + 1, 2, Rng(0))
print(loaded())
"""


def test_scipy_is_loaded_only_by_the_iterative_eigensolver():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env
    )
    assert res.returncode == 0, res.stderr
    after_import, after_dense, after_arpack = res.stdout.splitlines()
    assert after_import == "[]"
    assert after_dense == "[]"
    assert after_arpack == "['scipy.sparse.linalg']"
