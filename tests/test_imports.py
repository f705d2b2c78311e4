"""No scipy at runtime: with every scipy import blocked, the iterative
eigensolver and every experiment kind run, and no scipy module is loaded."""

import os
import subprocess
import sys
from pathlib import Path

import quadbias

SRC = str(Path(quadbias.__file__).resolve().parents[1])

SCRIPT = """
import importlib.abc
import sys
import tempfile


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"blocked: {name}")
        return None


sys.meta_path.insert(0, BlockScipy())

import numpy as np
import quadbias.linalg as linalg
from quadbias.harness import parse_experiment_config, run_experiment
from quadbias.harness.config import EXPERIMENT_KINDS, read_config_text
from quadbias.linalg import DENSE_FALLBACK_DIM, Rng, top_k_eigenpairs
from quadbias.quadratic import CurvatureOperator

solves = []
lanczos = linalg._lanczos
linalg._lanczos = lambda *args: solves.append(args[1]) or lanczos(*args)

d = np.linspace(1.0, 2.0, DENSE_FALLBACK_DIM + 1)
top_k_eigenpairs(CurvatureOperator.from_dense(np.diag(d)), DENSE_FALLBACK_DIM + 1, 2, Rng(0))
print(len(solves))

CONFIG = '''
[experiment]
kind = {kind}
curvature = ggn
beta = 0.02
batch_sizes = 32
k = 2
seeds = 0
n_source_batches = 2
chunk_size = 64
{extra}

[dataset]
generator = gaussian_blobs
n = 128
dim = 4
classes = 3
noise = 0.8
seed = 3
train_frac = 0.75
ood_translation = 3.0

[model]
layers = 4,40,12,3
activation = relu
loss = cross_entropy

[train]
lr = 0.05
momentum = 0.9
epochs = 2
batch_size = 32
beta = 0.0005
seed = 5
'''
EXTRA = {"cg-compare": "cg_iterations = 3",
         "laplace-sweep": "la_grid_points = 2\\nmc_samples = 4",
         "size-sweep": "widths = 4,8"}
with tempfile.TemporaryDirectory() as out:
    for kind in EXPERIMENT_KINDS:
        text = CONFIG.format(kind=kind, extra=EXTRA.get(kind, ""))
        run_experiment(parse_experiment_config(read_config_text(text)), f"{out}/{kind}")
        print(kind, len(solves))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_every_kind_runs_with_scipy_blocked():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env
    )
    assert res.returncode == 0, res.stderr
    *lines, loaded = res.stdout.splitlines()
    assert lines[0] == "1"  # the eigensolve above DENSE_FALLBACK_DIM is iterative
    solves = dict(line.split() for line in lines[1:])
    # the 4-40-12-3 net has 731 parameters, so bias-scan's solves are iterative
    assert int(solves["bias-scan"]) > 1
    assert loaded == "[]"
