"""Shared fixtures: the seeded toy classification problem and its trained
model, reused by the diagnostics and acceptance suites."""

import logging
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import Phase, settings

from quadbias import Mlp, MlpArchitecture, Rng
from quadbias.harness import DatasetSpec, TrainConfig, generate_dataset, train

# Silence the (expected) tiny-eigenvalue clamp warnings during test runs.
logging.getLogger("quadbias.laplace").setLevel(logging.ERROR)

# For runs that only need to know whether a property fails (tools/mutants.py
# passes --hypothesis-profile=mutants): the first failing example ends the
# test as found, without shrinking it. The default profile is unchanged.
settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate))

TOY_SPEC = DatasetSpec(
    generator="gaussian_blobs", n=2048, d=16, c=10, noise=2.0, seed=7,
    train_frac=0.8, ood_translation=4.0, ood_noise_mult=2.0,
)
TOY_ARCH = MlpArchitecture((16, 36, 20, 10), "relu", "cross_entropy")
TOY_TRAIN = TrainConfig(lr=0.08, momentum=0.9, epochs=30, batch_size=128,
                        beta=5e-4, seed=11)
# Regularizer used when building quadratics on the fixture.
TOY_BETA = 0.03


@pytest.fixture(scope="session")
def toy_dataset():
    return generate_dataset(TOY_SPEC)


@pytest.fixture(scope="session")
def toy_mlp():
    return Mlp(TOY_ARCH)


@pytest.fixture(scope="session")
def toy_theta(toy_dataset):
    checkpoints = train(TOY_ARCH, toy_dataset, TOY_TRAIN)
    return checkpoints[-1].params


@pytest.fixture(scope="session")
def toy_checkpoints(toy_dataset):
    return train(TOY_ARCH, toy_dataset, TOY_TRAIN)


@pytest.fixture()
def rng():
    return Rng(1234)


def small_problem(seed=0, n=12, arch=None):
    """A tiny net + batch for derivative oracles (P small enough for dense)."""
    from quadbias.model import Batch, one_hot

    arch = arch or MlpArchitecture((5, 8, 4), "relu", "cross_entropy")
    mlp = Mlp(arch)
    r = Rng(seed)
    params = mlp.init_params(r)
    x = r.normal(n * arch.input_dim).reshape(n, arch.input_dim)
    labels = r.integers(0, arch.layer_sizes[-1], n)
    batch = Batch(x, one_hot(labels, arch.layer_sizes[-1]))
    return mlp, params, batch


def weight_mask(p):
    """True on the weight coordinates of the parameter vector p: the oracle
    of the regularizer's mask, cut from each weight entry's offset and size."""
    mask = np.zeros(p.n_params, dtype=bool)
    for e in p.weight_entries:
        mask[e.offset : e.offset + e.size] = True
    return mask


def posterior_draws(post, s_samples, seed):
    """The posterior draws of the streams Rng(seed).split(s), s < s_samples,
    as the rows of an (S, P) block, made from one ``draw_noise`` block; its
    first, second and last rows are checked bit for bit against
    ``sample_params``, which makes one draw per call."""
    from quadbias.laplace import _displacements, draw_noise, sample_params

    noise = draw_noise(post, s_samples, seed)
    draws = (post.mean.values[:, None] + _displacements(post, noise)).T
    for s in (0, 1, s_samples - 1):
        np.testing.assert_array_equal(draws[s], sample_params(post, Rng(seed).split(s)).values)
    return draws


class CountingPool(ThreadPoolExecutor):
    """One worker thread that counts the tasks handed to it."""

    def __init__(self):
        super().__init__(1, thread_name_prefix="test-pass")
        self.submits = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submits += 1
        return super().submit(fn, *args, **kwargs)


@pytest.fixture()
def pass_split(monkeypatch):
    """(force, pool): force(True) hands alternate passes of every block
    product of two or more passes to pool, whatever the pass size, BLAS
    threads and cores; force(False) keeps every pass on the calling thread."""
    from quadbias import model

    pool = CountingPool()

    def force(on):
        if on:
            monkeypatch.setattr(model, "SPLIT_WORK", 0)
        monkeypatch.setattr(model, "_pass_worker", lambda: pool if on else None)

    yield force, pool
    pool.shutdown(wait=True)
