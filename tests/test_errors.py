"""The shared checks of quadbias.errors at every site that calls them: counts
and seeds, non-finite values, and integer arrays; and the shape and argument
checks that no other test reaches."""

from dataclasses import replace
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest

from quadbias.cg import CgConfig, cg_minimize
from quadbias.diagnostics import (OverlapMatrix, _checked_parts, above_floor,
                                  source_eigenbases, spectral_transfer)
from quadbias.errors import NumericalError, ValidationError, as_integers
from quadbias.harness import DatasetSpec, TrainConfig, generate_dataset, train
from quadbias.harness.config import parse_experiment_config, read_config_text
from quadbias.harness.training import Checkpoint, load_checkpoint, save_checkpoint
from quadbias.laplace import build_posterior, clamped_eigh, debias_kfac, draw_noise, predictive
from quadbias.linalg import DenseSymMatrix, Rng, sym_eigh, top_k_eigenpairs
from quadbias.metrics import ProbTable, auroc, ece
from quadbias.model import Batch, Mlp, MlpArchitecture, ParamVector, one_hot
from quadbias.quadratic import (CurvatureOperator, build_quadratic, fullbatch_quadratic,
                                synthetic_quadratic)

from conftest import small_problem


@cache
def _fit():
    """A small net and batch, their K-FAC blocks and posterior, and a tiny
    dataset."""
    mlp, p, batch = small_problem(seed=3)
    blocks = mlp.kfac_factors(p, batch, "empirical")
    return SimpleNamespace(mlp=mlp, p=p, batch=batch, blocks=blocks,
                           post=build_posterior(blocks, p, 100, 0.5),
                           dataset=generate_dataset(DatasetSpec(n=20, seed=1)))


def _experiment(**fields):
    return replace(parse_experiment_config({"experiment": {"kind": "bias-scan"}}), **fields)


# (site, least, below, call of the site with value v, pattern naming the argument)
LIBRARY = "^{} must be"
CONFIG = "config key '{}' in"
COUNT_SITES = [
    ("Rng seed", 0, 2**64, lambda v: Rng(v), LIBRARY.format("seed")),
    ("Rng.normal n", 0, None, lambda v: Rng(0).normal(v), LIBRARY.format("n")),
    ("Rng.uniform n", 0, None, lambda v: Rng(0).uniform(v), LIBRARY.format("n")),
    ("Rng.integers n", 0, None, lambda v: Rng(0).integers(0, 3, v), LIBRARY.format("n")),
    ("Rng.integers low", -2**63, None, lambda v: Rng(0).integers(v, 3, 2),
     LIBRARY.format("low")),
    ("Rng.integers high", 1, None, lambda v: Rng(0).integers(0, v, 2), LIBRARY.format("high")),
    ("Rng.permutation n", 0, None, lambda v: Rng(0).permutation(v), LIBRARY.format("n")),
    ("top_k_eigenpairs k", 1, None,
     lambda v: top_k_eigenpairs(CurvatureOperator.from_dense(np.eye(4)), 4, v, Rng(0)),
     LIBRARY.format("k")),
    ("top_k_eigenpairs maxiter", 1, None,
     lambda v: top_k_eigenpairs(CurvatureOperator.from_dense(np.eye(4)), 4, 2, Rng(0), v),
     LIBRARY.format("maxiter")),
    ("CgConfig p_max", 1, None, lambda v: CgConfig(p_max=v), LIBRARY.format("p_max")),
    ("build_posterior n_train", 1, None,
     lambda v: build_posterior(_fit().blocks, _fit().p, v, 0.5), LIBRARY.format("n_train")),
    ("draw_noise s_samples", 1, None, lambda v: draw_noise(_fit().post, v, 0),
     LIBRARY.format("s_samples")),
    ("Dataset.minibatches batch_size", 1, None, lambda v: _fit().dataset.minibatches(v, 0),
     LIBRARY.format("batch_size")),
    ("ece n_bins", 1, None, lambda v: ece(ProbTable([[0.5, 0.5]], [0]), v),
     LIBRARY.format("n_bins")),
    ("fullbatch_quadratic chunk_size", 1, None,
     lambda v: fullbatch_quadratic(_fit().mlp, _fit().p, _fit().batch, chunk_size=v),
     LIBRARY.format("chunk_size")),
    ("MlpArchitecture layers", 1, None, lambda v: MlpArchitecture((2, v, 2)),
     CONFIG.format("layers")),
    ("DatasetSpec seed", 0, 2**64, lambda v: DatasetSpec(seed=v), CONFIG.format("seed")),
    ("DatasetSpec dim", 1, None, lambda v: DatasetSpec(d=v), CONFIG.format("dim")),
    ("DatasetSpec classes", 1, None, lambda v: DatasetSpec(c=v), CONFIG.format("classes")),
    ("DatasetSpec n", 2, None, lambda v: DatasetSpec(n=v, c=2), CONFIG.format("n")),
    ("TrainConfig epochs", 1, None, lambda v: TrainConfig(epochs=v), CONFIG.format("epochs")),
    ("TrainConfig batch_size", 1, None, lambda v: TrainConfig(batch_size=v),
     CONFIG.format("batch_size")),
    ("TrainConfig seed", 0, 2**64, lambda v: TrainConfig(seed=v), CONFIG.format("seed")),
    *((f"ExperimentConfig {key}", 1, None, lambda v, f=field: _experiment(**{f: v}),
       CONFIG.format(key)) for key, field in (
        ("k", "n_directions"), ("cg_iterations", "cg_iterations"),
        ("mc_samples", "mc_samples"), ("chunk_size", "chunk_size"),
        ("n_source_batches", "n_source_batches"))),
    *((f"ExperimentConfig {key}", least, below, lambda v, k=key: _experiment(**{k: (v,)}),
       CONFIG.format(key)) for key, least, below in (
        ("seeds", 0, 2**64), ("batch_sizes", 1, None), ("widths", 1, None))),
    ("ExperimentConfig la_grid_points", 0, None, lambda v: _experiment(la_grid_points=v),
     CONFIG.format("la_grid_points")),
]


def _cases():
    for site, least, below, call, pattern in COUNT_SITES:
        bad = [("float", least + 1.5), ("bool", True), ("below least", least - 1)]
        if below is not None:
            bad.append(("at bound", below))
        for case, value in bad:
            yield pytest.param(call, pattern, value, id=f"{site}-{case}")


class TestCounts:
    @pytest.mark.parametrize("call,pattern,value", _cases())
    def test_non_count_raises_naming_the_argument(self, call, pattern, value):
        with pytest.raises(ValidationError, match=pattern):
            call(value)

    @pytest.mark.parametrize("call,least", [pytest.param(call, least, id=site)
                                            for site, least, _, call, _ in COUNT_SITES])
    def test_numpy_integer_passes(self, call, least):
        call(np.int64(least + 1))

    def test_out_of_range_wording(self):
        with pytest.raises(ValidationError, match=r"^n_bins must be >= 1, got 0$"):
            ece(ProbTable([[0.5, 0.5]], [0]), 0)
        with pytest.raises(ValidationError, match=r"^n_bins must be an integer, got 2.5$"):
            ece(ProbTable([[0.5, 0.5]], [0]), 2.5)


def _nan_kfac():
    fit = _fit()
    p = fit.p.copy()
    p.view(1, "weight")[0, 0] = np.nan
    fit.mlp.kfac_factors(p, fit.batch, "empirical")


def _nan_predictive():
    fit = _fit()
    x = Rng(5).normal(4 * 5).reshape(4, 5)
    x[2, 1] = np.nan
    predictive(fit.post, fit.mlp.linearize(fit.p, x), draw_noise(fit.post, 3, 0))


def _nan_theta():
    fit = _fit()
    p = fit.p.copy()
    p.values[3] = np.nan
    build_quadratic(fit.mlp, p, fit.batch)


def _nan_lanczos():
    top_k_eigenpairs(CurvatureOperator(600, lambda vs: vs * np.nan), 600, 3, Rng(0))


def _diverged_training():
    arch = MlpArchitecture((2, 6, 2), loss="mse")
    train(arch, _fit().dataset, TrainConfig(lr=1e12, epochs=8, batch_size=8))


def _nan_curvature():
    cg_minimize(synthetic_quadratic(np.diag([1.0, np.nan]), np.ones(2)), CgConfig())


# (site, call, error, pattern: the stage, the quantity and any index)
FINITE_SITES = [
    ("kfac_factors", _nan_kfac, NumericalError,
     r"^kfac_factors: non-finite layer 0 output factor at \[0, 0\] = nan$"),
    ("sym_eigh", lambda: sym_eigh(np.diag([1.0, np.nan, np.inf])), NumericalError,
     r"^sym_eigh: non-finite entry at \[1, 1\] = nan$"),
    ("Lanczos step", _nan_lanczos, NumericalError,
     r"^Lanczos eigensolver at step 1: non-finite product at \[0\] = nan$"),
    ("clamped_eigh", lambda: clamped_eigh(DenseSymMatrix(np.full((2, 2), 1e308)), "layer 0", []),
     NumericalError, r"^layer 0: non-finite eigenvalue at \[\d\] = inf$"),
    ("predictive", _nan_predictive, NumericalError,
     r"^predictive: non-finite probability at \[2, 0\] = nan$"),
    ("above_floor", lambda: above_floor(np.ones(3), np.array([1.0, 2.0, np.inf]), "ratio"),
     NumericalError, r"^ratio: non-finite truth at \[2\] = inf$"),
    ("train", _diverged_training, NumericalError,
     r"^training diverged at epoch \d+: non-finite loss = (inf|nan)$"),
    ("quadratic", _nan_theta, NumericalError,
     r"^build_quadratic: non-finite theta at \[3\] = nan$"),
    ("cg", _nan_curvature, NumericalError,
     r"^cg_minimize at iteration 0: non-finite curvature = nan$"),
    ("ProbTable", lambda: ProbTable([[0.5, 0.5], [0.5, np.nan]], [0, 1]), ValidationError,
     r"^ProbTable: non-finite probability at \[1, 1\] = nan$"),
    ("auroc", lambda: auroc([0.1, 0.2, -np.inf], [True, False, True]), ValidationError,
     r"^auroc: non-finite scores at \[2\] = -inf$"),
]


@pytest.mark.parametrize("call,error,pattern",
                         [pytest.param(*row[1:], id=row[0]) for row in FINITE_SITES])
def test_non_finite_value_is_named_with_its_stage_and_first_index(call, error, pattern):
    with np.errstate(all="ignore"), pytest.raises(error, match=pattern):
        call()


# (site, call with an integer array v, its argument, the array it keeps)
INTEGER_SITES = [
    ("one_hot", lambda v: one_hot(v, 2), "labels", lambda out: out.argmax(axis=1)),
    ("ProbTable", lambda v: ProbTable([[0.5, 0.5], [0.5, 0.5]], v), "labels",
     lambda out: out.labels),
    ("scan part", lambda v: _checked_parts(Batch(np.zeros((2, 1)), np.eye(2)), [v]), "part 0",
     lambda out: out[0]),
]


@pytest.mark.parametrize("call,name,read", [pytest.param(*row[1:], id=row[0])
                                            for row in INTEGER_SITES])
class TestIntegerArrays:
    @pytest.mark.parametrize("bad", [[1.7, 0.2], [0.0, 0.5], [1.0, np.nan], [np.inf, 0.0]])
    def test_fraction_or_non_finite_raises_naming_the_argument(self, call, name, read, bad):
        with pytest.raises(ValidationError, match=f"^{name} must be whole numbers"):
            call(bad)

    def test_bool_array_raises_naming_the_argument(self, call, name, read):
        # a mask is not the classes or positions 1 and 0
        with pytest.raises(ValidationError, match=f"^{name} must be whole numbers, got a bool"):
            call([True, False])

    @pytest.mark.parametrize("bad", [[True, 0], [1, np.True_], [np.True_, 0.0]])
    def test_bool_entry_among_numbers_raises_naming_the_argument(self, call, name, read, bad):
        # numpy would cast the flag to the class or position 1
        with pytest.raises(ValidationError, match=f"^{name} must be whole numbers, got True$"):
            call(bad)

    @pytest.mark.parametrize("good", [[1, 0], np.array([1, 0], dtype=np.uint8), [1.0, 0.0]])
    def test_integers_and_whole_floats_pass(self, call, name, read, good):
        out = read(call(good))
        assert out.dtype.kind == "i"
        np.testing.assert_array_equal(out, [1, 0])


@pytest.mark.parametrize("values", [[True, 2], [np.True_, 2.0]], ids=["bool", "numpy_bool"])
def test_as_integers_bool_entry_is_not_read_as_one(values):
    with pytest.raises(ValidationError, match=r"^x must be whole numbers, got True$"):
        as_integers("x", values)


@pytest.mark.parametrize("values,got", [
    (np.array([True, 2], dtype=object), "True"),
    (np.array([1.5, 2], dtype=object), "1.5"),
    (np.array(["a", 1], dtype=object), r"\['a' 1\]"),
    (["1", "2"], "a <U1 array"),
], ids=["object_bool", "object_fraction", "object_string", "strings"])
def test_as_integers_non_number_entry_raises_naming_the_argument(values, got):
    with pytest.raises(ValidationError, match=f"^x must be whole numbers, got {got}$"):
        as_integers("x", values)


@pytest.mark.parametrize("values,got", [
    ([1e30], "1e\\+30"),
    ([-1e19], "-1e\\+19"),
    (np.array([2**64 - 1], dtype=np.uint64), str(2**64 - 1)),
    ([2**63], str(2**63)),
    (np.array([2**70, 1], dtype=object), str(2**70)),
], ids=["float", "negative_float", "uint64", "int", "object_int"])
def test_as_integers_outside_int64_raises_naming_the_argument(values, got):
    # the int64 cast would wrap each of these without an error
    with pytest.raises(ValidationError,
                       match=rf"^x must be whole numbers in \[-2\*\*63, 2\*\*63\), got {got}$"):
        as_integers("x", values)


def test_as_integers_keeps_the_int64_bounds():
    for values in ([-2**63, 2**63 - 1], np.array([-2**63, 2**63 - 1], dtype=object),
                   np.array([2**63 - 1], dtype=np.uint64)):
        out = as_integers("x", values)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, np.asarray(values, dtype=object).astype(np.int64))


@pytest.mark.parametrize("value,got", [("1", "'1'"), (None, "None"),
                                       (np.ones(2), r"array\(\[1\., 1\.\]\)")],
                         ids=["string", "none", "array"])
def test_nonnegative_non_number_raises_naming_the_argument(value, got):
    with pytest.raises(ValidationError, match=f"^beta must be >= 0 and finite, got {got}$"):
        CurvatureOperator(3, lambda vs: vs, beta=value)


def _short_checkpoint(tmp_path):
    arch = MlpArchitecture((2, 3, 2))
    path = tmp_path / "short.ckpt"
    save_checkpoint(Checkpoint(1, Mlp(arch).zero_params(), arch), path)
    path.write_bytes(path.read_bytes()[:-8])
    load_checkpoint(path)


# (site, call with a temporary directory, pattern of the ValidationError)
INPUT_SITES = [
    ("debias_kfac", lambda _: debias_kfac(_fit().blocks, _fit().blocks[:1]),
     r"^block lists differ in length$"),
    ("spectral_transfer",
     lambda _: spectral_transfer(sym_eigh(np.eye(2)), sym_eigh(np.eye(2)),
                                 OverlapMatrix(np.zeros((2, 3)))),
     r"^overlap matrix shape does not match the bases$"),
    ("source_eigenbases",
     lambda _: source_eigenbases(_fit().mlp, _fit().p, _fit().batch, [[0, 1]], 1,
                                 rng=Rng(0), n_sources=0),
     r"^n_sources must be >= 1, got 0$"),
    ("source_eigenbases no part",
     lambda _: source_eigenbases(_fit().mlp, _fit().p, _fit().batch, [], 1, rng=Rng(0)),
     r"^no part to take eigen directions from$"),
    ("kfac_factors", lambda _: _fit().mlp.kfac_factors(_fit().p, _fit().batch, "fisher"),
     r"^unknown fisher_mode 'fisher'$"),
    ("CurvatureOperator.matvec",
     lambda _: CurvatureOperator.from_dense(np.eye(3)).matvec(np.ones(4)),
     r"^vector shape \(4,\) != \(3,\)$"),
    ("DenseSymMatrix", lambda _: DenseSymMatrix(np.ones((2, 3))),
     r"^expected a square matrix, got shape \(2, 3\)$"),
    ("sym_eigh empty", lambda _: sym_eigh(np.zeros((0, 0))),
     r"^expected a matrix with rows, got shape \(0, 0\)$"),
    ("ParamVector", lambda _: ParamVector(np.ones(3), ParamVector.from_values(np.ones(2)).layout),
     r"^values length \(3,\) does not match layout size 2$"),
    ("Batch", lambda _: Batch(np.zeros((2, 1)), np.eye(3)),
     r"^inconsistent batch shapes \(2, 1\), \(3, 3\)$"),
    ("ProbTable 1-d", lambda _: ProbTable([0.5, 0.5], [0]),
     r"^probs must be 2-d, got shape \(2,\)$"),
    ("ProbTable labels", lambda _: ProbTable([[0.5, 0.5]], [0, 1]),
     r"^labels must be one class index per row$"),
    ("read_config_text", lambda _: read_config_text("k = 3\n"), r"^config parse error: "),
    ("load_checkpoint", _short_checkpoint, r"short\.ckpt: parameter payload truncated$"),
]


@pytest.mark.parametrize("call,pattern",
                         [pytest.param(*row[1:], id=row[0]) for row in INPUT_SITES])
def test_bad_input_is_validation_error(call, pattern, tmp_path):
    with pytest.raises(ValidationError, match=pattern):
        call(tmp_path)
