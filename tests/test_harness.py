"""Datasets, training/checkpoints, configuration, reports, experiments, CLI."""

import dataclasses
import hashlib
import io
import json
import logging
import re
import subprocess
import sys
import tempfile
import warnings
import weakref
from contextlib import redirect_stderr
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadbias import model
from quadbias.errors import NumericalError, ValidationError
from quadbias.harness import (
    DatasetSpec,
    TrainConfig,
    generate_dataset,
    load_checkpoint,
    parse_experiment_config,
    read_csv,
    run_experiment,
    save_checkpoint,
    train,
    verify_result_dir,
)
from quadbias.harness import cli
from quadbias.harness import config as config_module
from quadbias.harness.config import (
    EXPERIMENT_KINDS,
    ExperimentConfig,
    config_digest,
    parse_dataset_spec,
    read_config_text,
    write_config,
)
from quadbias.harness import datasets
from quadbias.harness.datasets import dataset_table, load_csv
from quadbias.harness.reports import write_csv, write_summary
from quadbias.harness.training import Checkpoint, checkpoint_epochs
from quadbias.laplace import build_posterior
from quadbias.linalg import DenseSymMatrix, Rng
from quadbias.model import KfacBlock, Mlp, MlpArchitecture

from conftest import small_problem


class TestDatasets:
    def test_deterministic(self):
        spec = DatasetSpec(generator="gaussian_blobs", n=200, d=4, c=3, seed=5)
        a = generate_dataset(spec)
        b = generate_dataset(spec)
        np.testing.assert_array_equal(a.train_inputs, b.train_inputs)
        np.testing.assert_array_equal(a.test_labels, b.test_labels)

    def test_balanced_labels(self):
        spec = DatasetSpec(generator="gaussian_blobs", n=100, d=3, c=3, seed=1,
                           train_frac=1.0)
        ds = generate_dataset(spec)
        counts = np.bincount(ds.train_labels, minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_noise_free_blobs_linearly_separable(self):
        spec = DatasetSpec(generator="gaussian_blobs", n=120, d=4, c=3,
                           noise=0.0, seed=2, train_frac=1.0)
        ds = generate_dataset(spec)
        arch = MlpArchitecture((4, 3), activation="identity")
        cfg = TrainConfig(lr=0.5, epochs=60, batch_size=30, seed=0)
        theta = train(arch, ds, cfg)[-1].params
        logits = Mlp(arch).forward(theta, ds.train_inputs)
        assert (np.argmax(logits, axis=1) == ds.train_labels).mean() == 1.0

    def test_two_arcs_and_spirals_shapes(self):
        for gen in ("two_arcs", "spirals"):
            spec = DatasetSpec(generator=gen, n=80, d=2, c=2, seed=3,
                               noise=0.05)
            ds = generate_dataset(spec)
            assert ds.train_inputs.shape[1] == 2
            assert set(np.unique(ds.train_labels)) <= {0, 1}

    def test_blobs_are_means_plus_shift_plus_scaled_noise(self):
        # every split, bit for bit: means[labels] + shift + noise * noise_mult
        # * N(0, 1), the normal draws from the split's rng.split(2)
        spec = DatasetSpec(generator="gaussian_blobs", n=50, d=3, c=4, noise=0.7, seed=8,
                           train_frac=0.6, ood_translation=2.5, ood_noise_mult=1.5)
        ds = generate_dataset(spec)
        means = datasets._blob_means(Rng(8).split(9000), 3, 4)
        direction = Rng(8).split(9001).normal(3)
        for stream, x, labels, shift, mult in (
                (100, ds.train_inputs, ds.train_labels, 0.0, 1.0),
                (200, ds.test_inputs, ds.test_labels, 0.0, 1.0),
                (300, ds.ood_inputs, ds.ood_labels, 2.5, 1.5)):
            noise = Rng(8).split(stream).split(2).normal(labels.size * 3).reshape(-1, 3)
            expected = (means[labels] + shift * direction / np.linalg.norm(direction)
                        + 0.7 * mult * noise)
            np.testing.assert_array_equal(x, expected)

    @pytest.mark.parametrize("generator", ["two_arcs", "spirals"])
    def test_arcs_and_spirals_keep_their_points(self, generator):
        # train and test equal the former (x + noise) + shift bit for bit;
        # the shifted OOD set, now x + shift + noise, moves at round-off only
        spec = DatasetSpec(generator=generator, n=60, d=3, c=2, noise=0.3, seed=2,
                           train_frac=0.5, ood_translation=1.7, ood_noise_mult=2.0)
        ds = generate_dataset(spec)
        for stream, x, translation, mult in ((100, ds.train_inputs, 0.0, 1.0),
                                             (200, ds.test_inputs, 0.0, 1.0),
                                             (300, ds.ood_inputs, 1.7, 2.0)):
            rng = Rng(2).split(stream)
            clean, _ = datasets._SYNTH[generator](spec, rng, x.shape[0])
            noise = 0.3 * mult * rng.split(2).normal(x.size).reshape(x.shape)
            shift = datasets._shift_vector(spec, translation)
            former = (clean + noise) + shift
            if not translation:
                np.testing.assert_array_equal(x, former)
            else:
                addends = np.abs(clean) + np.abs(noise) + np.abs(shift)
                assert np.all(np.abs(x - former) <= 2 * np.finfo(float).eps * addends)

    def test_train_and_test_share_geometry(self):
        # a model fit on the train split must generalize to the test split
        spec = DatasetSpec(generator="gaussian_blobs", n=600, d=8, c=3,
                           noise=0.6, seed=9, train_frac=0.8)
        ds = generate_dataset(spec)
        arch = MlpArchitecture((8, 12, 3))
        theta = train(arch, ds, TrainConfig(lr=0.1, momentum=0.9, epochs=30,
                                            batch_size=60, seed=1))[-1].params
        logits = Mlp(arch).forward(theta, ds.test_inputs)
        test_acc = (np.argmax(logits, axis=1) == ds.test_labels).mean()
        assert test_acc > 0.8

    def test_ood_set_only_with_shift(self):
        base = DatasetSpec(generator="gaussian_blobs", n=100, d=3, c=2, seed=4)
        assert generate_dataset(base).ood_inputs is None
        shifted = DatasetSpec(generator="gaussian_blobs", n=100, d=3, c=2,
                              seed=4, ood_translation=2.0)
        ds = generate_dataset(shifted)
        assert ds.ood_inputs is not None
        assert ds.ood_inputs.shape == ds.test_inputs.shape

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text(
            "x0,x1,label\n"
            "0.5,-1.25,0\n"
            "3.0,0.0009765625,1\n"
            "-7.125,2.5,2\n"
        )
        x, labels = load_csv(path)
        np.testing.assert_array_equal(
            x, [[0.5, -1.25], [3.0, 0.0009765625], [-7.125, 2.5]]
        )
        np.testing.assert_array_equal(labels, [0, 1, 2])
        spec = DatasetSpec(generator="csv_file", path=str(path), train_frac=1.0,
                           c=3)
        ds = generate_dataset(spec)
        np.testing.assert_array_equal(ds.train_inputs, x)

    @pytest.mark.parametrize("rows, line, entry", [
        ("0.5,nan,1\n", 2, "non-finite x1 = nan"),
        ("0.5,1.0,1\n-inf,0.2,0\n", 3, "non-finite x0 = -inf"),
        ("0.5,1.0,1\n0.3,0.2,-1\n", 3, "label = '-1' is negative"),
        # 2**63, one past the largest int64 the labels array holds
        ("0.5,1.0,1\n0.3,0.2,9223372036854775808\n", 3,
         "label = '9223372036854775808' is above 2**63 - 1"),
    ], ids=["nan", "inf", "negative_label", "int64_overflow_label"])
    def test_csv_rejects_non_finite_entry_and_negative_label(self, tmp_path, rows, line, entry):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1,label\n" + rows)
        with pytest.raises(ValidationError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: line {line}: {entry}"

    def test_csv_split_is_seeded_and_label_mixed(self, tmp_path):
        # rows sorted by label: a split in file order would leave label 2
        # out of train and labels 0 and 1 out of test
        path = tmp_path / "sorted.csv"
        x = np.arange(120, dtype=np.float64).reshape(60, 2)
        write_csv(path, *dataset_table(x, np.repeat([0, 1, 2], 20)), "0" * 64)
        spec = DatasetSpec(generator="csv_file", path=str(path), train_frac=0.75,
                           c=3, seed=4)
        ds = generate_dataset(spec)
        assert ds.n_train == 45 and ds.test_inputs.shape[0] == 15
        assert set(ds.train_labels) == set(ds.test_labels) == {0, 1, 2}
        np.testing.assert_array_equal(
            np.sort(np.concatenate([ds.train_inputs[:, 0], ds.test_inputs[:, 0]])),
            x[:, 0])
        again = generate_dataset(spec)
        np.testing.assert_array_equal(again.train_inputs, ds.train_inputs)
        np.testing.assert_array_equal(again.test_labels, ds.test_labels)
        other = generate_dataset(DatasetSpec(generator="csv_file", path=str(path),
                                             train_frac=0.75, c=3, seed=5))
        assert not np.array_equal(other.test_inputs, ds.test_inputs)

    def test_dataset_table_through_write_csv_loads_bitwise(self, tmp_path):
        rng = Rng(11)
        x = rng.normal(12).reshape(4, 3) * np.array([1.0, 1e-300, 1e300])
        labels = np.array([0, 1, 1, 0])
        write_csv(tmp_path / "d.csv", *dataset_table(x, labels), "ab" * 32)
        assert read_csv(tmp_path / "d.csv")[:2] == ("ab" * 32, ["x0", "x1", "x2", "label"])
        x2, l2 = load_csv(tmp_path / "d.csv")
        assert x2.tobytes() == x.tobytes()
        np.testing.assert_array_equal(labels, l2)
        assert l2.dtype == np.int64

    def test_csv_digest_line_keeps_the_file_line_numbers(self, tmp_path):
        path = tmp_path / "stamped.csv"
        path.write_text("# config=ab\nx0,x1,label\n0.5,1.0,1\n0.5,nan,1\n")
        with pytest.raises(ValidationError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: line 4: non-finite x1 = nan"

    @pytest.mark.parametrize("first", ["# a comment", "#config=ab", "# Config=ab", "# config",
                                       "# config=ab\n# config=ab"],
                             ids=["comment", "no_space", "capital", "no_digest", "two_digests"])
    def test_csv_other_comment_line_is_rejected(self, tmp_path, first):
        # only one leading digest line, as reports.write_csv writes it, is skipped
        path = tmp_path / "commented.csv"
        path.write_text(f"{first}\nx0,x1,label\n0.5,-1.25,0\n")
        with pytest.raises(ValidationError, match=r"expected header x0,\.\.\.,x\{D-1\},label"):
            load_csv(path)

    def test_unsupported_generator(self):
        with pytest.raises(ValidationError):
            DatasetSpec(generator="mnist")

    def test_minibatch_partition_disjoint_cover(self):
        spec = DatasetSpec(generator="gaussian_blobs", n=64, d=3, c=2, seed=6,
                           train_frac=1.0)
        ds = generate_dataset(spec)
        parts = ds.partition(16, seed=3)
        assert sorted(np.concatenate(parts).tolist()) == list(range(64))
        assert all(pos.size == 16 for pos in parts)


    @pytest.mark.parametrize("n_train,sizes", [(31, [16, 15]), (32, [16, 16]),
                                               (33, [16, 16, 1])])
    def test_drop_last_keeps_exactly_the_full_batches(self, n_train, sizes):
        spec = DatasetSpec(generator="gaussian_blobs", n=n_train, d=3, c=2, seed=6,
                           train_frac=1.0)
        ds = generate_dataset(spec)
        assert [b.size for b in ds.minibatches(16, seed=3)] == sizes
        kept = ds.minibatches(16, seed=3, drop_last=True)
        assert [b.size for b in kept] == [s for s in sizes if s == 16]

    @pytest.mark.parametrize("drop_last", [False, True])
    def test_minibatches_are_the_rows_of_partition(self, drop_last):
        spec = DatasetSpec(generator="gaussian_blobs", n=40, d=3, c=2, seed=6,
                           train_frac=1.0)
        ds = generate_dataset(spec)
        parts = ds.partition(16, seed=3, drop_last=drop_last)
        batches = ds.minibatches(16, seed=3, drop_last=drop_last)
        assert len(batches) == len(parts) == (2 if drop_last else 3)
        targets = model.one_hot(ds.train_labels, ds.n_classes)
        for b, pos in zip(batches, parts):
            # row slices of one checked table: the bits of a checked Batch
            want = model.Batch(ds.train_inputs[pos], targets[pos])
            assert b.inputs.tobytes() == want.inputs.tobytes()
            assert b.targets.tobytes() == want.targets.tobytes()

    @pytest.mark.parametrize("n", [1, 2])
    def test_first_minibatches_are_the_leading_minibatches(self, n):
        spec = DatasetSpec(generator="gaussian_blobs", n=50, d=3, c=2, seed=6,
                           train_frac=1.0)
        ds = generate_dataset(spec)
        want = ds.minibatches(16, seed=3, drop_last=True)[:n]
        got = ds.first_minibatches(n, 16, 3)
        assert len(got) == n
        for b, w in zip(got, want):
            assert b.inputs.tobytes() == w.inputs.tobytes()
            assert b.targets.tobytes() == w.targets.tobytes()


class TestTraining:
    def _dataset(self):
        return generate_dataset(
            DatasetSpec(generator="gaussian_blobs", n=128, d=4, c=3, seed=7)
        )

    def test_zero_lr_keeps_params(self):
        ds = self._dataset()
        arch = MlpArchitecture((4, 6, 3))
        cfg = TrainConfig(lr=0.0, epochs=3, batch_size=32, seed=1)
        ckpts = train(arch, ds, cfg)
        init = Mlp(arch).init_params(Rng(cfg.seed).split(0))
        np.testing.assert_array_equal(ckpts[-1].params.values, init.values)

    def test_single_step_hand_update(self):
        # the logit with a zero target sees L = w^2 (x = 1, zero bias), so one
        # SGD step multiplies that weight by 1 - 2 lr; lr = 0.05 lands at 0.9 w
        from quadbias.harness.datasets import Dataset

        arch = MlpArchitecture((1, 2), activation="identity", loss="mse")
        ds = Dataset(
            train_inputs=np.array([[1.0]]),
            train_labels=np.array([0]),
            test_inputs=np.zeros((0, 1)),
            test_labels=np.zeros(0, dtype=int),
            n_classes=2,
        )
        cfg = TrainConfig(lr=0.05, epochs=1, batch_size=1, seed=0)
        mlp = Mlp(arch)
        ckpts = train(arch, ds, cfg)
        w = ckpts[-1].params.view(0, "weight")[0, 1]
        init = mlp.init_params(Rng(0).split(0)).view(0, "weight")[0, 1]
        assert w == pytest.approx(init * 0.9, rel=1e-12)

    def test_two_momentum_steps_by_hand(self):
        # the zero-target logit z = w + b (x = 1) has gradient 2 z in w and in
        # b. With lr = 0.05 and momentum 0.5, step 1 takes v = 2 w0 and leaves
        # w = 0.9 w0, z = 0.8 w0; step 2 takes v = 0.5 * 2 w0 + 1.6 w0, so
        # w = 0.9 w0 - 0.05 * 2.6 w0 = 0.77 w0
        from quadbias.harness.datasets import Dataset

        arch = MlpArchitecture((1, 2), activation="identity", loss="mse")
        ds = Dataset(
            train_inputs=np.array([[1.0]]),
            train_labels=np.array([0]),
            test_inputs=np.zeros((0, 1)),
            test_labels=np.zeros(0, dtype=int),
            n_classes=2,
        )
        cfg = TrainConfig(lr=0.05, momentum=0.5, epochs=2, batch_size=1, seed=0)
        w = train(arch, ds, cfg)[-1].params.view(0, "weight")[0, 1]
        init = Mlp(arch).init_params(Rng(0).split(0)).view(0, "weight")[0, 1]
        assert w == pytest.approx(init * 0.77, rel=1e-12)

    # sha256 of each checkpoint's parameter bytes, recorded from the training
    # loop that checked every mini-batch's targets, exponentiated the logits
    # twice and built the layer views on every step
    RECORDED = {
        "relu-ce": {
            1: "0597b8368574b64446d09dc54176dfce0e1bb44fc7b322162b3f667edd8d38b0",
            2: "055b88f02ac2df13aff4dd2e408a5433c4a4eaa9dbd56968ca2111f32bd2ca42",
            3: "a971d99f1b3ea3dcf599ea9653607c5196195f915380773babf8fa7a4e1243ec",
            4: "f22d7910bb2fabbdbc9e6fbcd3aab9da1336512b2dbf55f8ab516defb205973c",
        },
        "tanh-mse": {
            1: "c5a8dcc261046077e0a010538f14b6b7f2200b2fab80060fdc898b23920c1da4",
            2: "988303f608cf155c6c9f491060da35433f5c044211d0efc21286ab412242678a",
            3: "f7b124eb8feea8bfdda19427a9e000e14cde89a354d5d8ac1e2a7c2d4ec965f0",
            4: "e45106cdb6a7fdee390c6714e97b511b2ca3f8eb0d1570a877a41f091dae62fa",
        },
    }

    @pytest.mark.parametrize("name,arch,cfg", [
        ("relu-ce", MlpArchitecture((4, 6, 5, 3), "relu", "cross_entropy"),
         TrainConfig(lr=0.05, momentum=0.9, epochs=4, batch_size=24, beta=5e-4, seed=9)),
        ("tanh-mse", MlpArchitecture((4, 6, 3), "tanh", "mse"),
         TrainConfig(lr=0.02, momentum=0.5, epochs=4, batch_size=32, beta=0.0, seed=2)),
    ])
    def test_checkpoints_are_the_recorded_bytes(self, name, arch, cfg):
        # a ragged last batch (128 rows in 24s), momentum and weight decay
        got = {c.epoch: hashlib.sha256(c.params.values.tobytes()).hexdigest()
               for c in train(arch, self._dataset(), cfg)}
        assert got == self.RECORDED[name]

    def test_deterministic_given_seed(self):
        ds = self._dataset()
        arch = MlpArchitecture((4, 6, 3))
        cfg = TrainConfig(lr=0.05, momentum=0.9, epochs=4, batch_size=32, seed=9)
        a = train(arch, ds, cfg)[-1].params.values
        b = train(arch, ds, cfg)[-1].params.values
        np.testing.assert_array_equal(a, b)

    def test_divergence_names_epoch(self):
        ds = self._dataset()
        arch = MlpArchitecture((4, 6, 3), loss="mse")
        cfg = TrainConfig(lr=1e12, epochs=8, batch_size=32, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=r"epoch \d+"):
                train(arch, ds, cfg)

    def test_checkpoint_epochs_log_spaced(self):
        eps = checkpoint_epochs(100)
        assert eps[0] == 1
        assert eps[-1] == 100
        assert eps == sorted(set(eps))

    def test_default_config_reaches_95_percent_on_blobs(self):
        ds = generate_dataset(DatasetSpec())  # default toy blobs task
        cfg = TrainConfig()  # documented defaults, epochs <= 100
        arch = MlpArchitecture((ds.dim, 16, ds.n_classes))
        theta = train(arch, ds, cfg)[-1].params
        logits = Mlp(arch).forward(theta, ds.train_inputs)
        acc = (np.argmax(logits, axis=1) == ds.train_labels).mean()
        assert acc >= 0.95

    def test_checkpoint_roundtrip_bitwise(self, tmp_path):
        ds = self._dataset()
        arch = MlpArchitecture((4, 6, 3))
        cfg = TrainConfig(lr=0.05, epochs=3, batch_size=32, seed=2)
        ckpt = replace(train(arch, ds, cfg)[-1], config_digest="d1gest")
        path = tmp_path / "model.qckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.params.values, ckpt.params.values)
        assert loaded.epoch == ckpt.epoch
        assert loaded.arch == ckpt.arch
        assert loaded.config_digest == ckpt.config_digest

    def test_checkpoint_metadata_line(self, tmp_path):
        # format version 2: the architecture's fields, sorted keys, no float
        arch = MlpArchitecture((3, 5, 2), activation="tanh", loss="mse")
        path = tmp_path / "model.qckpt"
        save_checkpoint(Checkpoint(7, Mlp(arch).zero_params(), arch, "d1gest"), path)
        head, _, payload = path.read_bytes().partition(b"\n")
        assert head == (b'{"arch": {"activation": "tanh", "layer_sizes": [3, 5, 2], '
                        b'"loss": "mse"}, "config_digest": "d1gest", "epoch": 7, '
                        b'"format_version": 2, "n_params": 32}')
        assert payload == bytes(8 * 32)
        assert load_checkpoint(path).arch == arch

    def test_checkpoint_version_rejected(self, tmp_path):
        ds = self._dataset()
        arch = MlpArchitecture((4, 6, 3))
        ckpt = train(arch, ds, TrainConfig(lr=0.01, epochs=1, batch_size=32))[-1]
        path = tmp_path / "model.qckpt"
        save_checkpoint(ckpt, path)
        raw = path.read_bytes()
        head, _, tail = raw.partition(b"\n")
        meta = json.loads(head)
        meta["format_version"] = 99
        path.write_bytes(json.dumps(meta).encode() + b"\n" + tail)
        with pytest.raises(ValidationError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("head", [
        b"not json",
        b"[1, 2]",
        b'{"arch": {"layer_sizes": [3, 2]}, "config_digest": "", "epoch": 1, '
        b'"format_version": 2}',
        b'{"format_version": 2, "note": "\xff"}',
    ], ids=["not_json", "json_list", "no_n_params", "not_utf8"])
    def test_damaged_checkpoint_header_is_validation_error(self, tmp_path, head):
        # not a JSONDecodeError, AttributeError, KeyError or UnicodeDecodeError
        # that leaves the file unnamed
        path = tmp_path / "model.qckpt"
        path.write_bytes(head + b"\n" + bytes(8 * 8))
        with pytest.raises(ValidationError, match="model.qckpt: damaged checkpoint header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, reason", [
        ({"n_params": 5}, r"n_params 5 != 32, the parameter count of its arch"),
        ({"arch": {"activation": "sigmoid", "layer_sizes": [3, 5, 2], "loss": "mse"}},
         r"arch .*'sigmoid'.* is not an architecture"),
        ({"arch": {"activation": "tanh", "layer_sizes": ["a", 3], "loss": "mse"}},
         r"arch .*'a'.* is not an architecture"),
        # 32 is also the parameter count of (3, 5, 2), which int() made of it
        ({"arch": {"activation": "tanh", "layer_sizes": [3.7, 5, 2], "loss": "mse"}},
         r"arch .*3\.7.* is not an architecture"),
    ], ids=["n_params_not_the_arch_count", "unknown_activation", "non_integer_layer_size",
            "fractional_layer_size"])
    def test_contradictory_checkpoint_header_names_the_file(self, tmp_path, edit, reason):
        # each header parses, and the payload holds n_params values; the
        # error used to name no file (a layout size, a [model] config key,
        # or a raw int() ValueError)
        arch = MlpArchitecture((3, 5, 2), activation="tanh", loss="mse")
        path = tmp_path / "model.qckpt"
        save_checkpoint(Checkpoint(7, Mlp(arch).zero_params(), arch, "d1gest"), path)
        meta = {**json.loads(path.read_bytes().partition(b"\n")[0]), **edit}
        path.write_bytes(json.dumps(meta).encode() + b"\n" + bytes(8 * meta["n_params"]))
        with pytest.raises(ValidationError, match=rf"model.qckpt: checkpoint header {reason}"):
            load_checkpoint(path)


CONFIG_TEXT = """
# toy experiment
[experiment]
kind = bias-scan
curvature = ggn
beta = 0.02
delta = 0.0
batch_sizes = 16,32
k = 2
seeds = 0,1
n_source_batches = 2
chunk_size = 64

[dataset]
generator = gaussian_blobs
n = 128
dim = 4
classes = 3
noise = 0.8
seed = 3
train_frac = 1.0

[model]
layers = 4,8,3
activation = relu
loss = cross_entropy

[train]
lr = 0.05
momentum = 0.9
epochs = 4
batch_size = 32
beta = 0.0005
seed = 5
"""


class TestConfig:
    def test_parse_sections(self):
        sections = read_config_text(CONFIG_TEXT)
        assert sections["experiment"]["kind"] == "bias-scan"
        assert sections["model"]["layers"] == "4,8,3"

    def test_typed_view(self):
        cfg = parse_experiment_config(read_config_text(CONFIG_TEXT))
        assert cfg.kind == "bias-scan"
        assert cfg.batch_sizes == (16, 32)
        assert cfg.seeds == (0, 1)
        assert cfg.arch.layer_sizes == (4, 8, 3)
        assert cfg.train.epochs == 4
        assert len(cfg.la_grid) == 14

    @pytest.mark.parametrize("section,cls", [("dataset", DatasetSpec),
                                             ("model", MlpArchitecture),
                                             ("train", TrainConfig),
                                             ("experiment", ExperimentConfig)])
    def test_keys_are_the_init_fields(self, section, cls):
        renamed = {"d": "dim", "c": "classes", "layer_sizes": "layers", "n_directions": "k"}
        nested = ("dataset", "arch", "train", "sections", "digest")
        names = [f.name for f in dataclasses.fields(cls) if f.init and f.name not in nested]
        keys = config_module._KEYS[section]
        assert list(keys) == [renamed.get(name, name) for name in names]
        assert [attr for attr, _ in keys.values()] == names
        assert "la_grid" not in keys

    @pytest.mark.parametrize("section,key,raw,value", [
        ("experiment", "k", "3", 3),
        ("experiment", "la_grid_extra", "10", (10.0,)),
        ("experiment", "force_same_batch", "Yes", True),
        ("dataset", "path", "x", "x"),
    ])
    def test_key_parses_to_its_field_type(self, section, key, raw, value):
        parsed = config_module._KEYS[section][key][1](raw)
        assert (type(parsed), repr(parsed)) == (type(value), repr(value))

    def test_field_type_without_parser_is_type_error(self):
        @dataclasses.dataclass
        class Extra:
            table: dict

        with pytest.raises(TypeError, match="dict"):
            config_module._keys(Extra)

    def test_digest_stable_and_sensitive(self):
        s1 = read_config_text(CONFIG_TEXT)
        s2 = read_config_text(CONFIG_TEXT)
        assert config_digest(s1) == config_digest(s2)
        s2["experiment"]["beta"] = "0.03"
        assert config_digest(s1) != config_digest(s2)

    def test_seed_override_changes_digest(self):
        base = parse_experiment_config(read_config_text(CONFIG_TEXT))
        over = parse_experiment_config(read_config_text(CONFIG_TEXT),
                                       seed_override=42)
        assert over.dataset.seed == 42
        assert base.digest != over.digest

    def test_unknown_kind_rejected(self):
        sections = read_config_text(CONFIG_TEXT)
        sections["experiment"]["kind"] = "magic"
        with pytest.raises(ValidationError):
            parse_experiment_config(sections)

    @pytest.mark.parametrize("raw,value", [
        ("true", True), ("True", True), ("YES", True), ("1", True),
        ("false", False), ("No", False), ("0", False),
    ])
    def test_force_same_batch_is_a_strict_boolean(self, raw, value):
        sections = read_config_text(CONFIG_TEXT)
        assert parse_experiment_config(sections).force_same_batch is False
        sections["experiment"]["force_same_batch"] = raw
        assert parse_experiment_config(sections).force_same_batch is value

    @pytest.mark.parametrize("raw", ["yes please", "", "2", "on"])
    def test_malformed_force_same_batch_rejected(self, raw):
        sections = read_config_text(CONFIG_TEXT)
        sections["experiment"]["force_same_batch"] = raw
        with pytest.raises(ValidationError, match="force_same_batch"):
            parse_experiment_config(sections)

    @pytest.mark.parametrize("section,key", [
        ("experiment", "force_same_bach"), ("experiment", "chunck_size"),
        ("dataset", "nosie"), ("model", "activaton"), ("train", "epoch"),
    ])
    def test_unknown_key_names_section_and_key(self, section, key):
        sections = read_config_text(CONFIG_TEXT)
        sections["experiment"]["kind"] = "cg-compare"
        sections[section][key] = "7"
        with pytest.raises(ValidationError, match=rf"'{key}' in \[{section}\]"):
            parse_experiment_config(sections)

    @pytest.mark.parametrize("key,raw", [
        ("k", "0"), ("cg_iterations", "0"), ("mc_samples", "0"), ("chunk_size", "0"),
        ("batch_sizes", "16,0"), ("widths", ""),
    ])
    def test_count_below_one_or_empty_names_the_key(self, key, raw):
        sections = read_config_text(CONFIG_TEXT)
        sections["experiment"][key] = raw
        with pytest.raises(ValidationError, match=f"config key '{key}'"):
            parse_experiment_config(sections)

    @pytest.mark.parametrize("key,raw", [("seeds", "0,0"), ("batch_sizes", "16,32,16"),
                                         ("widths", "4,8,4")])
    def test_repeated_entry_rejected_naming_the_key(self, key, raw):
        # a repeat would count one seed twice, or make a trend over batch
        # sizes or widths compare a point with itself
        sections = read_config_text(CONFIG_TEXT)
        sections["experiment"][key] = raw
        with pytest.raises(ValidationError, match=rf"^{key} \(.*\): config key '{key}' in "
                                                  r"\[experiment\] must be a non-empty list of "
                                                  r"distinct"):
            parse_experiment_config(sections)

    def test_unknown_section_rejected(self):
        sections = read_config_text(CONFIG_TEXT + "\n[trian]\nepochs = 2\n")
        with pytest.raises(ValidationError, match=r"\[trian\]"):
            parse_experiment_config(sections)

    def test_dataset_spec_reads_only_the_dataset_section(self):
        sections = read_config_text(CONFIG_TEXT)
        assert parse_dataset_spec(sections).n == 128
        sections["dataset"]["size"] = "64"
        with pytest.raises(ValidationError, match=r"'size' in \[dataset\]"):
            parse_dataset_spec(sections)

    def test_missing_kind_rejected(self):
        sections = read_config_text(CONFIG_TEXT)
        del sections["experiment"]["kind"]
        with pytest.raises(ValidationError):
            parse_experiment_config(sections)

    @pytest.mark.parametrize("kind,curvature", [("laplace-sweep", "kfac"),
                                                ("bias-scan", "ggn")])
    def test_unknown_fisher_mode_rejected_before_training(self, tmp_path, monkeypatch,
                                                           kind, curvature):
        from quadbias.harness import experiments

        def no_training(*args, **kwargs):
            raise AssertionError("train ran with an unknown fisher_mode")

        monkeypatch.setattr(experiments, "train", no_training)
        sections = read_config_text(CONFIG_TEXT)
        sections["dataset"]["train_frac"] = "0.75"
        sections["experiment"].update(kind=kind, curvature=curvature,
                                      fisher_mode="emprical")
        with pytest.raises(ValidationError, match="fisher_mode 'emprical'"):
            run_experiment(parse_experiment_config(sections), tmp_path / "r")

    @pytest.mark.parametrize("key,raw", [("n_source_batches", "0"), ("seeds", "")])
    def test_scan_count_rejected_before_training(self, tmp_path, monkeypatch, key, raw):
        from quadbias.harness import experiments

        def no_training(*args, **kwargs):
            raise AssertionError(f"train ran with {key} = {raw!r}")

        monkeypatch.setattr(experiments, "train", no_training)
        sections = read_config_text(CONFIG_TEXT)
        sections["experiment"][key] = raw
        with pytest.raises(ValidationError, match=f"config key '{key}'"):
            run_experiment(parse_experiment_config(sections), tmp_path / "r")

    @pytest.mark.parametrize("section,key,raw", [
        ("experiment", "la_grid_min", "0"), ("experiment", "la_grid_min", "-1"),
        ("experiment", "la_grid_min", "nan"), ("experiment", "la_grid_max", "0"),
        ("experiment", "la_grid_max", "inf"), ("experiment", "la_grid_max", "1e999"),
        ("experiment", "beta", "nan"), ("experiment", "beta", "inf"),
        ("experiment", "delta", "nan"), ("experiment", "delta", "-inf"),
        ("train", "beta", "nan"), ("train", "beta", "inf"),
    ])
    def test_out_of_domain_value_rejected_before_training(self, tmp_path, monkeypatch,
                                                           section, key, raw):
        from quadbias.harness import experiments

        def no_training(*args, **kwargs):
            raise AssertionError(f"train ran with [{section}] {key} = {raw!r}")

        monkeypatch.setattr(experiments, "train", no_training)
        sections = read_config_text(CONFIG_TEXT)
        sections[section][key] = raw
        with pytest.raises(ValidationError, match=f"config key '{key}'"):
            run_experiment(parse_experiment_config(sections), tmp_path / "r")

    @pytest.mark.parametrize("kind,key,raw", [
        ("bias-scan", "classes", "0"), ("bias-scan", "dim", "0"),
        ("bias-scan", "n", "2"),  # fewer rows than the 3 classes
        ("bias-scan", "noise", "nan"), ("bias-scan", "noise", "-1"),
        ("laplace-sweep", "ood_noise_mult", "nan"), ("laplace-sweep", "ood_noise_mult", "-1"),
        ("laplace-sweep", "ood_translation", "inf"),
    ])
    def test_out_of_domain_dataset_key_rejected_before_training(self, tmp_path, monkeypatch,
                                                                kind, key, raw):
        from quadbias.harness import experiments

        def no_training(*args, **kwargs):
            raise AssertionError(f"train ran with [dataset] {key} = {raw!r}")

        monkeypatch.setattr(experiments, "train", no_training)
        sections = read_config_text(CONFIG_TEXT)
        sections["experiment"]["kind"] = kind
        sections["dataset"].update(train_frac="0.75", **{key: raw})
        with pytest.raises(ValidationError, match=rf"config key '{key}' in \[dataset\]"):
            run_experiment(parse_experiment_config(sections), tmp_path / "r")

    def test_train_key_errors_name_the_train_section(self):
        with pytest.raises(ValidationError, match=r"'momentum' in \[train\]"):
            TrainConfig(momentum=float("nan"))

    @pytest.mark.parametrize("kind,overrides,section,key", [
        ("bias-scan", {"experiment": {"seeds": "-1"}}, "experiment", "seeds"),
        ("bias-scan", {"train": {"seed": "-1"}}, "train", "seed"),
        ("bias-scan", {"train": {"seed": str(2**64)}}, "train", "seed"),
        ("bias-scan", {"dataset": {"seed": "-1"}}, "dataset", "seed"),
        ("laplace-sweep", {"experiment": {"la_grid_points": "-1"}},
         "experiment", "la_grid_points"),
        ("laplace-sweep", {"experiment": {"la_grid_points": "0", "la_grid_extra": ""}},
         "experiment", "la_grid_points"),
        ("bias-scan", {"model": {"layers": "4,8,2"}}, "model", "layers"),  # classes = 3
        ("bias-scan", {"model": {"layers": "5,8,3"}}, "model", "layers"),  # dim = 4
        ("size-sweep", {"model": {"layers": "4,8,2"}}, "model", "layers"),
        ("bias-scan", {"model": {"layers": "0"}}, "model", "layers"),
        ("bias-scan", {"dataset": {"generator": "two_arcs"}}, "dataset", "classes"),
        ("bias-scan", {"dataset": {"generator": "spirals", "dim": "1"},
                       "model": {"layers": "1,8,3"}}, "dataset", "dim"),
    ])
    def test_bad_config_rejected_before_training_naming_its_key(self, tmp_path, monkeypatch,
                                                                kind, overrides, section, key):
        from quadbias.harness import experiments

        def no_training(*args, **kwargs):
            raise AssertionError(f"train ran with {overrides}")

        monkeypatch.setattr(experiments, "train", no_training)
        sections = read_config_text(CONFIG_TEXT)
        sections["experiment"]["kind"] = kind
        sections["dataset"]["train_frac"] = "0.75"
        for name, items in overrides.items():
            sections[name].update(items)
        with pytest.raises(ValidationError, match=rf"config key '{key}' in \[{section}\]"):
            run_experiment(parse_experiment_config(sections), tmp_path / "r")

    @pytest.mark.parametrize("section,key,build", [
        ("train", "epochs", lambda v: TrainConfig(epochs=v)),
        ("train", "batch_size", lambda v: TrainConfig(batch_size=v)),
        ("experiment", "mc_samples",
         lambda v: replace(parse_experiment_config(read_config_text(CONFIG_TEXT)),
                           mc_samples=v)),
        ("experiment", "n_source_batches",
         lambda v: replace(parse_experiment_config(read_config_text(CONFIG_TEXT)),
                           n_source_batches=v)),
        ("dataset", "classes", lambda v: DatasetSpec(c=v)),
    ])
    @pytest.mark.parametrize("value", [2.5, True])
    def test_count_that_is_not_an_integer_is_worded_so(self, section, key, build, value):
        with pytest.raises(ValidationError) as info:
            build(value)
        assert str(info.value) == (f"{key} {value!r}: config key '{key}' in [{section}] "
                                   "must be an integer")

    def test_domain_errors_share_one_form(self):
        sections = read_config_text(CONFIG_TEXT)
        sections["experiment"]["k"] = "0"
        with pytest.raises(ValidationError) as info:
            parse_experiment_config(sections)
        assert str(info.value) == "k 0: config key 'k' in [experiment] must be >= 1"

    def test_in_domain_key_the_kind_never_reads_is_accepted(self, tmp_path):
        # scan-toy and sweep-dense set the OOD keys, which bias-scan and
        # size-sweep never read
        workloads = Path(__file__).resolve().parents[1] / "bench" / "workloads"
        for name, kind in (("scan-toy", "bias-scan"), ("sweep-dense", "size-sweep")):
            cfg = parse_experiment_config(read_config_text((workloads / f"{name}.ini").read_text()))
            assert cfg.kind == kind and cfg.dataset.has_ood
        sections = read_config_text(CONFIG_TEXT)
        sections["experiment"].update(mc_samples="3", la_grid_points="1", widths="5",
                                      cg_iterations="2", force_same_batch="yes")
        sections["dataset"].update(ood_translation="2.0", path="unread.csv")
        out = run_experiment(parse_experiment_config(sections), tmp_path / "r")
        assert verify_result_dir(out)["consistent"]


class TestReports:
    def test_csv_roundtrip_17_digits(self, tmp_path):
        rows = [[0, "FULL", 0.1, 1.0 / 3.0], [1, 2, -1.2345678901234567e-8, 2.0]]
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c", "d"], rows, "deadbeef")
        digest, header, parsed = read_csv(path)
        assert digest == "deadbeef"
        assert header == ["a", "b", "c", "d"]
        for raw_row, parsed_row in zip(rows, parsed):
            assert float(parsed_row[2]) == raw_row[2]
            assert float(parsed_row[3]) == raw_row[3]

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "e.csv"
        write_csv(path, ["x", "y"], [], "d1gest")
        digest, header, rows = read_csv(path)
        assert header == ["x", "y"]
        assert rows == []

    def test_verify_detects_mismatch(self, tmp_path):
        write_csv(tmp_path / "a.csv", ["x"], [[1.0]], "digest_one")
        write_csv(tmp_path / "b.csv", ["x"], [[1.0]], "digest_two")
        write_summary(tmp_path / "summary.json", "digest_one", {})
        result = verify_result_dir(tmp_path)
        assert not result["consistent"]
        assert "b.csv" in result["mismatches"]

    def test_summary_is_strict_json_with_null_for_non_finite(self, tmp_path):
        def reject(token):
            raise AssertionError(f"non-standard JSON token {token}")

        write_summary(tmp_path / "summary.json", "d1gest",
                      {"a": float("nan"), "b": {"c": [1.0, float("inf"), (-np.inf, 2)]},
                       "d": np.float64("nan")})
        data = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
        assert data == {"config_digest": "d1gest", "a": None,
                        "b": {"c": [1.0, None, [None, 2]]}, "d": None}

    def test_verify_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            verify_result_dir(tmp_path)


class TestExperiments:
    def _config(self, tmp_path, kind="bias-scan", extra=None, dataset=None, model=None):
        sections = read_config_text(CONFIG_TEXT)
        sections["experiment"]["kind"] = kind
        for key, value in (extra or {}).items():
            sections["experiment"][key] = value
        for key, value in (dataset or {}).items():
            sections["dataset"][key] = value
        sections["model"].update(model or {})
        return parse_experiment_config(sections)

    # per kind: settings that keep the run small, and files it must write
    _TINY = {
        "bias-scan": ({}, ("scan_b16_s0_m0.csv", "bias_summary.csv")),
        "overlap": ({"batch_sizes": "32", "seeds": "0"}, ("overlap_0_1.csv",)),
        "cg-compare": ({"cg_iterations": "6", "batch_sizes": "32", "seeds": "0,1"},
                       ("cg_compare.csv",)),
        "laplace-sweep": ({"la_grid_points": "2", "mc_samples": "4",
                           "batch_sizes": "32", "seeds": "0"}, ("la_sweep.csv",)),
        "bias-over-training": ({"batch_sizes": "32", "seeds": "0"},
                               ("bias_over_training.csv",)),
        "size-sweep": ({"batch_sizes": "32", "seeds": "0", "widths": "4,8"},
                       ("size_sweep.csv",)),
    }

    @pytest.mark.parametrize("model", [
        pytest.param({}, id="relu-cross_entropy"),
        pytest.param({"activation": "tanh", "loss": "mse"}, id="tanh-mse"),
    ])
    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_outputs_byte_identical_across_runs(self, tmp_path, kind, model):
        extra, expected = self._TINY[kind]
        # a test split and an OOD split, so laplace-sweep computes every metric
        cfg = self._config(tmp_path, kind=kind, extra=extra,
                           dataset={"train_frac": "0.75", "ood_translation": "3.0"},
                           model=model)
        out1 = run_experiment(cfg, tmp_path / "r1")
        out2 = run_experiment(cfg, tmp_path / "r2")

        def data_files(out):
            return sorted(p.name for p in out.iterdir()
                          if p.suffix in (".csv", ".svg") or p.name == "summary.json")

        names = data_files(out1)
        assert names == data_files(out2)
        assert set(expected) | {"summary.json"} <= set(names)
        assert any(name.endswith(".svg") for name in names)
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        assert verify_result_dir(out1)["consistent"]
        assert json.loads((out1 / "summary.json").read_text())["kind"] == kind

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_outputs_byte_identical_with_passes_split(self, tmp_path, kind, pass_split,
                                                      monkeypatch):
        # the second thread of block passes never changes a byte of output;
        # one column per pass, so every block product of two columns splits
        force, pool = pass_split
        monkeypatch.setattr(model, "BLOCK_BUDGET", 1)
        extra, _ = self._TINY[kind]
        cfg = self._config(tmp_path, kind=kind, extra=extra,
                           dataset={"train_frac": "0.75", "ood_translation": "3.0"})
        force(False)
        serial = run_experiment(cfg, tmp_path / "serial")
        force(True)
        split = run_experiment(cfg, tmp_path / "split")
        # every kind takes a block product of two or more columns; the
        # laplace-sweep predictive's are its groups of draws
        assert pool.submits > 0
        names = sorted(p.name for p in serial.iterdir()
                       if p.suffix in (".csv", ".svg") or p.name == "summary.json")
        for name in names:
            assert (serial / name).read_bytes() == (split / name).read_bytes(), name

    def test_scan_csv_row_count(self, tmp_path):
        cfg = self._config(tmp_path)
        out = run_experiment(cfg, tmp_path / "r")
        path = next(iter(sorted(out.glob("scan_b16_s0_*.csv"))))
        _, _, rows = read_csv(path)
        n_batches = 128 // 16
        assert len(rows) == cfg.n_directions * (n_batches + 1)
        full_rows = [r for r in rows if r[1] == "FULL"]
        assert len(full_rows) == cfg.n_directions

    def test_overlap_summary_reports_the_k_it_used(self, tmp_path):
        # P = 2*1 + 1 + 1*2 + 2 = 7 parameters, fewer than the k = 10 asked for
        cfg = self._config(tmp_path, kind="overlap", extra={"k": "10", "batch_sizes": "32",
                                                            "seeds": "0"},
                           dataset={"dim": "2", "classes": "2"}, model={"layers": "2,1,2"})
        out = run_experiment(cfg, tmp_path / "r")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["k"] == 7
        assert summary["captured_mass_per_row"]
        assert all(len(row) == 7 for row in summary["captured_mass_per_row"].values())
        assert len(read_csv(out / "overlap_0_1.csv")[2]) == 7 * 7

    def test_overlap_experiment(self, tmp_path):
        cfg = self._config(tmp_path, kind="overlap")
        out = run_experiment(cfg, tmp_path / "r")
        files = sorted(out.glob("overlap_*.csv"))
        assert files
        _, header, rows = read_csv(files[0])
        assert header == ["i", "j", "omega"]
        omegas = np.array([float(r[2]) for r in rows])
        assert np.all(omegas >= 0.0) and np.all(omegas <= 1.0 + 1e-12)

    @pytest.mark.parametrize("curvature,fisher_mode", [
        ("ggn", "mc_sample"), ("hessian", "mc_sample"),
        ("kfac", "mc_sample"), ("kfac", "empirical"),
    ])
    def test_cg_compare_same_batch_forced(self, tmp_path, curvature, fisher_mode):
        cfg = self._config(
            tmp_path, kind="cg-compare",
            extra={"force_same_batch": "true", "cg_iterations": "8",
                   "batch_sizes": "32", "seeds": "0", "curvature": curvature,
                   "fisher_mode": fisher_mode},
        )
        out = run_experiment(cfg, tmp_path / "r")
        _, _, rows = read_csv(out / "cg_compare.csv")
        single = [r for r in rows if r[0] == "single"]
        debiased = [r for r in rows if r[0] == "debiased"]
        assert len(single) == len(debiased) > 0
        for s, d in zip(single, debiased):
            assert s[2:] == d[2:]  # identical q and accuracy columns

    @pytest.mark.parametrize("force,debiased_size", [("true", 32), ("false", 16)])
    def test_cg_compare_summary_names_the_debiased_batch_size(self, tmp_path, force,
                                                               debiased_size):
        # congruence mode runs the debiased CG on the single batch itself
        cfg = self._config(tmp_path, kind="cg-compare",
                           extra={"force_same_batch": force, "cg_iterations": "2",
                                  "batch_sizes": "32", "seeds": "0"})
        summary = json.loads((run_experiment(cfg, tmp_path / "r") / "summary.json")
                             .read_text())
        assert summary["single_batch_size"] == 32
        assert summary["debiased_batch_size"] == debiased_size

    def test_cg_compare_capitalized_true_runs_congruence_mode(self, tmp_path):
        cfg = self._config(
            tmp_path, kind="cg-compare",
            extra={"force_same_batch": "True", "cg_iterations": "4",
                   "batch_sizes": "32", "seeds": "0"},
        )
        out = run_experiment(cfg, tmp_path / "r")
        assert json.loads((out / "summary.json").read_text())["force_same_batch"] is True
        _, _, rows = read_csv(out / "cg_compare.csv")
        single = [r[2:] for r in rows if r[0] == "single"]
        assert single and single == [r[2:] for r in rows if r[0] == "debiased"]

    def test_cg_compare_anchor_verdict_recomputed_from_csv(self, tmp_path):
        extra, _ = self._TINY["cg-compare"]
        cfg = self._config(tmp_path, kind="cg-compare", extra=extra,
                           dataset={"train_frac": "0.75", "ood_translation": "3.0"})
        out = run_experiment(cfg, tmp_path / "r")
        summary = json.loads((out / "summary.json").read_text())
        _, _, rows = read_csv(out / "cg_compare.csv")
        anchor = summary["q_at_anchor"]
        stable = {}
        for seed in cfg.seeds:
            q = [float(r[3]) for r in rows if r[0] == "debiased" and r[1] == str(seed)]
            assert len(q) > 1
            stable[f"debiased_s{seed}"] = all(v <= anchor + 1e-12 for v in q)
            if not stable[f"debiased_s{seed}"]:
                # rises above the anchor mid-run and ends below it, so a
                # verdict from the last iterate alone would not pass
                assert q[-1] <= anchor
        assert summary["debiased_never_above_anchor"] == stable
        assert not all(stable.values())

    @pytest.mark.parametrize("force", ["false", "true"])
    def test_cg_compare_scores_with_only_the_full_batch_quadratic_alive(self, tmp_path,
                                                                       monkeypatch, force):
        # each CG quadratic is freed when its solver returns, so while a
        # trajectory is scored the full-batch quadratic is the only one alive
        from quadbias import quadratic
        from quadbias.harness import experiments

        refs, others = [], []
        real_init = quadratic.QuadraticModel.__init__
        real_values = experiments.trajectory_values

        def init(self, *args, **kwargs):
            refs.append(weakref.ref(self))
            real_init(self, *args, **kwargs)

        def values(q, *args):
            assert q.batch_id == "FULL"
            others.append(sum(ref() is not None and ref() is not q for ref in refs))
            return real_values(q, *args)

        monkeypatch.setattr(quadratic.QuadraticModel, "__init__", init)
        monkeypatch.setattr(experiments, "trajectory_values", values)
        extra = {**self._TINY["cg-compare"][0], "force_same_batch": force}
        run_experiment(self._config(tmp_path, kind="cg-compare", extra=extra), tmp_path / "r")
        assert others == [0] * 4  # two seeds, two trajectories each
        # the full-batch quadratic, then per seed the single-batch one and
        # the pair: two half batches', or the single-batch one rebuilt
        assert len(refs) == 1 + 2 * (2 if force == "true" else 3)

    def test_cg_compare_holds_at_most_two_direction_blocks(self, tmp_path, monkeypatch):
        # after training, cg-compare's CG runs and trajectory scoring hold at
        # most two (P, cg_iterations) float64 blocks' worth of new memory:
        # each trace keeps one direction block and no iterate list, and the
        # full-batch values come from its gram, with no displacement block
        import tracemalloc

        from quadbias.harness import experiments

        real_train = experiments.train

        def train_then_trace(*args, **kwargs):
            checkpoints = real_train(*args, **kwargs)
            tracemalloc.start()
            return checkpoints

        monkeypatch.setattr(experiments, "train", train_then_trace)
        sections = read_config_text(CONFIG_TEXT)
        # P = 67,843: wide enough that one forward-mode pass (at most
        # BLOCK_BUDGET rows x columns) is small against a block
        sections["model"]["layers"] = "4,256,256,3"
        sections["dataset"]["train_frac"] = "0.75"
        sections["experiment"].update(kind="cg-compare", cg_iterations="30",
                                      batch_sizes="32", seeds="0")
        cfg = parse_experiment_config(sections)
        try:
            run_experiment(cfg, tmp_path / "r")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        unit = Mlp(cfg.arch).n_params * cfg.cg_iterations * 8
        assert peak <= 2.0 * unit, f"peak {peak / unit:.2f} blocks"

    def test_bias_scan_curvature_ratio_recomputed_from_scan_csvs(self, tmp_path):
        cfg = self._config(tmp_path)
        assert cfg.n_directions > 1  # so the FULL row of another direction differs
        out = run_experiment(cfg, tmp_path / "r")
        stats = json.loads((out / "summary.json").read_text())["curvature_ratio_stats"]
        expected = {}
        for b in cfg.batch_sizes:
            for seed in cfg.seeds:
                ratios = []
                for m in range(cfg.n_source_batches):
                    _, _, rows = read_csv(out / f"scan_b{b}_s{seed}_m{m}.csv")
                    # cells are written with 17 digits, so the quotient is exact
                    curv = {r[1]: float(r[3]) for r in rows if r[0] == "0"}
                    ratios.append(curv[str(m)] / curv["FULL"])
                expected[f"b{b}_s{seed}"] = {
                    "overestimated_fraction": float(np.mean([r > 1.0 for r in ratios])),
                    "median_ratio": float(np.median(ratios)),
                }
        assert stats == expected

    def test_bias_scan_ratio_excludes_a_zero_full_batch_curvature(self, tmp_path,
                                                                   monkeypatch, caplog):
        from quadbias.diagnostics import ScanReport
        from quadbias.harness import experiments

        def report(m, same, full):
            # direction 0 only: same-batch curvature `same`, full-batch `full`
            return ScanReport(source_batch=m, batch_ids=[0, 1, 2], slopes=np.zeros((1, 4)),
                              curvatures=np.array([[same, same, same, full]]))

        def fake_scan(cfg, dataset, mlp, theta, batch_size, seed):
            if batch_size == 16:
                return [], [report(0, 2.0, 1.0), report(1, 0.5, 1.0), report(2, 3.0, 0.0)]
            return [], [report(0, 1.0, 0.0), report(1, 0.0, 0.0)]

        monkeypatch.setattr(experiments, "_scan_at", fake_scan)
        caplog.set_level(logging.WARNING, logger="quadbias.harness.experiments")
        cfg = self._config(tmp_path, extra={"seeds": "0"})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = run_experiment(cfg, tmp_path / "r")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        stats = json.loads((out / "summary.json").read_text())["curvature_ratio_stats"]
        assert stats["b16_s0"] == {"overestimated_fraction": 0.5, "median_ratio": 1.25}
        assert all(v is None for v in stats["b32_s0"].values())
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 2
        assert "batch size 16, seed 0: 1 of 3 curvature ratios excluded" in messages[0]
        assert "batch size 32, seed 0: 2 of 2 curvature ratios excluded" in messages[1]

    @pytest.mark.parametrize("same, full", [(2.0, np.nan), (np.inf, 1.0)])
    def test_bias_scan_ratio_of_a_non_finite_curvature_raises(self, same, full, caplog):
        # not logged as "< 1e-14" and excluded, as a NaN would be by the floor
        from quadbias.diagnostics import ScanReport
        from quadbias.harness import experiments

        reports = [ScanReport(source_batch=m, batch_ids=[0, 1], slopes=np.zeros((1, 3)),
                              curvatures=np.array([[c, c, f]]))
                   for m, (c, f) in enumerate([(1.0, 1.0), (same, full)])]
        caplog.set_level(logging.WARNING, logger="quadbias.harness.experiments")
        with pytest.raises(NumericalError, match="curvature ratio: non-finite"):
            experiments._ratio_stats(reports, 16, 0)
        assert not caplog.records

    def test_laplace_sweep_grid_shape(self, tmp_path):
        cfg = self._config(
            tmp_path, kind="laplace-sweep",
            extra={"la_grid_points": "3", "mc_samples": "5",
                   "batch_sizes": "32", "seeds": "0,1"},
            dataset={"train_frac": "0.75"},
        )
        out = run_experiment(cfg, tmp_path / "r")
        _, header, rows = read_csv(out / "la_sweep.csv")
        assert header == ["method", "beta", "metric", "value", "seed"]
        grid = sorted({float(r[1]) for r in rows})
        assert len(grid) == 4  # 3 grid points + the extra 10.0
        for method, seeds in (("map", {-1}), ("fullbatch", {-1}),
                              ("single", {0, 1}), ("debiased", {0, 1})):
            rows_m = [r for r in rows if r[0] == method]
            assert {int(r[4]) for r in rows_m} == seeds
            for metric in ("accuracy", "nll", "ece"):
                per = [r for r in rows_m if r[2] == metric]
                assert len(per) == len(grid) * len(seeds)

    def test_laplace_sweep_with_ood_reports_auroc(self, tmp_path):
        cfg = self._config(
            tmp_path, kind="laplace-sweep",
            extra={"la_grid_points": "2", "mc_samples": "4",
                   "batch_sizes": "32", "seeds": "0"},
            dataset={"train_frac": "0.75", "ood_translation": "3.0",
                     "ood_noise_mult": "2.0"},
        )
        out = run_experiment(cfg, tmp_path / "r")
        _, _, rows = read_csv(out / "la_sweep.csv")
        aurocs = [float(r[3]) for r in rows if r[2] == "auroc"]
        assert aurocs
        assert all(0.0 <= a <= 1.0 for a in aurocs)

    def _laplace_sweep(self, tmp_path, caplog):
        caplog.set_level(logging.WARNING, logger="quadbias.laplace")
        cfg = self._config(
            tmp_path, kind="laplace-sweep",
            extra={"la_grid_points": "2", "mc_samples": "4",
                   "batch_sizes": "32", "seeds": "0,1"},
            dataset={"train_frac": "0.75", "ood_translation": "3.0"},
        )
        out = run_experiment(cfg, tmp_path / "r")
        summary = json.loads((out / "summary.json").read_text())
        return summary, read_csv(out / "la_sweep.csv")[2]

    def test_laplace_sweep_without_test_split_is_validation_error(self, tmp_path,
                                                                  monkeypatch):
        from quadbias.harness import experiments

        def no_training(*args, **kwargs):
            raise AssertionError("train ran before the test split was checked")

        monkeypatch.setattr(experiments, "train", no_training)
        cfg = self._config(tmp_path, kind="laplace-sweep",
                           extra={"la_grid_points": "2", "mc_samples": "2",
                                  "batch_sizes": "32", "seeds": "0"})
        assert cfg.dataset.train_frac == 1.0
        with pytest.raises(ValidationError, match="laplace-sweep .*test split is empty"):
            run_experiment(cfg, tmp_path / "r")

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_too_few_training_rows_rejected_before_training(self, tmp_path, monkeypatch,
                                                            kind):
        # 3 rows, 2 of them for training: no full batch of batch_sizes[0] = 16
        from quadbias.harness import experiments

        def no_training(*args, **kwargs):
            raise AssertionError("train ran without a full batch of training rows")

        monkeypatch.setattr(experiments, "train", no_training)
        cfg = self._config(tmp_path, kind=kind, dataset={"n": "3", "train_frac": "0.75"})
        with pytest.raises(ValidationError,
                           match="config key 'batch_sizes': .* the dataset has 2$"):
            run_experiment(cfg, tmp_path / "r")

    def test_bias_scan_needs_a_full_batch_of_every_batch_size(self, tmp_path, monkeypatch):
        # 24 training rows hold a batch of 16 rows but none of 32
        from quadbias.harness import experiments

        def no_training(*args, **kwargs):
            raise AssertionError("train ran without a full batch of 32 rows")

        monkeypatch.setattr(experiments, "train", no_training)
        cfg = self._config(tmp_path, dataset={"n": "24"})
        with pytest.raises(ValidationError, match="needs 32 training rows, the dataset has 24"):
            run_experiment(cfg, tmp_path / "r")

    @pytest.mark.parametrize("kind,force,rejected", [("cg-compare", "false", True),
                                                     ("laplace-sweep", "false", True),
                                                     ("cg-compare", "true", False)])
    def test_half_batches_need_two_of_them(self, tmp_path, monkeypatch, kind, force,
                                           rejected):
        # one training row holds the single batch of 1 row but not two halves
        # of max(1, 1 // 2) = 1 row; congruence mode draws no halves
        from quadbias.harness import experiments

        def no_training(*args, **kwargs):
            raise AssertionError("train ran")

        monkeypatch.setattr(experiments, "train", no_training)
        cfg = self._config(tmp_path, kind=kind,
                           extra={"batch_sizes": "1", "force_same_batch": force},
                           dataset={"n": "3", "train_frac": "0.34"})
        if rejected:
            with pytest.raises(ValidationError, match="needs 2 training rows, the dataset has 1"):
                run_experiment(cfg, tmp_path / "r")
        else:
            with pytest.raises(AssertionError, match="train ran"):
                run_experiment(cfg, tmp_path / "r")

    def test_laplace_sweep_summary_recomputed_from_csv(self, tmp_path, caplog):
        summary, rows = self._laplace_sweep(tmp_path, caplog)
        betas = sorted({float(r[1]) for r in rows})
        nll = {b: {} for b in (betas[0], betas[-1])}
        for method, beta, metric, value, seed in rows:
            if metric == "nll" and method != "map" and float(beta) in nll:
                key = method if seed == "-1" else f"{method}_s{seed}"
                nll[float(beta)][key] = float(value)
        at_min = nll[betas[0]]
        assert summary["nll_at_min_beta"] == at_min
        # the grid's two ends differ everywhere, so a summary read at another
        # beta would not pass
        assert all(at_min[k] != nll[betas[-1]][k] for k in at_min)
        full = at_min["fullbatch"]
        closer = sum(abs(at_min[f"debiased_s{s}"] - full) <= abs(at_min[f"single_s{s}"] - full)
                     for s in (0, 1))
        assert summary["debiased_closer_to_fullbatch_count"] == closer

    def test_laplace_sweep_logs_at_most_one_clamp_warning_per_fit(self, tmp_path, caplog):
        self._laplace_sweep(tmp_path, caplog)
        clamps = [r for r in caplog.records if "clamping" in r.getMessage()]
        assert 0 < len(clamps) <= 5  # fullbatch, then single and debiased for 2 seeds

    def test_one_clamp_warning_per_fit_over_six_betas(self, caplog):
        from quadbias.harness.experiments import _fit_metrics

        caplog.set_level(logging.WARNING, logger="quadbias.laplace")
        mlp, p, batch = small_problem(seed=80, n=20)
        blocks = [KfacBlock(0, DenseSymMatrix(np.diag([1.0] * 4 + [-1e-9])),
                            DenseSymMatrix(np.eye(8))),
                  KfacBlock(1, DenseSymMatrix(np.eye(8)), DenseSymMatrix(np.eye(4)))]
        grid = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)
        lin = mlp.linearize(p, batch.inputs)
        for fit in range(2):
            post = build_posterior(blocks, p, 50, grid[0])
            metrics = _fit_metrics(post, grid, 3, fit, batch.labels, lin, batch.size)
            assert len(metrics) == len(grid)
        clamps = [r.getMessage() for r in caplog.records if "clamping" in r.getMessage()]
        assert clamps == ["clamping 1 slightly negative eigenvalues in 1 of 4 factors "
                          "(min -1.000e-09) to zero"] * 2

    def test_predictive_metrics_ood_entropy_is_over_the_ood_rows(self):
        from quadbias.harness.experiments import _predictive_metrics

        # the test rows stacked over the OOD rows
        test = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        ood = np.array([[0.5, 0.5], [0.7, 0.3]])
        labels = np.array([0, 1, 1])

        def entropy(p):
            return -np.sum(p * np.log(p), axis=1)

        m = _predictive_metrics(np.vstack([test, ood]), labels, 3)
        assert m["mean_ood_entropy"] == pytest.approx(np.mean(entropy(ood)), rel=1e-12)
        assert m["accuracy"] == pytest.approx(2 / 3)
        assert m["nll"] == pytest.approx(-np.mean(np.log([0.9, 0.8, 0.4])), rel=1e-12)
        # OOD entropies ln 2 and 0.61 against test 0.33, 0.50 and 0.67
        assert m["auroc"] == pytest.approx(5 / 6)
        assert set(_predictive_metrics(test, labels, 3)) == {"accuracy", "nll", "ece"}

    def test_bias_over_training_series(self, tmp_path):
        cfg = self._config(tmp_path, kind="bias-over-training",
                           extra={"batch_sizes": "32", "seeds": "0", "k": "2"})
        out = run_experiment(cfg, tmp_path / "r")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["epochs"][-1] == cfg.train.epochs
        _, _, rows = read_csv(out / "bias_over_training.csv")
        assert rows

    def test_size_sweep_series(self, tmp_path):
        cfg = self._config(tmp_path, kind="size-sweep",
                           extra={"batch_sizes": "32", "seeds": "0", "k": "2",
                                  "widths": "4,8"})
        out = run_experiment(cfg, tmp_path / "r")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["widths"] == [4, 8]
        assert len(summary["n_params"]) == 2

    def _wide_csv_config(self, tmp_path, kind, model):
        """A csv_file dataset of 4 columns and 3 classes; the config sets no
        dim or classes, so they keep their defaults 2 and 2."""
        path = tmp_path / "wide.csv"
        write_csv(path, *dataset_table(Rng(3).normal(4 * 90).reshape(90, 4), np.arange(90) % 3),
                  "0" * 64)
        sections = read_config_text(CONFIG_TEXT)
        sections["experiment"].update(kind=kind, batch_sizes="16", seeds="0", widths="4,8")
        sections["dataset"] = {"generator": "csv_file", "path": str(path), "train_frac": "0.8"}
        sections["model"] = model
        return parse_experiment_config(sections)

    @pytest.mark.parametrize("kind", ["bias-scan", "size-sweep"])
    def test_csv_width_against_default_layers_rejected_before_training(self, tmp_path,
                                                                       monkeypatch, kind):
        from quadbias.harness import experiments

        def no_training(*args, **kwargs):
            raise AssertionError("train ran on layers that do not fit the csv file")

        monkeypatch.setattr(experiments, "train", no_training)
        cfg = self._wide_csv_config(tmp_path, kind, {})
        with pytest.raises(ValidationError, match=r"layers \(2, 16, 2\): config key 'layers' "
                                                  r"in \[model\] .* dim = 4 and classes = 3"):
            run_experiment(cfg, tmp_path / "r")

    @pytest.mark.parametrize("kind", ["bias-scan", "size-sweep"])
    def test_csv_wider_than_two_columns_runs(self, tmp_path, kind):
        out = run_experiment(self._wide_csv_config(tmp_path, kind, {"layers": "4,8,3"}),
                             tmp_path / "r")
        summary = json.loads((out / "summary.json").read_text())
        if kind == "size-sweep":
            assert summary["n_params"] == [4 * w + w + w * 3 + 3 for w in (4, 8)]
        else:
            assert summary["n_params"] == 4 * 8 + 8 + 8 * 3 + 3

    def test_train_command_checks_csv_width_against_layers(self, tmp_path, capsys):
        cfg = self._wide_csv_config(tmp_path, "bias-scan", {})
        path = tmp_path / "wide.ini"
        write_config(cfg.sections, path)
        assert cli.main(["--config", str(path), "--out-dir", str(tmp_path / "c"), "train"]) == 1
        assert "config key 'layers' in [model]" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()


class TestCli:
    def _write_config(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT)
        return path

    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "quadbias.harness.cli", *args],
            capture_output=True, text=True,
        )

    def _gen_data_config(self, tmp_path):
        """CONFIG_TEXT with a test split and an OOD split, so gen-data
        writes all three dataset files."""
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT.replace("train_frac = 1.0",
                                            "train_frac = 0.75\nood_translation = 3.0"))
        return path

    def test_gen_data_then_verify(self, tmp_path):
        cfg = self._gen_data_config(tmp_path)
        out = tmp_path / "data"
        res = self._run("--config", str(cfg), "--out-dir", str(out), "gen-data")
        assert res.returncode == 0, res.stderr
        res = self._run("verify", str(out))
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("verified 4 files")
        digest = config_digest(read_config_text(cfg.read_text()))
        assert verify_result_dir(out) == {
            "digest": digest, "files": ["ood.csv", "summary.json", "test.csv", "train.csv"],
            "mismatches": [], "consistent": True}
        x, labels = load_csv(out / "train.csv")
        assert x.shape == (96, 4)

    def test_gen_data_csv_loads_bitwise_and_runs_as_csv_file(self, tmp_path):
        cfg = self._gen_data_config(tmp_path)
        out = tmp_path / "data"
        assert cli.main(["--config", str(cfg), "--out-dir", str(out), "gen-data"]) == 0
        sections = read_config_text(cfg.read_text())
        dataset = generate_dataset(parse_dataset_spec(sections))
        for name, inputs, labels in (("train", dataset.train_inputs, dataset.train_labels),
                                     ("test", dataset.test_inputs, dataset.test_labels),
                                     ("ood", dataset.ood_inputs, dataset.ood_labels)):
            x, y = load_csv(out / f"{name}.csv")
            assert x.tobytes() == inputs.tobytes(), name
            np.testing.assert_array_equal(y, labels)
        sections["dataset"] = {"generator": "csv_file", "path": str(out / "train.csv"),
                               "train_frac": "1.0"}
        sections["experiment"].update(batch_sizes="32", seeds="0")
        run = run_experiment(parse_experiment_config(sections), tmp_path / "r")
        assert verify_result_dir(run)["consistent"]
        # slope and curvature rows of the n_source_batches = 2 sources
        assert len(read_csv(run / "bias_summary.csv")[2]) == 2 * 2

    def test_train_writes_checkpoints(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "ckpts"
        res = self._run("--config", str(cfg), "--out-dir", str(out), "train")
        assert res.returncode == 0, res.stderr
        files = sorted(out.glob("*.qckpt"))
        assert files
        ckpt = load_checkpoint(files[-1])
        assert ckpt.epoch == 4

    def test_train_checkpoints_carry_the_config_digest(self, tmp_path, capsys):
        out = tmp_path / "ckpts"
        cfg = self._write_config(tmp_path)
        assert cli.main(["--config", str(cfg), "--out-dir", str(out), "train"]) == 0
        files = sorted(out.glob("*.qckpt"))
        digest = json.loads((out / "summary.json").read_text())["config_digest"]
        assert [load_checkpoint(f).config_digest for f in files] == [digest] * len(files)
        capsys.readouterr()
        assert cli.main(["verify", str(out)]) == 0
        assert f"verified {len(files) + 1} files" in capsys.readouterr().out
        # one checkpoint stamped with another digest fails, naming the file
        head, _, tail = files[1].read_bytes().partition(b"\n")
        meta = json.loads(head)
        meta["config_digest"] = "0" * len(digest)
        files[1].write_bytes(json.dumps(meta, sort_keys=True).encode() + b"\n" + tail)
        assert cli.main(["verify", str(out)]) == 1
        assert files[1].name in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "bias-scan"])
    @pytest.mark.parametrize("momentum", ["1", "2", "-1"])
    def test_momentum_outside_unit_interval_rejected_before_training(
            self, tmp_path, monkeypatch, capsys, command, momentum):
        from quadbias.harness import experiments

        def no_training(*args, **kwargs):
            raise AssertionError(f"train ran with momentum = {momentum}")

        monkeypatch.setattr(experiments, "train", no_training)
        monkeypatch.setattr(cli, "train", no_training)
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT.replace("momentum = 0.9", f"momentum = {momentum}"))
        assert cli.main(["--config", str(path), "--out-dir", str(tmp_path / "r"), command]) == 1
        assert ("config key 'momentum' in [train] must be in [0, 1)"
                in capsys.readouterr().err)

    def test_bias_scan_and_verify_roundtrip(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "scan"
        res = self._run("--config", str(cfg), "--out-dir", str(out), "bias-scan")
        assert res.returncode == 0, res.stderr
        res2 = self._run("verify", str(out))
        assert res2.returncode == 0, res2.stderr

    @pytest.mark.parametrize("name, content", [
        ("plot.svg", b""),
        ("summary.json", b'{"config_digest": '),
        ("summary.json", b"[1, 2]"),
        ("ckpt_epoch0001.qckpt", b"not json\n\x00\x01"),
        ("ckpt_epoch0002.qckpt", b'{"config_digest": "d1gest", "format_version": 2}\n'),
        ("a.csv", b"\xff\xfe# config=d1gest\nx\n1\n"),
        ("b.svg", b"\xff\xfe<!-- config=d1gest -->\n<svg/>\n"),
    ], ids=["empty_svg", "malformed_summary", "summary_not_an_object", "checkpoint_header",
            "checkpoint_without_fields", "csv_not_utf8", "svg_not_utf8"])
    def test_verify_damaged_file_is_validation_error(self, tmp_path, name, content):
        out = tmp_path / "r"
        out.mkdir()
        (out / name).write_bytes(content)
        res = self._run("verify", str(out))
        assert res.returncode == 1
        assert res.stderr.startswith("validation error")
        assert name in res.stderr
        assert "Traceback" not in res.stderr

    def test_gen_data_malformed_value_is_validation_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(CONFIG_TEXT.replace("n = 128", "n = abc"))
        res = self._run("--config", str(path), "--out-dir", str(tmp_path / "d"),
                        "gen-data")
        assert res.returncode == 1
        assert res.stderr.startswith("validation error")
        assert "'n'" in res.stderr
        assert "Traceback" not in res.stderr

    def test_missing_csv_path_is_validation_error(self, tmp_path):
        path = tmp_path / "csv.ini"
        missing = tmp_path / "no_such.csv"
        path.write_text(f"[dataset]\ngenerator = csv_file\npath = {missing}\n")
        res = self._run("--config", str(path), "--out-dir", str(tmp_path / "d"),
                        "gen-data")
        assert res.returncode == 1
        assert res.stderr.startswith("validation error")
        assert str(missing) in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("text, message", [
        ("", "expected header"),
        ("x0,x1,label\n0.5,abc,1\n", "line 2: could not convert string to float"),
        ("x0,x1,label\n0.5,1.0,1\n0.5,1.0,1.5\n", "line 3: invalid literal for int()"),
        ("x0,x1,label\n0.5,nan,1\n", "line 2: non-finite x1 = nan"),
        ("x0,x1,label\n0.5,1.0,1\n0.3,0.2,-1\n", "line 3: label = '-1' is negative"),
        ("x0,x1,label\n0.5,1.0,1\n0.3,0.2,0\n0.1,0.4,99999999999999999999999\n",
         "line 4: label = '99999999999999999999999' is above 2**63 - 1"),
    ], ids=["empty", "non_numeric_entry", "non_integer_label", "nan_entry", "negative_label",
            "int64_overflow_label"])
    def test_malformed_csv_file_is_validation_error(self, tmp_path, text, message):
        data = tmp_path / "bad.csv"
        data.write_text(text)
        path = tmp_path / "csv.ini"
        path.write_text(f"[dataset]\ngenerator = csv_file\npath = {data}\n")
        res = self._run("--config", str(path), "--out-dir", str(tmp_path / "d"),
                        "gen-data")
        assert res.returncode == 1
        assert res.stderr.startswith("validation error")
        assert f"{data}: {message}" in res.stderr
        assert "Traceback" not in res.stderr

    def test_missing_config_is_validation_error(self, tmp_path):
        res = self._run("--config", str(tmp_path / "nope.ini"), "bias-scan")
        assert res.returncode == 1

    def test_wrong_kind_for_subcommand(self, tmp_path):
        cfg = self._write_config(tmp_path)
        res = self._run("--config", str(cfg), "--out-dir",
                        str(tmp_path / "x"), "laplace-sweep")
        assert res.returncode == 1

    def test_large_factor_round_off_is_clamped_not_rejected(self, tmp_path, capsys):
        # the training loss grows, and with it layer 0's output factor, to a
        # largest eigenvalue near 1.5e10 whose round-off reaches -1.06e-6; an
        # absolute -1e-8 floor rejected it
        path = tmp_path / "big.ini"
        path.write_text("[experiment]\nkind = laplace-sweep\nfisher_mode = empirical\n"
                        "batch_sizes = 32\nmc_samples = 1\n"
                        "[dataset]\nn = 200\ndim = 4\nclasses = 2\nseed = 2\n"
                        "train_frac = 0.5\nood_translation = 2.0\n"
                        "[model]\nlayers = 4,8,2\nloss = mse\n"
                        "[train]\nlr = 0.05\nmomentum = 0.9\nepochs = 3\nbatch_size = 1000\n")
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out-dir", str(out), "laplace-sweep"]) == 0, \
            capsys.readouterr().err
        assert (out / "summary.json").exists()

    def test_numerical_failure_exit_code(self, tmp_path):
        path = tmp_path / "diverge.ini"
        path.write_text(CONFIG_TEXT.replace("lr = 0.05", "lr = 1e12")
                                   .replace("loss = cross_entropy", "loss = mse"))
        res = self._run("--config", str(path), "--out-dir",
                        str(tmp_path / "out"), "train")
        assert res.returncode == 2
        assert "epoch" in res.stderr

    def test_seed_override(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        r1 = self._run("--config", str(cfg), "--out-dir", str(out1),
                       "--seed-override", "99", "gen-data")
        r2 = self._run("--config", str(cfg), "--out-dir", str(out2), "gen-data")
        assert r1.returncode == 0 and r2.returncode == 0
        a, _ = load_csv(out1 / "train.csv")
        b, _ = load_csv(out2 / "train.csv")
        assert not np.array_equal(a, b)


# one-key changes for the CLI property: a value from this pool, or a dropped key
_POOL = ("0", "-1", "", "nan", "inf", "1e999", "abc", "1,,2")
_CONFIG_KEYS = [(section, key) for section, keys in config_module._KEYS.items()
                for key in keys]
_SUBCOMMAND = {kind: command for command, kinds in cli._EXPERIMENT_COMMANDS.items()
               for kind in kinds}


def _tiny_sections(kind):
    """The tiny config of one kind, with a test and an OOD split."""
    sections = read_config_text(CONFIG_TEXT)
    sections["experiment"].update(kind=kind, **TestExperiments._TINY[kind][0])
    sections["dataset"].update(train_frac="0.75", ood_translation="3.0")
    return sections


@st.composite
def _one_key_changes(draw):
    """(kind, section, key, value); value None drops the key."""
    kind = draw(st.sampled_from(EXPERIMENT_KINDS))
    if draw(st.booleans()):
        sections = _tiny_sections(kind)
        section, key = draw(st.sampled_from([(s, k) for s in sections for k in sections[s]]))
        return kind, section, key, None
    section, key = draw(st.sampled_from(_CONFIG_KEYS))
    return kind, section, key, draw(st.sampled_from(_POOL))


class TestCliProperty:
    @settings(max_examples=25, deadline=None)
    @given(change=_one_key_changes())
    @example(change=("bias-scan", "experiment", "seeds", "-1"))
    @example(change=("bias-scan", "train", "seed", "-1"))
    @example(change=("bias-scan", "dataset", "seed", "-1"))
    @example(change=("laplace-sweep", "experiment", "la_grid_points", "-1"))
    @example(change=("bias-scan", "model", "layers", "4,8,2"))
    @example(change=("bias-scan", "model", "layers", "5,8,3"))
    @example(change=("bias-scan", "model", "layers", "0"))
    @example(change=("bias-scan", "dataset", "dim", None))
    @example(change=("bias-scan", "dataset", "classes", None))
    @example(change=("bias-scan", "dataset", "generator", "two_arcs"))
    def test_one_key_change_exits_cleanly(self, change):
        """Exit 0, 1 or 2 and no traceback; an exit 1 names the section or
        key and comes before training; an exit 0 writes a summary.json that
        verify accepts."""
        from quadbias.harness import experiments

        kind, section, key, value = change
        sections = _tiny_sections(kind)
        if value is None:
            del sections[section][key]
        else:
            sections[section][key] = value
        trained = []

        def spy(*args, **kwargs):
            trained.append(True)
            return train(*args, **kwargs)

        # function-scoped fixtures would be shared by every example, so each
        # example makes its own directory, patch and stderr capture
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(experiments, "train", spy), redirect_stderr(stderr):
            config_path, out = Path(tmp) / "exp.ini", Path(tmp) / "out"
            write_config(sections, config_path)
            code = cli.main(["--config", str(config_path), "--out-dir", str(out),
                             _SUBCOMMAND[kind]])
            if code == 0:
                assert (out / "summary.json").is_file()
                assert cli.main(["verify", str(out)]) == 0, stderr.getvalue()
        message = stderr.getvalue()
        assert code in (0, 1, 2)
        if code == 1:
            assert f"[{section}]" in message or re.search(rf"\b{key}\b", message), message
            assert not trained, message
