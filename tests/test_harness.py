"""Datasets, training/checkpoints, configuration, reports, experiments, CLI."""

import json
import logging
import subprocess
import sys

import numpy as np
import pytest

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
from quadbias.harness.config import (
    EXPERIMENT_KINDS,
    config_digest,
    parse_dataset_spec,
    read_config_text,
)
from quadbias.harness.datasets import load_csv, save_csv
from quadbias.harness.reports import write_csv, write_summary
from quadbias.harness.training import checkpoint_epochs
from quadbias.laplace import PredictiveConfig, build_posterior
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

    def test_csv_split_is_seeded_and_label_mixed(self, tmp_path):
        # rows sorted by label: a split in file order would leave label 2
        # out of train and labels 0 and 1 out of test
        path = tmp_path / "sorted.csv"
        x = np.arange(120, dtype=np.float64).reshape(60, 2)
        save_csv(path, x, np.repeat([0, 1, 2], 20))
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

    def test_save_csv_exact_roundtrip(self, tmp_path):
        rng = Rng(11)
        x = rng.normal(12).reshape(4, 3)
        labels = np.array([0, 1, 1, 0])
        save_csv(tmp_path / "d.csv", x, labels)
        x2, l2 = load_csv(tmp_path / "d.csv")
        np.testing.assert_array_equal(x, x2)
        np.testing.assert_array_equal(labels, l2)

    def test_unsupported_generator(self):
        with pytest.raises(ValidationError):
            DatasetSpec(generator="mnist")

    def test_minibatch_partition_disjoint_cover(self):
        spec = DatasetSpec(generator="gaussian_blobs", n=64, d=3, c=2, seed=6,
                           train_frac=1.0)
        ds = generate_dataset(spec)
        batches = ds.minibatches(16, seed=3)
        idx = np.concatenate([b.indices for b in batches])
        assert sorted(idx.tolist()) == list(range(64))
        assert all(b.size == 16 for b in batches)


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
        ckpt = train(arch, ds, cfg)[-1]
        path = tmp_path / "model.qckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.params.values, ckpt.params.values)
        assert loaded.epoch == ckpt.epoch
        assert loaded.arch == ckpt.arch
        assert loaded.config_digest == ckpt.config_digest

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

    def test_verify_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            verify_result_dir(tmp_path)


class TestExperiments:
    def _config(self, tmp_path, kind="bias-scan", extra=None, dataset=None):
        sections = read_config_text(CONFIG_TEXT)
        sections["experiment"]["kind"] = kind
        for key, value in (extra or {}).items():
            sections["experiment"][key] = value
        for key, value in (dataset or {}).items():
            sections["dataset"][key] = value
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

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_outputs_byte_identical_across_runs(self, tmp_path, kind):
        extra, expected = self._TINY[kind]
        # a test split and an OOD split, so laplace-sweep computes every metric
        cfg = self._config(tmp_path, kind=kind, extra=extra,
                           dataset={"train_frac": "0.75", "ood_translation": "3.0"})
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

    def test_scan_csv_row_count(self, tmp_path):
        cfg = self._config(tmp_path)
        out = run_experiment(cfg, tmp_path / "r")
        path = next(iter(sorted(out.glob("scan_b16_s0_*.csv"))))
        _, _, rows = read_csv(path)
        n_batches = 128 // 16
        assert len(rows) == cfg.n_directions * (n_batches + 1)
        full_rows = [r for r in rows if r[1] == "FULL"]
        assert len(full_rows) == cfg.n_directions

    def test_overlap_experiment(self, tmp_path):
        cfg = self._config(tmp_path, kind="overlap")
        out = run_experiment(cfg, tmp_path / "r")
        files = sorted(out.glob("overlap_*.csv"))
        assert files
        _, header, rows = read_csv(files[0])
        assert header == ["i", "j", "omega"]
        omegas = np.array([float(r[2]) for r in rows])
        assert np.all(omegas >= 0.0) and np.all(omegas <= 1.0 + 1e-12)

    def test_cg_compare_same_batch_forced(self, tmp_path):
        cfg = self._config(
            tmp_path, kind="cg-compare",
            extra={"force_same_batch": "true", "cg_iterations": "8",
                   "batch_sizes": "32", "seeds": "0"},
        )
        out = run_experiment(cfg, tmp_path / "r")
        _, _, rows = read_csv(out / "cg_compare.csv")
        single = [r for r in rows if r[0] == "single"]
        debiased = [r for r in rows if r[0] == "debiased"]
        assert len(single) == len(debiased) > 0
        for s, d in zip(single, debiased):
            assert s[2:] == d[2:]  # identical q and accuracy columns

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

    def test_laplace_sweep_without_test_split_is_validation_error(self, tmp_path):
        cfg = self._config(tmp_path, kind="laplace-sweep",
                           extra={"la_grid_points": "2", "mc_samples": "2",
                                  "batch_sizes": "32", "seeds": "0"})
        assert cfg.dataset.train_frac == 1.0
        with pytest.raises(ValidationError, match="empty table"):
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
        lins = [mlp.linearize(p, batch.inputs)]
        for fit in range(2):
            post = build_posterior(blocks, p, 50, grid[0])
            metrics = _fit_metrics(mlp, post, grid, PredictiveConfig(3, seed=fit),
                                   batch.labels, lins)
            assert len(metrics) == len(grid)
        clamps = [r.getMessage() for r in caplog.records if "clamping" in r.getMessage()]
        assert clamps == ["clamping 1 slightly negative eigenvalues in 1 of 4 factors "
                          "(min -1.000e-09) to zero"] * 2

    def test_predictive_metrics_ood_entropy_is_over_the_ood_rows(self):
        from quadbias.harness.experiments import _predictive_metrics

        probs = {"test": np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]]),
                 "ood": np.array([[0.5, 0.5], [0.7, 0.3]])}
        labels = np.array([0, 1, 1])

        def entropy(p):
            return -np.sum(p * np.log(p), axis=1)

        m = _predictive_metrics(probs.__getitem__, labels, ["test", "ood"])
        assert m["mean_ood_entropy"] == pytest.approx(np.mean(entropy(probs["ood"])), rel=1e-12)
        assert m["accuracy"] == pytest.approx(2 / 3)
        assert m["nll"] == pytest.approx(-np.mean(np.log([0.9, 0.8, 0.4])), rel=1e-12)
        # OOD entropies ln 2 and 0.61 against test 0.33, 0.50 and 0.67
        assert m["auroc"] == pytest.approx(5 / 6)
        assert set(_predictive_metrics(probs.__getitem__, labels, ["test"])) == {
            "accuracy", "nll", "ece"}

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

    def test_gen_data_then_verify(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "data"
        res = self._run("--config", str(cfg), "--out-dir", str(out), "gen-data")
        assert res.returncode == 0, res.stderr
        assert (out / "train.csv").exists()
        x, labels = load_csv(out / "train.csv")
        assert x.shape == (128, 4)

    def test_train_writes_checkpoints(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "ckpts"
        res = self._run("--config", str(cfg), "--out-dir", str(out), "train")
        assert res.returncode == 0, res.stderr
        files = sorted(out.glob("*.qckpt"))
        assert files
        ckpt = load_checkpoint(files[-1])
        assert ckpt.epoch == 4

    def test_bias_scan_and_verify_roundtrip(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "scan"
        res = self._run("--config", str(cfg), "--out-dir", str(out), "bias-scan")
        assert res.returncode == 0, res.stderr
        res2 = self._run("verify", str(out))
        assert res2.returncode == 0, res2.stderr

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

    def test_missing_config_is_validation_error(self, tmp_path):
        res = self._run("--config", str(tmp_path / "nope.ini"), "bias-scan")
        assert res.returncode == 1

    def test_wrong_kind_for_subcommand(self, tmp_path):
        cfg = self._write_config(tmp_path)
        res = self._run("--config", str(cfg), "--out-dir",
                        str(tmp_path / "x"), "laplace-sweep")
        assert res.returncode == 1

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
