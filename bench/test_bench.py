"""Tests of the benchmark's own machinery: self-time arithmetic, wrapper
install and removal, the seed plumbing, the reference comparison, and the
agreement of BENCHMARK.json with the code."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from layers import PER_LAYER, TARGETS, exact_counters, layer_metrics
from tracer import MARKER, Span, Tracer, install, installed_wrappers, self_times, uninstall
from workloads import CHECK_SEED, DEFAULT_SEED, load_config

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),   # overlaps a: [1, 6] is covered once
        Span("a.child", 2.0, 3.0, 1),
        Span("c", 8.0, 12.0, 0),  # runs past its parent: only [8, 10] counts
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 2, 3 - 1, 3, 1, 4])


def test_self_time_of_sequential_children():
    spans = [Span("p", 0.0, 1.0, None)] + [
        Span("k", 0.1 * i, 0.1 * i + 0.05, 0) for i in range(10)
    ]
    assert self_times(spans)[0] == pytest.approx(0.5)


def _small_problem():
    from quadbias import Mlp, MlpArchitecture, Rng
    from quadbias.model import Batch, one_hot

    arch = MlpArchitecture((5, 8, 4), "relu", "cross_entropy")
    mlp = Mlp(arch)
    r = Rng(0)
    params = mlp.init_params(r)
    x = r.normal(12 * 5).reshape(12, 5)
    return mlp, params, Batch(x, one_hot(r.integers(0, 4, 12), 4))


def test_wrappers_are_installed_where_callers_look_and_removed():
    import quadbias
    from quadbias import diagnostics, quadratic
    from quadbias.harness import experiments

    before = {
        "top_k": diagnostics.top_k_eigenpairs,
        "predictive": experiments.predictive,
        "matvec": quadratic.CurvatureOperator.__dict__["matvec"],
        "value_at": quadratic.value_at,
    }
    tracer = Tracer()
    patches = install(tracer, TARGETS)
    try:
        assert hasattr(diagnostics.top_k_eigenpairs, MARKER)
        assert hasattr(experiments.predictive, MARKER)
        assert hasattr(quadbias.build_quadratic, MARKER)
        op_dict = quadratic.CurvatureOperator.__dict__
        assert hasattr(op_dict["matvec"], MARKER)
        assert op_dict["__call__"] is op_dict["matvec"]

        mlp, params, batch = _small_problem()
        q = quadratic.build_quadratic(mlp, params, batch, "ggn", beta=0.1)
        q.curvature(np.ones(params.n_params))
        quadratic.value_at(q, params.values + 1.0)
        names = [s.name for s in tracer.spans]
        assert names == ["quadratic.build_quadratic", "model.loss_and_grad",
                         "quadratic.matvec", "model.ggn_vp",
                         "quadratic.value_at", "quadratic.matvec", "model.ggn_vp"]
        parents = [None if s.parent is None else tracer.spans[s.parent].name
                   for s in tracer.spans]
        assert parents == [None, "quadratic.build_quadratic", None, "quadratic.matvec",
                           None, "quadratic.value_at", "quadratic.matvec"]
        metrics = layer_metrics(tracer)
        assert metrics["quadratic.matvecs.batch"] == 2
        assert metrics["model.forward_passes"] == 3
        assert metrics["model.rows"] == 36
        assert metrics["quadratic.forward_passes_per_matvec"] == 1.0
    finally:
        uninstall(patches)
    assert installed_wrappers() == []
    assert diagnostics.top_k_eigenpairs is before["top_k"]
    assert experiments.predictive is before["predictive"]
    assert quadratic.CurvatureOperator.__dict__["matvec"] is before["matvec"]
    assert quadratic.CurvatureOperator.__dict__["__call__"] is before["matvec"]
    assert quadratic.value_at is before["value_at"]


def test_seed_reaches_dataset_training_and_experiment_seeds():
    assert CHECK_SEED != DEFAULT_SEED
    for name in run.WORKLOAD_NAMES:
        base = load_config(name, DEFAULT_SEED)
        other = load_config(name, CHECK_SEED)
        assert other.dataset.seed == base.dataset.seed + CHECK_SEED
        assert other.train.seed == base.train.seed + CHECK_SEED
        assert other.seeds == tuple(s + CHECK_SEED for s in base.seeds)
        assert other.digest != base.digest
    toy = load_config("scan-toy", DEFAULT_SEED)
    assert (toy.dataset.seed, toy.train.seed, toy.seeds) == (7, 11, (0,))
    assert toy.arch.layer_sizes == (16, 36, 20, 10)


def test_reference_compare_passes_roundoff_and_fails_wrong_numbers(tmp_path):
    out = tmp_path / "out"
    shutil.copytree(checks.REFERENCE_DIR / "cg-medium", out)
    assert checks.compare_reference(out, "cg-medium") == []

    csv = out / "cg_compare.csv"
    lines = csv.read_text().splitlines()
    cells = lines[5].split(",")
    value = float(cells[3])
    cells[3] = repr(value * (1 + 1e-12))
    csv.write_text("\n".join(lines[:5] + [",".join(cells)] + lines[6:]) + "\n")
    assert checks.compare_reference(out, "cg-medium") == []

    cells[3] = repr(value * (1 + 1e-4))
    csv.write_text("\n".join(lines[:5] + [",".join(cells)] + lines[6:]) + "\n")
    assert checks.compare_reference(out, "cg-medium") != []


def test_exact_counters_leave_out_timings():
    tracer = Tracer()
    counters = exact_counters(layer_metrics(tracer))
    assert "model.ggn_vp.calls" in counters
    assert "model.ggn_vp.self_s" not in counters
    assert "trace.overhead_frac" not in counters


def test_benchmark_json_names_the_workloads_and_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
