"""The package's layers as the traced run sees them: which public callables
are wrapped, what each wrapper records, and the per-layer metrics computed
from the spans of one ``run_experiment`` call."""

from __future__ import annotations

import hashlib
import os
from collections import Counter

import numpy as np

from tracer import Target, self_times

_MODEL_FNS = ("forward", "loss_and_grad", "hvp", "ggn_vp", "jvp_batch", "kfac_factors")
_REPORT_WRITERS = ("write_csv", "write_summary", "write_svg_lines", "write_svg_heatmap")
_METRIC_FNS = ("accuracy", "nll", "ece", "auroc", "predictive_entropy")
TERMINATIONS = ("max_iter", "tolerance", "negative_curvature")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _model_hook(fn):
    """Rows pushed through the network and GEMM flops, computed from the
    layer shapes: F = sum of 2*rows*in*out over layers, T the same sum
    without the first layer (no input gradient is formed there)."""

    def hook(tracer, span, args, kwargs, result):
        mlp = args[0]
        data = _arg(args, kwargs, 2, "inputs" if fn in ("forward", "jvp_batch") else "batch")
        rows = np.atleast_2d(data).shape[0] if fn in ("forward", "jvp_batch") else data.size
        sizes = mlp.arch.layer_sizes
        per_layer = [2.0 * rows * a * b for a, b in zip(sizes[:-1], sizes[1:])]
        f, t = sum(per_layer), sum(per_layer[1:])
        flops = {
            "forward": f,
            "loss_and_grad": 2 * f + t,
            "hvp": 5 * f + 3 * t,
            "ggn_vp": 4 * f + t,
            "jvp_batch": 3 * f,
            "kfac_factors": f + t + sum(2.0 * rows * (a * a + b * b)
                                        for a, b in zip(sizes[:-1], sizes[1:])),
        }[fn]
        span.attrs["rows"] = int(rows)
        span.attrs["gflop"] = flops / 1e9

    return hook


def _matvec_hook(tracer, span, args, kwargs, result):
    span.attrs["full"] = args[0].batch_id == "FULL"


def _eig_hook(tracer, span, args, kwargs, result):
    from quadbias import linalg

    dim = _arg(args, kwargs, 1, "dim")
    k = _arg(args, kwargs, 2, "k")
    dense = dim <= linalg.DENSE_FALLBACK_DIM or k >= dim - 1
    span.attrs["path"] = "dense" if dense else "arpack"
    span.attrs["k"] = int(k)


def _cg_hook(tracer, span, args, kwargs, result):
    span.attrs["iterations"] = result.n_steps
    span.attrs["termination"] = result.termination


def _debiased_cg_hook(tracer, span, args, kwargs, result):
    dir_trace, deb_trace = result
    span.attrs["iterations"] = dir_trace.n_steps
    span.attrs["termination"] = deb_trace.termination


def _scan_hook(tracer, span, args, kwargs, result):
    direction_sets, reports = result
    span.attrs["scan_evals"] = sum(r.k * (len(r.batch_ids) + 1) for r in reports)
    span.attrs["direction_sets"] = direction_sets


def _overlap_problem(om) -> str | None:
    """Entries in [0, 1] (to the package's clip) and no row capturing more
    than all of its mass."""
    lo, hi, mass = om.omega.min(), om.omega.max(), om.row_sums().max()
    if lo < 0.0 or hi > 1.0 + 1e-12 or mass > 1.0 + 1e-9:
        return f"overlap entries in [{lo}, {hi}], largest row sum {mass}"
    return None


def _overlap_hook(tracer, span, args, kwargs, result):
    span.attrs["overlap_problem"] = _overlap_problem(result)


def _predictive_hook(tracer, span, args, kwargs, result):
    span.attrs["row_sum_err"] = float(np.max(np.abs(result.sum(axis=1) - 1.0)))


def _sym_eigh_hook(tracer, span, args, kwargs, result):
    if any(a.name.startswith("laplace.") for a in tracer.ancestors(span)):
        m = args[0]
        entries = np.ascontiguousarray(getattr(m, "entries", m))
        span.attrs["factor"] = hashlib.sha1(entries.tobytes()).hexdigest()


def _write_hook(tracer, span, args, kwargs, result):
    span.attrs["bytes"] = os.path.getsize(args[0])


TARGETS = (
    [Target("quadbias.model", f"Mlp.{fn}", f"model.{fn}", _model_hook(fn)) for fn in _MODEL_FNS]
    + [
        Target("quadbias.quadratic", "CurvatureOperator.matvec", "quadratic.matvec", _matvec_hook),
        Target("quadbias.quadratic", "build_quadratic", "quadratic.build_quadratic"),
        Target("quadbias.quadratic", "fullbatch_quadratic", "quadratic.fullbatch_quadratic"),
        Target("quadbias.quadratic", "value_at", "quadratic.value_at"),
        Target("quadbias.quadratic", "grad_at", "quadratic.grad_at"),
        Target("quadbias.quadratic", "directional_curvature", "quadratic.directional_curvature"),
        Target("quadbias.linalg", "top_k_eigenpairs", "linalg.top_k_eigenpairs", _eig_hook),
        Target("quadbias.linalg", "materialize_operator", "linalg.materialize_operator"),
        Target("quadbias.linalg", "sym_eigh", "linalg.sym_eigh", _sym_eigh_hook),
        Target("quadbias.linalg", "kron_matvec", "linalg.kron_matvec"),
        Target("quadbias.cg", "cg_minimize", "cg.cg_minimize", _cg_hook),
        Target("quadbias.cg", "debiased_cg", "cg.debiased_cg", _debiased_cg_hook),
        Target("quadbias.diagnostics", "eigendirection_scan",
               "diagnostics.eigendirection_scan", _scan_hook),
        Target("quadbias.diagnostics", "bias_summary", "diagnostics.bias_summary"),
        Target("quadbias.diagnostics", "overlap_matrix", "diagnostics.overlap_matrix",
               _overlap_hook),
        Target("quadbias.laplace", "accumulate_kfac", "laplace.accumulate_kfac"),
        Target("quadbias.laplace", "build_posterior", "laplace.build_posterior"),
        Target("quadbias.laplace", "debias_kfac", "laplace.debias_kfac"),
        Target("quadbias.laplace", "sample_params", "laplace.sample_params"),
        Target("quadbias.laplace", "predictive", "laplace.predictive", _predictive_hook),
    ]
    + [Target("quadbias.metrics", fn, f"metrics.{fn}") for fn in _METRIC_FNS]
    + [
        Target("quadbias.harness.datasets", "generate_dataset",
               "harness.datasets.generate_dataset"),
        Target("quadbias.harness.datasets", "Dataset.minibatches",
               "harness.datasets.minibatches"),
        Target("quadbias.harness.training", "train", "harness.training.train"),
        Target("quadbias.harness.experiments", "run_experiment",
               "harness.experiments.run_experiment"),
    ]
    + [Target("quadbias.harness.reports", fn, f"harness.reports.{fn}", _write_hook)
       for fn in _REPORT_WRITERS]
)


# (name, unit, better). Units other than "s", "GFLOP/s" and "frac" are exact
# counts or ratios of counts: they must repeat bit for bit at a fixed seed.
PER_LAYER = (
    [m for fn in _MODEL_FNS
     for m in ((f"model.{fn}.calls", "count", "lower"), (f"model.{fn}.self_s", "s", "lower"))]
    + [
        ("model.forward_passes", "count", "lower"),
        ("model.rows", "count", "lower"),
        ("model.gflop", "GFLOP-computed", "lower"),
        ("model.gflop_per_s", "GFLOP/s", "higher"),
        ("quadratic.matvecs.full", "count", "lower"),
        ("quadratic.matvecs.batch", "count", "lower"),
        ("quadratic.matvec.self_s", "s", "lower"),
        ("quadratic.matvec_full.total_s", "s", "lower"),
        ("quadratic.matvec_batch.total_s", "s", "lower"),
        ("quadratic.build_quadratic.total_s", "s", "lower"),
        ("quadratic.fullbatch_quadratic.total_s", "s", "lower"),
        ("quadratic.forward_passes_per_matvec", "ratio", "lower"),
        ("linalg.eig_dense.calls", "count", "lower"),
        ("linalg.eig_dense.total_s", "s", "lower"),
        ("linalg.eig_arpack.calls", "count", "lower"),
        ("linalg.eig_arpack.total_s", "s", "lower"),
        ("linalg.eig_arpack.self_s", "s", "lower"),
        ("linalg.eig.matvecs", "count", "lower"),
        ("linalg.eig.matvecs_per_pair", "ratio", "lower"),
        ("linalg.materialize_operator.total_s", "s", "lower"),
        ("linalg.sym_eigh.calls", "count", "lower"),
        ("linalg.sym_eigh.self_s", "s", "lower"),
        ("linalg.kron_matvec.calls", "count", "lower"),
        ("linalg.kron_matvec.self_s", "s", "lower"),
        ("cg.iterations", "count", "lower"),
        ("cg.cg_minimize.self_s", "s", "lower"),
        ("cg.debiased_cg.self_s", "s", "lower"),
        ("cg.matvecs_per_iteration.single", "ratio", "lower"),
        ("cg.matvecs_per_iteration.debiased", "ratio", "lower"),
    ]
    + [(f"cg.termination.{t}", "count", "lower") for t in TERMINATIONS]
    + [
        ("diagnostics.eigendirection_scan.calls", "count", "lower"),
        ("diagnostics.eigendirection_scan.self_s", "s", "lower"),
        ("diagnostics.eigendirection_scan.total_s", "s", "lower"),
        ("diagnostics.scan_evals", "count", "lower"),
        ("diagnostics.bias_summary.self_s", "s", "lower"),
        ("laplace.predictive.calls", "count", "lower"),
        ("laplace.predictive.self_s", "s", "lower"),
        ("laplace.predictive.total_s", "s", "lower"),
        ("laplace.sample_params.calls", "count", "lower"),
        ("laplace.sample_params.self_s", "s", "lower"),
        ("laplace.build_posterior.calls", "count", "lower"),
        ("laplace.build_posterior.self_s", "s", "lower"),
        ("laplace.factor_eighs", "count", "lower"),
        ("laplace.distinct_factor_frac", "ratio", "higher"),
        ("laplace.accumulate_kfac.total_s", "s", "lower"),
        ("laplace.debias_kfac.total_s", "s", "lower"),
        ("metrics.self_s", "s", "lower"),
        ("metrics.predictive_entropy.calls", "count", "lower"),
        ("harness.datasets.generate_dataset.self_s", "s", "lower"),
        ("harness.datasets.minibatches.calls", "count", "lower"),
        ("harness.datasets.minibatches.self_s", "s", "lower"),
        ("harness.training.train.total_s", "s", "lower"),
        ("harness.reports.write.self_s", "s", "lower"),
        ("harness.reports.files", "count", "lower"),
        ("harness.reports.bytes", "B", "lower"),
        ("harness.experiments.self_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}
TIMED_UNITS = ("s", "GFLOP/s", "frac")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer) -> dict:
    """Per-layer metrics of the spans of one traced run, except
    ``trace.overhead_frac``, which needs the untraced wall time."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls = Counter(s.name for s in spans)
    self_s = Counter()
    total_s = Counter()
    for span, own in zip(spans, selfs):
        self_s[span.name] += own
        if not any(a.name == span.name for a in tracer.ancestors(span)):
            total_s[span.name] += span.duration

    def under(span, name):
        return any(a.name == name for a in tracer.ancestors(span))

    def spans_named(name):
        return [s for s in spans if s.name == name]

    m = {}
    model = [(s, own) for s, own in zip(spans, selfs) if s.name.startswith("model.")]
    for fn in _MODEL_FNS:
        m[f"model.{fn}.calls"] = calls[f"model.{fn}"]
        m[f"model.{fn}.self_s"] = self_s[f"model.{fn}"]
    m["model.forward_passes"] = len(model)
    m["model.rows"] = sum(s.attrs["rows"] for s, _ in model)
    m["model.gflop"] = sum(s.attrs["gflop"] for s, _ in model)
    m["model.gflop_per_s"] = _ratio(m["model.gflop"], sum(own for _, own in model))

    matvecs = spans_named("quadratic.matvec")
    full = [s for s in matvecs if s.attrs["full"]]
    batch = [s for s in matvecs if not s.attrs["full"]]
    m["quadratic.matvecs.full"] = len(full)
    m["quadratic.matvecs.batch"] = len(batch)
    m["quadratic.matvec.self_s"] = self_s["quadratic.matvec"]
    m["quadratic.matvec_full.total_s"] = sum(s.duration for s in full)
    m["quadratic.matvec_batch.total_s"] = sum(s.duration for s in batch)
    m["quadratic.build_quadratic.total_s"] = total_s["quadratic.build_quadratic"]
    m["quadratic.fullbatch_quadratic.total_s"] = total_s["quadratic.fullbatch_quadratic"]
    in_matvec = sum(1 for s, _ in model
                    if s.parent is not None and spans[s.parent].name == "quadratic.matvec")
    m["quadratic.forward_passes_per_matvec"] = _ratio(in_matvec, len(matvecs))

    eigs = [(s, own) for s, own in zip(spans, selfs) if s.name == "linalg.top_k_eigenpairs"]
    for path in ("dense", "arpack"):
        chosen = [(s, own) for s, own in eigs if s.attrs["path"] == path]
        m[f"linalg.eig_{path}.calls"] = len(chosen)
        m[f"linalg.eig_{path}.total_s"] = sum(s.duration for s, _ in chosen)
        if path == "arpack":
            m["linalg.eig_arpack.self_s"] = sum(own for _, own in chosen)
    m["linalg.eig.matvecs"] = sum(1 for s in matvecs if under(s, "linalg.top_k_eigenpairs"))
    m["linalg.eig.matvecs_per_pair"] = _ratio(m["linalg.eig.matvecs"],
                                              sum(s.attrs["k"] for s, _ in eigs))
    m["linalg.materialize_operator.total_s"] = total_s["linalg.materialize_operator"]
    for fn in ("sym_eigh", "kron_matvec"):
        m[f"linalg.{fn}.calls"] = calls[f"linalg.{fn}"]
        m[f"linalg.{fn}.self_s"] = self_s[f"linalg.{fn}"]

    solvers = spans_named("cg.cg_minimize") + spans_named("cg.debiased_cg")
    m["cg.iterations"] = sum(s.attrs["iterations"] for s in solvers)
    m["cg.cg_minimize.self_s"] = self_s["cg.cg_minimize"]
    m["cg.debiased_cg.self_s"] = self_s["cg.debiased_cg"]
    for kind, name in (("single", "cg.cg_minimize"), ("debiased", "cg.debiased_cg")):
        iterations = sum(s.attrs["iterations"] for s in spans_named(name))
        m[f"cg.matvecs_per_iteration.{kind}"] = _ratio(
            sum(1 for s in matvecs if under(s, name)), iterations)
    ends = Counter(s.attrs["termination"] for s in solvers)
    for t in TERMINATIONS:
        m[f"cg.termination.{t}"] = ends[t]

    m["diagnostics.eigendirection_scan.calls"] = calls["diagnostics.eigendirection_scan"]
    m["diagnostics.eigendirection_scan.self_s"] = self_s["diagnostics.eigendirection_scan"]
    m["diagnostics.eigendirection_scan.total_s"] = total_s["diagnostics.eigendirection_scan"]
    m["diagnostics.scan_evals"] = sum(
        s.attrs["scan_evals"] for s in spans_named("diagnostics.eigendirection_scan"))
    m["diagnostics.bias_summary.self_s"] = self_s["diagnostics.bias_summary"]

    for fn in ("predictive", "sample_params", "build_posterior"):
        m[f"laplace.{fn}.calls"] = calls[f"laplace.{fn}"]
        m[f"laplace.{fn}.self_s"] = self_s[f"laplace.{fn}"]
    m["laplace.predictive.total_s"] = total_s["laplace.predictive"]
    factors = [s.attrs["factor"] for s in spans_named("linalg.sym_eigh") if "factor" in s.attrs]
    m["laplace.factor_eighs"] = len(factors)
    m["laplace.distinct_factor_frac"] = _ratio(len(set(factors)), len(factors))
    m["laplace.accumulate_kfac.total_s"] = total_s["laplace.accumulate_kfac"]
    m["laplace.debias_kfac.total_s"] = total_s["laplace.debias_kfac"]

    m["metrics.self_s"] = sum(self_s[f"metrics.{fn}"] for fn in _METRIC_FNS)
    m["metrics.predictive_entropy.calls"] = calls["metrics.predictive_entropy"]

    m["harness.datasets.generate_dataset.self_s"] = self_s["harness.datasets.generate_dataset"]
    m["harness.datasets.minibatches.calls"] = calls["harness.datasets.minibatches"]
    m["harness.datasets.minibatches.self_s"] = self_s["harness.datasets.minibatches"]
    m["harness.training.train.total_s"] = total_s["harness.training.train"]
    writes = [s for s in spans if s.name.startswith("harness.reports.")]
    m["harness.reports.write.self_s"] = sum(self_s[f"harness.reports.{fn}"]
                                            for fn in _REPORT_WRITERS)
    m["harness.reports.files"] = len(writes)
    m["harness.reports.bytes"] = sum(s.attrs["bytes"] for s in writes)
    m["harness.experiments.self_s"] = self_s["harness.experiments.run_experiment"]
    m["trace.spans"] = len(spans)
    return m


def exact_counters(metrics: dict) -> dict:
    """The metrics that count work; they repeat exactly at a fixed seed."""
    return {name: value for name, value in metrics.items()
            if name in UNITS and UNITS[name] not in TIMED_UNITS}


def span_invariants(tracer) -> list:
    """Invariants that hold on any seed, checked on the traced spans:
    debiased CG spends exactly two matvecs per iteration, overlap entries
    lie in [0, 1], and predictive rows sum to 1."""
    from quadbias.diagnostics import overlap_matrix

    problems = []
    for span in tracer.spans:
        if span.name == "cg.debiased_cg" and span.attrs["termination"] != "negative_curvature":
            used = sum(1 for s in tracer.spans
                       if s.name == "quadratic.matvec" and any(a is span for a in tracer.ancestors(s)))
            if used != 2 * span.attrs["iterations"]:
                problems.append(f"debiased CG used {used} matvecs for "
                                f"{span.attrs['iterations']} iterations")
        elif span.name == "diagnostics.overlap_matrix" and span.attrs["overlap_problem"]:
            problems.append(span.attrs["overlap_problem"])
        elif span.name == "laplace.predictive" and span.attrs["row_sum_err"] > 1e-12:
            problems.append(f"predictive rows miss 1 by {span.attrs['row_sum_err']:.3e}")
        elif span.name == "diagnostics.eigendirection_scan":
            # overlaps between the scan's own source batches, computed here
            # because no kept workload runs the overlap experiment
            sets = span.attrs["direction_sets"]
            for a, b in zip(sets, sets[1:]):
                problem = _overlap_problem(overlap_matrix(a, b))
                if problem:
                    problems.append(problem)
    return problems
