"""Mutation smoke for the numerical core and the harness.

Each mutant is one exact text replacement in one file under src/. The
script copies src/, tests/ and the workload configs of bench/ to a temporary
directory and first runs that unmutated copy once over every test file some
mutant names. Then, for every mutant, it makes a fresh copy, applies the
replacement there, runs the mutant's test subset with ``pytest -x`` and
records whether a test failed (killed) or all passed (survived); two
mutated copies are tested at a time, and the table lists them in the order
of ``MUTANTS`` with each one's own seconds. Every run,
the unmutated one included, uses the ``mutants`` hypothesis profile of
``tests/conftest.py``, which reports a failing example without shrinking
it. The working tree is never modified.

    python3 tools/mutants.py

Exit status 0 when every mutant is killed. It is 1 when a mutant survives,
when the unmutated copy fails, when a mutant's old text no longer occurs
exactly once in its file (a refactor must then update the entry, never drop
it), or when a module of src/quadbias other than an ``__init__.py`` has no
mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# mutated copies tested at once; each is one pytest process
PARALLEL_RUNS = 2


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    old: str  # must occur exactly once
    new: str
    description: str
    tests: tuple  # pytest arguments, relative to the copy's root


MUTANTS = (
    Mutant("src/quadbias/laplace.py",
           "scale = 1.0 / np.sqrt(post.n_train)",
           "scale = 1.0 / post.n_train",
           "K-FAC posterior sample scale 1/N instead of 1/sqrt(N)",
           ("tests/test_laplace.py",)),
    Mutant("src/quadbias/laplace.py",
           "s_b = np.diag(ub.T @ blk_t.factor_b.entries @ ub).copy()",
           "s_b = np.diag(ub.T @ blk.factor_b.entries @ ub).copy()",
           "debiased K-FAC B factor measured on the first batch",
           ("tests/test_laplace.py",)),
    Mutant("src/quadbias/laplace.py",
           "for start in range(0, noise.shape[0], group):",
           "for start in range(0, noise.shape[0] - group + 1, group):",
           "the predictive skips the last partial group of draws",
           ("tests/test_laplace.py", "-k", "draw_groups")),
    Mutant("src/quadbias/cg.py",
           'steps.append(_newton_step(q, d, g, stage, "magnitude_" if i else ""))',
           'steps.append(_newton_step(q, d, grads[0], stage, "magnitude_" if i else ""))',
           "debiased CG magnitude slope taken from the direction batch's gradient",
           ("tests/test_cg.py",)),
    Mutant("src/quadbias/diagnostics.py",
           "for f in [*factors, full]])",
           "for f in [*factors, factors[0]]])",
           "K-FAC eigen scan full-batch curvatures taken from batch 0's factors",
           ("tests/test_diagnostics.py",)),
    Mutant("src/quadbias/diagnostics.py",
           'lin.row_terms(d, kind == "hessian", kind != "kfac")',
           'lin.row_terms(d, False, kind != "kfac")',
           "Hessian eigen scan ignores the Hessian switch and scores the GGN",
           ("tests/test_diagnostics.py", "-k", "RowScanAgainstPerBatchOracle")),
    Mutant("src/quadbias/diagnostics.py",
           'lin.row_terms(d, kind == "hessian", kind != "kfac")',
           'lin.row_terms(d, kind == "hessian", True)',
           "K-FAC eigen scan computes each row's GGN curvature only to overwrite it",
           ("tests/test_diagnostics.py", "-k", "kfac_row_pass")),
    Mutant("src/quadbias/diagnostics.py",
           "np.column_stack([np.diagonal(s), c])",
           "np.column_stack([s[0], c])",
           "span scores read every direction's slope at the first row's point",
           ("tests/test_diagnostics.py", "-k", "CgDirectionScan")),
    Mutant("src/quadbias/diagnostics.py",
           "[terms[:, pos].mean(axis=1) for pos in parts]",
           "[terms[:, pos].mean(axis=1) for pos in parts[1:] + parts[:1]]",
           "row scan scores each batch at the next part's rows",
           ("tests/test_diagnostics.py", "-k", "RowScanAgainstPerBatchOracle")),
    Mutant("src/quadbias/diagnostics.py",
           "not np.all((0 <= pos) & (pos < data.size))",
           "not np.all(0 <= pos)",
           "scan parts may hold a position past the last data row",
           ("tests/test_diagnostics.py", "-k", "parts_must_be_row_positions")),
    Mutant("src/quadbias/diagnostics.py",
           "reg = np.stack([beta * (theta.values[w] @ d_w),",
           "reg = np.stack([0.0 * (theta.values[w] @ d_w),",
           "GGN row scan drops the regularizer's slope term",
           ("tests/test_diagnostics.py", "-k", "RowScanAgainstPerBatchOracle")),
    Mutant("src/quadbias/model.py",
           "@ jv.T / self.size",
           "@ jv.T",
           "ggn_gram without the row mean",
           ("tests/test_quadratic.py", "tests/test_model.py")),
    Mutant("src/quadbias/model.py",
           "return ew.part(flat), eb.part(flat)",
           "return ew.part(flat), ew.part(flat)[..., 0, :]",
           "layer split reads the bias slice at the weight offset",
           ("tests/test_model.py",)),
    Mutant("src/quadbias/model.py",
           "return e.part(self.values)",
           "return self.layout[2 * layer].part(self.values)",
           "ParamVector.view reads the bias at the weight offset",
           ("tests/test_model.py", "-k", "layout_slices")),
    Mutant("src/quadbias/model.py",
           "r2_z = 2.0 * (r_a @ vw) + r2_a @ w",
           "r2_z = (r_a @ vw) + r2_a @ w",
           "second-order forward pass drops the factor 2 of R2[Z]",
           ("tests/test_model.py", "-k", "row_term")),
    Mutant("src/quadbias/model.py",
           "r2_a = self.d2[l] * r_z * r_z + r2_a",
           "r2_a = r2_a",
           "second-order forward pass drops the act'' R[Z]^2 term of R2[A]",
           ("tests/test_model.py", "-k", "row_term")),
    Mutant("src/quadbias/model.py",
           "gs[-1] += extra[l]",
           "pass",
           "Hessian product's backward walk without its per-layer terms",
           ("tests/test_model.py",)),
    Mutant("src/quadbias/quadratic.py",
           "[slice(0, dim)] if weights is None else [e.span for e in weights]",
           "[slice(0, dim)]",
           "the operator's beta term acts on the biases too",
           ("tests/test_quadratic.py",)),
    Mutant("src/quadbias/quadratic.py",
           "lambda w, lin: w * term(lin, vs)",
           "lambda w, lin: term(lin, vs)",
           "full-batch products and grams sum the chunks without their row shares",
           ("tests/test_quadratic.py",)),
    Mutant("src/quadbias/linalg.py",
           "first = big.argmax(axis=0), np.arange(basis.shape[1])",
           "first = len(big) - 1 - big[::-1].argmax(axis=0), np.arange(basis.shape[1])",
           "eigenvector sign fixed by the last nonzero entry",
           ("tests/test_linalg.py",)),
    Mutant("src/quadbias/quadratic.py",
           "np.tril(np.broadcast_to(tau, (tau.size + 1, tau.size)), -1)",
           "np.tril(np.broadcast_to(tau, (tau.size + 1, tau.size)), 0)",
           "cumulative step coefficients one iterate ahead",
           ("tests/test_quadratic.py", "-k", "trajectory_values_equal_value_at")),
    Mutant("src/quadbias/quadratic.py",
           "return values, d_g + c_gram, np.diagonal(gram).copy()",
           "return values, d_g + 0.0 * c_gram, np.diagonal(gram).copy()",
           "in_span slopes without the C G term",
           ("tests/test_quadratic.py", "-k", "in_span")),
    Mutant("src/quadbias/quadratic.py",
           "values += 0.5 * (c_gram * c).sum(axis=1)",
           "values += (c_gram * c).sum(axis=1)",
           "in_span values without the 1/2 on the curvature term",
           ("tests/test_quadratic.py", "-k", "in_span")),
    Mutant("src/quadbias/metrics.py",
           'np.searchsorted(edges, conf, side="left")',
           'np.searchsorted(edges, conf, side="right")',
           "ece puts a confidence on a bin edge in the upper bin",
           ("tests/test_metrics.py",)),
    Mutant("src/quadbias/harness/experiments.py",
           "bool(max(q_vals_d) <= q_anchor + 1e-12)",
           "bool(q_vals_d[-1] <= q_anchor + 1e-12)",
           "cg-compare debiased_never_above_anchor from the last iterate only",
           ("tests/test_harness.py", "-k", "cg_compare")),
    Mutant("src/quadbias/harness/experiments.py",
           "full = np.array([rep.curvatures[0, -1] for rep in reports])",
           "full = np.array([rep.curvatures[-1, -1] for rep in reports])",
           "bias-scan curvature ratio against the last direction's full-batch value",
           ("tests/test_harness.py", "-k", "bias_scan")),
    Mutant("src/quadbias/harness/experiments.py",
           "metrics[order[0]]",
           "metrics[order[-1]]",
           "laplace-sweep nll_at_min_beta taken at the largest beta",
           ("tests/test_harness.py", "-k", "laplace_sweep")),
    Mutant("src/quadbias/harness/experiments.py",
           'out["mean_ood_entropy"] = float(np.mean(ent[n_test:]))',
           'out["mean_ood_entropy"] = float(np.mean(ent[:n_test]))',
           "mean_ood_entropy averaged over the test rows",
           ("tests/test_harness.py", "-k", "predictive_metrics")),
    Mutant("src/quadbias/harness/experiments.py",
           "table = ProbTable(probs[:n_test], labels)",
           "table = ProbTable(probs[-n_test:], labels)",
           "laplace-sweep test metrics read from the last n_test stacked rows",
           ("tests/test_harness.py", "-k", "predictive_metrics")),
    Mutant("src/quadbias/harness/experiments.py",
           'kept = above_floor(same, full, "bias-scan curvature ratio")',
           "kept = np.ones(len(reports), dtype=bool)",
           "bias-scan curvature ratio keeps a zero full-batch curvature",
           ("tests/test_harness.py", "-k", "bias_scan")),
    Mutant("src/quadbias/harness/experiments.py",
           '{"kind": cfg.kind, **summary}',
           "summary",
           "summary.json without the experiment kind",
           ("tests/test_harness.py", "-k", "byte_identical_across")),
    Mutant("src/quadbias/diagnostics.py",
           "require_finite(statistic, measured=measured, truth=truth)",
           "require_finite(statistic, measured=measured)",
           "near-zero exclusion lets a non-finite truth through",
           ("tests/test_diagnostics.py", "-k", "BiasSummary")),
    Mutant("src/quadbias/metrics.py",
           'require_finite("ProbTable", ValidationError, probability=p)',
           'require_finite("ProbTable", ValidationError)',
           "ProbTable accepts a NaN probability",
           ("tests/test_metrics.py", "-k", "ProbTable")),
    Mutant("src/quadbias/model.py",
           "zero_or_one = np.all((y == 0.0) | (y == 1.0))",
           "zero_or_one = np.all(y.sum(axis=1) == 1.0)",
           "Batch accepts targets other than 0 and 1 in rows summing to 1",
           ("tests/test_model.py", "-k", "BatchValidation")),
    Mutant("src/quadbias/model.py",
           'object.__setattr__(part, "inputs", self.inputs[pos])',
           'object.__setattr__(part, "inputs", self.inputs[np.sort(pos)])',
           "a row slice of a Batch takes its inputs at other rows than its targets",
           ("tests/test_harness.py", "tests/test_model.py", "-k", "rows")),
    Mutant("src/quadbias/model.py",
           "shifted = self.logits - self._shift",
           "shifted = self.logits",
           "the cross-entropy log-partition is read at the unshifted logits",
           ("tests/test_model.py", "-k", "two_pass")),
    Mutant("src/quadbias/model.py",
           "if self._layer_views is None or self._layer_views[0] is not self.values:",
           "if self._layer_views is None:",
           "the cached layer views survive a reassigned values array",
           ("tests/test_model.py", "-k", "layer_views")),
    Mutant("src/quadbias/model.py",
           'if self.mlp.arch.activation != "tanh":',
           "if True:",
           "tanh's act'' terms skipped as if it were zero",
           ("tests/test_model.py", "-k", "Hvp or row_term")),
    Mutant("src/quadbias/harness/training.py",
           "except (UnicodeDecodeError, json.JSONDecodeError, AttributeError, KeyError, TypeError)",
           "except (json.JSONDecodeError, TypeError)",
           "load_checkpoint lets a non-UTF-8, non-object or incomplete header raise unnamed",
           ("tests/test_harness.py", "-k", "checkpoint")),
    Mutant("src/quadbias/diagnostics.py",
           "trace = cg_minimize(q_b, config)",
           "trace = cg_minimize(q_b, CgConfig(config.epsilon, config.p_max + 1))",
           "CG direction scan runs one step past config.p_max",
           ("tests/test_diagnostics.py", "-k", "CgDirectionScan")),
    Mutant("src/quadbias/harness/config.py",
           "self.fisher_mode in FISHER_MODES,",
           "True,",
           "config accepts an unknown fisher_mode",
           ("tests/test_harness.py", "-k", "fisher_mode")),
    Mutant("src/quadbias/harness/config.py",
           "count, is_count(count), count_needs(count))",
           "count, is_count(count, 0), count_needs(count))",
           "config accepts a count key below 1",
           ("tests/test_harness.py", "-k", "count_below")),
    Mutant("src/quadbias/harness/config.py",
           '            raise ValidationError(f"unknown config key {key!r} in [{name}]")',
           "            continue",
           "config skips an unknown key",
           ("tests/test_harness.py", "-k", "unknown_key")),
    Mutant("src/quadbias/harness/config.py",
           "all(map(is_seed, self.seeds))",
           "all(is_count(s, -2**63, 2**64) for s in self.seeds)",
           "experiment seeds accept a negative (signed 64-bit) seed",
           ("tests/test_harness.py", "-k", "bad_config")),
    Mutant("src/quadbias/harness/config.py",
           "for f in dataclasses.fields(cls) if f.init and f.name not in skip}",
           "for f in dataclasses.fields(cls) if f.name not in skip}",
           "config keys include the derived la_grid field",
           ("tests/test_harness.py", "-k", "keys_are_the_init_fields")),
    Mutant("src/quadbias/harness/config.py",
           '"layer_sizes": "layers", "n_directions": "k"}',
           '"layer_sizes": "layers"}',
           "the k key is named n_directions, as its field",
           ("tests/test_harness.py", "-k", "keys_are_the_init_fields")),
    Mutant("src/quadbias/harness/training.py",
           "velocity += grad",
           "velocity += (1.0 - config.momentum) * grad",
           "SGD momentum dampened by (1 - momentum)",
           ("tests/test_harness.py", "-k", "TestTraining")),
    Mutant("src/quadbias/harness/datasets.py",
           "return [train.rows(pos) for pos in parts]",
           "return [train.rows(np.sort(pos)) for pos in parts]",
           "mini-batches not in the order of the partition's rows",
           ("tests/test_harness.py", "-k", "minibatch")),
    Mutant("src/quadbias/harness/datasets.py",
           "stop = self.n_train - self.n_train % batch_size if drop_last",
           "stop = self.n_train - self.n_train % batch_size + 1 if drop_last",
           "drop_last keeps a short last batch",
           ("tests/test_harness.py", "-k", "drop_last")),
    Mutant("src/quadbias/harness/datasets.py",
           "spec.noise * noise_mult * noise",
           "spec.noise * noise",
           "generated splits drop the OOD noise multiplier",
           ("tests/test_harness.py", "-k", "blobs_are or keep_their")),
    Mutant("src/quadbias/harness/reports.py",
           "def _json_safe(value):\n",
           "def _json_safe(value):\n    return value\n",
           "summary JSON keeps non-finite numbers",
           ("tests/test_harness.py", "-k", "strict_json")),
    Mutant("src/quadbias/errors.py",
           "    for key, value, ok, needs in rows:\n",
           "    for key, value, ok, needs in rows[1:]:\n",
           "domain check ignores the first row of every table",
           ("tests/test_harness.py", "-k", "bad_config_rejected")),
    Mutant("src/quadbias/harness/cli.py",
           'print(f"numerical failure: {exc}", file=sys.stderr)\n        return 2',
           'print(f"numerical failure: {exc}", file=sys.stderr)\n        return 1',
           "CLI exits 1 on a numerical failure",
           ("tests/test_harness.py", "-k", "numerical_failure_exit_code")),
    Mutant("src/quadbias/model.py",
           "                r_z += r_a @ w\n",
           "                pass\n",
           "forward-mode pass drops the previous layer's R[A] W term",
           ("tests/test_model.py",)),
    Mutant("src/quadbias/model.py",
           "odd = worker.submit(run, items[1::2])",
           "odd = worker.submit(run, items[:0])",
           "second thread of block passes drops its half of the passes",
           ("tests/test_model.py", "-k", "split_bit_equal_to_serial")),
    Mutant("src/quadbias/model.py",
           "if len(items) > 1 and work >= SPLIT_WORK:",
           "if len(items) > 1:",
           "the second thread takes items of any size, below its work gate too",
           ("tests/test_model.py", "-k", "work_gate")),
    Mutant("src/quadbias/model.py",
           "_run_halves(range(0, x.shape[0], chunk_size), run,",
           "_run_halves(range(0, x.shape[0] - chunk_size + 1, chunk_size), run,",
           "the label walk drops the ragged last chunk",
           ("tests/test_model.py", "-k", "PredictedLabels")),
    Mutant("src/quadbias/model.py",
           "                out[rows] = np.argmax(",
           "                out[start - start % (2 * chunk_size):][:chunk_size] = np.argmax(",
           "the label walk writes each odd chunk's labels into the even chunk's slots",
           ("tests/test_model.py", "-k", "PredictedLabels")),
    Mutant("src/quadbias/model.py",
           "        odd.exception()  # waits for the odd half, however the even half ends\n",
           "        pass\n",
           "block passes raise before the second thread's half is done",
           ("tests/test_model.py", "-k", "PassSplit")),
    Mutant("src/quadbias/linalg.py",
           "DENSE_FALLBACK_DIM = 200",
           "DENSE_FALLBACK_DIM = 512",
           "eigenproblems up to P = 512 materialized and solved densely again",
           ("tests/test_linalg.py", "-k", "DenseFallbackBoundary")),
    Mutant("src/quadbias/linalg.py",
           "w_mats = cols.T.reshape(k, m, n)",
           "w_mats = cols.T.reshape(k, n, m).transpose(0, 2, 1)",
           "kron_matvec reads w as the row-stacking of W",
           ("tests/test_linalg.py", "-k", "Kron")),
    Mutant("src/quadbias/linalg.py",
           "    return w - h2 @ rows, h + h2\n",
           "    return w, h\n",
           "Lanczos steps without the second Gram-Schmidt pass",
           ("tests/test_linalg.py", "-k", "Lanczos or TopK")),
    Mutant("src/quadbias/linalg.py",
           "converged = bounds[-k:] <= eps * np.maximum(",
           "converged = bounds[-k:] <= eps ** 0.5 * np.maximum(",
           "Lanczos convergence test loosened to sqrt(eps)",
           ("tests/test_linalg.py", "-k", "Lanczos or TopK")),
    Mutant("src/quadbias/linalg.py",
           "keep = k + (ncv - k) // 2",
           "keep = k",
           "thick restart keeps only the k wanted Ritz pairs",
           ("tests/test_linalg.py", "-k", "Lanczos or TopK")),
    Mutant("src/quadbias/linalg.py",
           "t[keep, :keep] = t[:keep, keep] = beta * s[-1, -keep:]",
           "t[keep, :keep] = t[:keep, keep] = 0.0",
           "thick restart drops the kept Ritz vectors' couplings to the residual",
           ("tests/test_linalg.py", "-k", "Lanczos or TopK")),
    Mutant("src/quadbias/linalg.py",
           "w = _gram_schmidt(rng.normal(dim), basis[: j + 1])[0]",
           "w = rng.normal(dim)",
           "Lanczos goes on past an invariant subspace from a vector not orthogonal to it",
           ("tests/test_linalg.py", "-k", "Lanczos or TopK")),
    Mutant("src/quadbias/linalg.py",
           'require_finite(f"Lanczos eigensolver at step {steps}", product=w)',
           'require_finite(f"Lanczos eigensolver at step {steps}", product=w[:1])',
           "Lanczos checks only the first entry of each product for finiteness",
           ("tests/test_linalg.py", "-k", "Lanczos or TopK")),
    Mutant("src/quadbias/quadratic.py",
           "s[0] += w * blk.factor_a.entries",
           "s[0] += blk.factor_a.entries / -(-data.size // chunk_size)",
           "full-dataset K-FAC input factor averages the chunks with equal weights",
           ("tests/test_laplace.py", "-k", "ragged")),
    Mutant("src/quadbias/quadratic.py",
           "return ((min(chunk_size, n - start) / n,",
           "return ((chunk_size / n,",
           "a ragged last chunk weighted as a full one",
           ("tests/test_quadratic.py", "tests/test_laplace.py",
            "-k", "every_chunk_size_agrees or ragged")),
    Mutant("src/quadbias/quadratic.py",
           '    if n == 0:\n        raise ValidationError("dataset is empty")\n',
           "",
           "the chunk walk takes an empty dataset",
           ("tests/test_quadratic.py", "tests/test_laplace.py",
            "-k", "empty_dataset_rejected or empty_rejected")),
    Mutant("src/quadbias/harness/training.py",
           "0 <= self.momentum < 1,",
           "0 <= self.momentum <= 1,",
           "train config accepts momentum = 1",
           ("tests/test_harness.py", "-k", "momentum_outside")),
    Mutant("src/quadbias/laplace.py",
           "floor = -NEG_EIG_TOL * max(1.0, vals.max())",
           "floor = -NEG_EIG_TOL",
           "K-FAC PSD floor absolute, not scaled to the factor's largest eigenvalue",
           ("tests/test_laplace.py", "-k", "large_gram")),
    Mutant("src/quadbias/errors.py",
           "np.abs(gram - np.eye(len(gram)))",
           "np.abs(np.diagonal(gram) - 1.0)",
           "orthonormality check reads only the column norms",
           ("tests/test_quadratic.py", "-k", "orthonormal")),
    Mutant("src/quadbias/errors.py",
           "if not np.max(np.abs(gram - np.eye(len(gram)))) <= 1e-8:",
           "if np.max(np.abs(gram - np.eye(len(gram)))) > 1e-8:",
           "check_orthonormal lets a NaN basis through",
           ("tests/test_linalg.py", "tests/test_quadratic.py", "-k", "non_finite_basis or nan")),
    Mutant("src/quadbias/linalg.py",
           '        check_orthonormal("eigenbasis", self.basis)\n',
           "        pass\n",
           "EigenDecomposition skips its orthonormality check",
           ("tests/test_linalg.py", "-k", "EigenDecomposition")),
    Mutant("src/quadbias/diagnostics.py",
           "if not np.all((om >= -1e-12) & (om <= 1.0 + 1e-12)):",
           "if np.any(om < -1e-12) or np.any(om > 1.0 + 1e-12):",
           "overlap check lets a NaN entry through",
           ("tests/test_diagnostics.py", "-k", "entries_outside")),
    Mutant("src/quadbias/quadratic.py",
           "for q in quads[1:])",
           "for q in quads[1:2])",
           "shared-anchor check compares only the first two quadratics",
           ("tests/test_diagnostics.py", "-k", "share_the_anchor")),
    Mutant("src/quadbias/linalg.py",
           "        check_counts(-2**63, low=low)\n        check_counts(low + 1, high=high)\n",
           "",
           "Rng.integers takes a float or bool bound",
           ("tests/test_errors.py", "-k", "integers")),
    Mutant("src/quadbias/laplace.py",
           "check_counts(s_samples=s_samples)",
           "check_counts(0, s_samples=s_samples)",
           "draw_noise accepts zero samples",
           ("tests/test_laplace.py", "-k", "draw_noise_needs")),
    Mutant("src/quadbias/errors.py",
           "    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)\n",
           "    return (isinstance(value, (int, np.integer))\n",
           "a bool passes as a count or a seed",
           ("tests/test_errors.py", "-k", "bool")),
    Mutant("src/quadbias/errors.py",
           'if a.dtype.kind not in "iufO":',
           'if a.dtype.kind not in "biufO":',
           "as_integers reads a bool mask as the integers 1 and 0",
           ("tests/test_errors.py", "-k", "bool_array")),
    Mutant("src/quadbias/errors.py",
           "    for name, value in values.items():\n        finite = np.isfinite(value)\n",
           "    for name, value in list(values.items())[:1]:\n        finite = np.isfinite(value)\n",
           "require_finite checks only its first value",
           ("tests/test_errors.py", "-k", "non_finite_value")),
    Mutant("src/quadbias/linalg.py",
           '_mix64(self.stream, _key_word("stream", stream))',
           "_mix64(self.stream, int(stream))",
           "Rng.split mixes in a stream it has not checked",
           ("tests/test_linalg.py", "-k", "TestRng")),
    Mutant("src/quadbias/diagnostics.py",
           "range(min(n, len(parts)))",
           "range(n)",
           "the scan takes sources past the last part",
           ("tests/test_diagnostics.py", "-k", "n_sources")),
    Mutant("src/quadbias/harness/config.py",
           "\n               and len(set(counts)) == len(counts),",
           ",",
           "batch_sizes and widths accept a repeated entry",
           ("tests/test_harness.py", "-k", "repeated_entry")),
    Mutant("src/quadbias/errors.py",
           "        if flags:\n",
           "        if False:\n",
           "as_integers reads a bool entry among numbers as the integer 1",
           ("tests/test_errors.py", "-k", "bool_entry")),
    Mutant("src/quadbias/harness/datasets.py",
           'header[0].startswith("# config=")',
           'header[0].startswith("#")',
           "load_csv skips any leading comment line, not only the digest line",
           ("tests/test_harness.py", "-k", "comment_line")),
    Mutant("src/quadbias/harness/datasets.py",
           "labels[-1] < 2**63",
           "labels[-1] <= 2**63",
           "load_csv passes a label of 2**63, which the int64 labels array cannot hold",
           ("tests/test_harness.py", "-k", "int64_overflow")),
    Mutant("src/quadbias/quadratic.py",
           "    if c.ndim != 2 or c.shape[1:] != np.shape(directions)[1:]:\n",
           "    if False:\n",
           "in_span takes coefficients that do not fit its directions",
           ("tests/test_quadratic.py", "-k", "coefficient")),
    Mutant("src/quadbias/harness/experiments.py",
           '        score("single", seed, cg_minimize(batch_quadratic(seed, single, 0, 1), cg_cfg))\n',
           "        q_b = batch_quadratic(seed, single, 0, 1)\n"
           '        score("single", seed, cg_minimize(q_b, cg_cfg))\n',
           "cg-compare keeps the single-batch quadratic bound while it scores",
           ("tests/test_harness.py", "-k", "only_the_full_batch_quadratic")),
    Mutant("src/quadbias/quadratic.py",
           "        del lin  # before the walk builds the next trace\n",
           "",
           "the full-batch loss walk keeps the previous chunk's trace",
           ("tests/test_quadratic.py", "-k", "one_trace")),
    Mutant("src/quadbias/harness/datasets.py",
           "drop_last=True)[:n]]",
           "drop_last=True)]",
           "first_minibatches returns every minibatch, not the first n",
           ("tests/test_harness.py", "-k", "first_minibatches")),
    Mutant("src/quadbias/errors.py",
           "    if wide.any():\n",
           "    if False:\n",
           "as_integers wraps an entry outside int64",
           ("tests/test_errors.py", "-k", "outside_int64")),
    Mutant("src/quadbias/errors.py",
           'not isinstance(values, np.ndarray) or a.dtype.kind == "O"',
           "not isinstance(values, np.ndarray)",
           "as_integers reads a bool entry of an object array as the integer 1",
           ("tests/test_errors.py", "-k", "non_number_entry")),
    Mutant("src/quadbias/errors.py",
           'except ValueError:  # numpy\'s "inhomogeneous shape"',
           'except TypeError:  # numpy\'s "inhomogeneous shape"',
           "as_integers lets numpy's bare ValueError of a ragged nest through",
           ("tests/test_errors.py", "-k", "ragged")),
    Mutant("src/quadbias/errors.py",
           '    if vs.dtype.kind == "c":\n',
           "    if False:\n",
           "as_block drops a complex block's imaginary part",
           ("tests/test_errors.py", "-k", "complex")),
    Mutant("src/quadbias/errors.py",
           "isinstance(value, numbers.Real) and 0 <= value",
           "0 <= value",
           "check_nonnegative compares a string, None or an array with 0",
           ("tests/test_errors.py", "-k", "nonnegative_non_number")),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    # tests read the benchmark's workload configs as sample configs
    for name in ("src", "tests", "bench/workloads"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)


def _pytest(copy: Path, tests: tuple) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-profile=mutants", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)


def _check_texts() -> list:
    """One line per mutant whose old text does not occur exactly once, and
    one per module with no mutant."""
    problems = []
    for m in MUTANTS:
        count = (ROOT / m.path).read_text().count(m.old)
        if count != 1:
            problems.append(f"{m.path}: old text found {count} times: {m.old!r}")
    mutated = {m.path for m in MUTANTS}
    for path in sorted((ROOT / "src" / "quadbias").rglob("*.py")):
        name = path.relative_to(ROOT).as_posix()
        if path.name != "__init__.py" and name not in mutated:
            problems.append(f"{name}: no mutant")
    return problems


def main() -> int:
    started = time.perf_counter()
    problems = _check_texts()
    if problems:
        print("stale mutant list:\n  " + "\n  ".join(problems))
        return 1
    with tempfile.TemporaryDirectory(prefix="quadbias-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy_tree(clean)
        probe = subprocess.run(
            [sys.executable, "-c", "import quadbias; print(quadbias.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(clean / "src")),
            capture_output=True, text=True)
        if not probe.stdout.strip().startswith(str(clean)):
            print(f"the copy's package is not the one imported: {probe.stdout}{probe.stderr}")
            return 1
        # every mutant's subset is a subset of these files
        files = tuple(sorted({t for m in MUTANTS for t in m.tests if t.endswith(".py")}))
        run = _pytest(clean, files)
        if run.returncode != 0:
            print(f"unmutated copy fails {' '.join(files)}:\n{run.stdout[-2000:]}")
            return 1
        clean_secs = time.perf_counter() - started

        def run_mutant(i: int, m: Mutant) -> tuple:
            copy = Path(tmp) / f"m{i}"
            _copy_tree(copy)
            target = copy / m.path
            target.write_text(target.read_text().replace(m.old, m.new))
            start = time.perf_counter()
            run = _pytest(copy, m.tests)
            secs = time.perf_counter() - start
            shutil.rmtree(copy)
            return m, run.returncode != 0, secs

        # the threads only wait on their pytest processes; map keeps the
        # rows in MUTANTS order
        with ThreadPoolExecutor(PARALLEL_RUNS) as pool:
            rows = list(pool.map(run_mutant, range(len(MUTANTS)), MUTANTS))

    width = max(len(m.description) for m, _, _ in rows)
    print(f"{'mutant':<{width}}  {'file':<36} result    seconds")
    for m, killed, secs in rows:
        print(f"{m.description:<{width}}  {m.path[len('src/'):]:<36} "
              f"{'killed' if killed else 'SURVIVED'}  {secs:7.1f}")
    survivors = sum(not killed for _, killed, _ in rows)
    print(f"{len(rows) - survivors} of {len(rows)} mutants killed; unmutated run "
          f"{clean_secs:.0f} s, total {time.perf_counter() - started:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
