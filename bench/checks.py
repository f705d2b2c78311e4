"""Output checks for one experiment result directory.

Every run is checked for digest consistency (``verify_result_dir``) and for
invariants that hold on any seed. On the default seed the CSV and
``summary.json`` numbers must also match the reference outputs kept under
``reference/<workload>/`` to within ``RTOL`` (plus ``ATOL_SCALE`` times the
largest magnitude of the same column, so values near zero compare on the
column's scale): round-off passes, wrong results fail.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from quadbias.harness.reports import read_csv, verify_result_dir

from layers import TERMINATIONS

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
RTOL = 1e-6
ATOL_SCALE = 1e-9

# Files whose bytes must repeat exactly between runs at one seed; the SVG
# views and config.ini are derived from them.
DATA_SUFFIXES = (".csv",)
DATA_NAMES = ("summary.json",)


def snapshot(out_dir) -> dict:
    """Bytes of every data file (CSVs and summary.json) in a result dir."""
    return {
        p.name: p.read_bytes()
        for p in sorted(Path(out_dir).iterdir())
        if p.suffix in DATA_SUFFIXES or p.name in DATA_NAMES
    }


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _close(value: float, ref: float, scale: float) -> bool:
    if math.isnan(ref) or math.isinf(ref):
        return str(value) == str(ref)
    return abs(value - ref) <= RTOL * abs(ref) + ATOL_SCALE * scale


def _compare_csv(name, out_path, ref_path) -> list:
    digest, header, rows = read_csv(out_path)
    ref_digest, ref_header, ref_rows = read_csv(ref_path)
    if digest != ref_digest:
        return [f"{name}: config digest differs from the reference"]
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"{name}: header or row count differs from the reference"]
    scales = [
        max((abs(v) for v in map(_number, col) if v is not None and math.isfinite(v)),
            default=0.0)
        for col in zip(*ref_rows)
    ]
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        for j, (cell, ref_cell) in enumerate(zip(row, ref_row)):
            value, ref = _number(cell), _number(ref_cell)
            if value is None or ref is None:
                ok = cell == ref_cell
            else:
                ok = _close(value, ref, scales[j])
            if not ok:
                return [f"{name} row {i} column {header[j]}: {cell} != reference {ref_cell}"]
    return []


def _compare_json(name, value, ref, path="") -> list:
    if isinstance(ref, dict):
        if not isinstance(value, dict) or sorted(value) != sorted(ref):
            return [f"{name}{path}: keys differ from the reference"]
        return [p for k in ref for p in _compare_json(name, value[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(value, list) or len(value) != len(ref):
            return [f"{name}{path}: length differs from the reference"]
        return [p for i, (v, r) in enumerate(zip(value, ref))
                for p in _compare_json(name, v, r, f"{path}[{i}]")]
    if isinstance(ref, float) and not isinstance(value, bool) and isinstance(value, (int, float)):
        return [] if _close(float(value), ref, 0.0) else [f"{name}{path}: {value} != {ref}"]
    return [] if value == ref else [f"{name}{path}: {value!r} != {ref!r}"]


def compare_reference(out_dir, workload: str) -> list:
    ref_dir = REFERENCE_DIR / workload
    if not ref_dir.is_dir():
        return [f"no reference outputs at {ref_dir}"]
    out_dir = Path(out_dir)
    expected = sorted(snapshot(ref_dir))
    found = sorted(snapshot(out_dir))
    if expected != found:
        return [f"data files {found} differ from the reference {expected}"]
    problems = []
    for name in expected:
        if name.endswith(".csv"):
            problems += _compare_csv(name, out_dir / name, ref_dir / name)
        else:
            problems += _compare_json(name, json.loads((out_dir / name).read_text()),
                                      json.loads((ref_dir / name).read_text()))
    return problems


def _table(path):
    _, header, rows = read_csv(path)
    return [dict(zip(header, row)) for row in rows]


def _finite(rows, columns) -> bool:
    return all(math.isfinite(float(r[c])) for r in rows for c in columns)


def _invariants(out_dir: Path, cfg) -> list:
    """Properties of the outputs that hold on any seed."""
    summary = json.loads((out_dir / "summary.json").read_text())
    n_train = round(cfg.dataset.train_frac * cfg.dataset.n)
    problems = []
    if cfg.kind == "bias-scan":
        for b in cfg.batch_sizes:
            n_src = min(cfg.n_source_batches, n_train // b)
            for s in cfg.seeds:
                for m in range(n_src):
                    rows = _table(out_dir / f"scan_b{b}_s{s}_m{m}.csv")
                    if len(rows) != cfg.n_directions * (n_train // b + 1):
                        problems.append(f"scan b{b} m{m}: {len(rows)} rows")
                    if not _finite(rows, ("slope", "curvature")):
                        problems.append(f"scan b{b} m{m}: non-finite values")
                    if any(float(r["curvature"]) < 0.0 for r in rows):
                        problems.append(f"scan b{b} m{m}: negative GGN curvature")
        for stats in summary["curvature_ratio_stats"].values():
            if not 0.0 <= stats["overestimated_fraction"] <= 1.0:
                problems.append("overestimated_fraction outside [0, 1]")
    if cfg.kind in ("bias-scan", "size-sweep"):
        name = "bias_summary.csv" if cfg.kind == "bias-scan" else "size_sweep.csv"
        for r in _table(out_dir / name):
            if not float(r["p25"]) <= float(r["median"]) <= float(r["p75"]):
                problems.append(f"{name}: quartiles out of order")
                break
    if cfg.kind == "size-sweep":
        expected = [cfg.dataset.d * w + w + w * cfg.dataset.c + cfg.dataset.c
                    for w in cfg.widths]
        if summary["n_params"] != expected:
            problems.append(f"size-sweep parameter counts {summary['n_params']} != {expected}")
    if cfg.kind == "laplace-sweep":
        rows = _table(out_dir / "la_sweep.csv")
        per_beta = 2 + 2 * len(cfg.seeds)
        if len(rows) != len(cfg.la_grid) * per_beta * 5:
            problems.append(f"la_sweep: {len(rows)} rows")
        bounds = {"accuracy": (0.0, 1.0), "ece": (0.0, 1.0), "auroc": (0.0, 1.0),
                  "nll": (0.0, math.inf), "mean_ood_entropy": (0.0, math.log(cfg.dataset.c))}
        for r in rows:
            lo, hi = bounds[r["metric"]]
            if not lo <= float(r["value"]) <= hi + 1e-12:
                problems.append(f"la_sweep: {r['metric']} = {r['value']} outside [{lo}, {hi}]")
                break
    if cfg.kind == "cg-compare":
        rows = _table(out_dir / "cg_compare.csv")
        for method in ("single", "debiased"):
            for s in cfg.seeds:
                its = [r for r in rows if r["method"] == method and int(r["seed"]) == s]
                if not its or [int(r["iteration"]) for r in its] != list(range(len(its))):
                    problems.append(f"cg_compare {method}: iterations not contiguous")
                elif float(its[0]["q_fullbatch"]) != summary["q_at_anchor"]:
                    problems.append(f"cg_compare {method}: does not start at the anchor")
        if any(not 0.0 <= float(r["test_accuracy"]) <= 1.0 for r in rows):
            problems.append("cg_compare: test accuracy outside [0, 1]")
        if not _finite(rows, ("q_fullbatch",)):
            problems.append("cg_compare: non-finite quadratic values")
        if any(t not in TERMINATIONS for t in summary["terminations"].values()):
            problems.append(f"cg_compare: unknown termination {summary['terminations']}")
    return problems


def check_result_dir(out_dir, workload: str, cfg, compare: bool) -> list:
    """Problems found in one result directory; empty when it passes."""
    out_dir = Path(out_dir)
    verdict = verify_result_dir(out_dir)
    if not verdict["consistent"]:
        return [f"digest mismatch in {verdict['mismatches']}"]
    if verdict["digest"] != cfg.digest:
        return ["result digest differs from the workload config digest"]
    problems = _invariants(out_dir, cfg)
    if compare:
        problems += compare_reference(out_dir, workload)
    return problems
