"""Result persistence: the one CSV writer, a JSON summary, minimal SVG plots
as derived views, and digest verification.

Only this module knows the CSV dialect: a `# config=<digest>` line, the
header row, then the rows, floats in 17 significant digits; each table's
schema lives with the code that fills it. The JSON summary and every
checkpoint's metadata line carry the digest in a `config_digest` field. The
CSVs are the data of record; SVGs are derived views only.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import ValidationError
from .training import load_checkpoint

# 17 significant digits round-trips any IEEE-754 double exactly.
FLOAT_FORMAT = ".17g"


def fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), FLOAT_FORMAT)
    return str(value)


def write_csv(path, header: list, rows: list, digest: str) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(f"# config={digest}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def _text_lines(path: Path) -> list:
    """The lines of a text file; a file that does not decode raises
    ValidationError naming it."""
    try:
        return path.read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not text ({exc.reason} at byte {exc.start})") from None


def read_csv(path):
    """Parse back an emitted CSV: (digest, header, rows-of-strings)."""
    path = Path(path)
    lines = _text_lines(path)
    if not lines or not lines[0].startswith("# config="):
        raise ValidationError(f"{path}: missing config digest line")
    digest = lines[0][len("# config=") :]
    if len(lines) < 2:
        raise ValidationError(f"{path}: missing header")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if line]
    return digest, header, rows


def _json_safe(value):
    """value with every non-finite float, at any depth, replaced by None."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def write_summary(path, digest: str, payload: dict) -> None:
    """The summary as strict JSON: a non-finite number is written as null."""
    data = _json_safe({"config_digest": digest, **payload})
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n")


def verify_result_dir(out_dir) -> dict:
    """Check that every output file in a result directory carries the same
    config digest; returns {'digest', 'files', 'mismatches', 'consistent'}."""
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        raise ValidationError(f"{out_dir} is not a directory")
    digests = {}
    for p in sorted(out_dir.iterdir()):
        if p.suffix == ".csv":
            digests[p.name] = read_csv(p)[0]
        elif p.suffix == ".svg":
            first = (_text_lines(p) or [""])[0]
            if not first.startswith("<!-- config="):
                raise ValidationError(f"{p}: missing config digest comment")
            digests[p.name] = first[len("<!-- config=") : -len(" -->")]
        elif p.name == "summary.json":
            try:
                digests[p.name] = json.loads(p.read_bytes()).get("config_digest", "")
            except (ValueError, AttributeError):  # not JSON, or not an object
                raise ValidationError(f"{p}: metadata is not a JSON object") from None
        elif p.suffix == ".qckpt":
            digests[p.name] = load_checkpoint(p).config_digest
    if not digests:
        raise ValidationError(f"{out_dir}: no result files found")
    reference = digests.get("summary.json", next(iter(digests.values())))
    mismatches = sorted(name for name, d in digests.items() if d != reference)
    return {
        "digest": reference,
        "files": sorted(digests),
        "mismatches": mismatches,
        "consistent": not mismatches,
    }


# -- minimal SVG plotting (derived views) --------------------------------------

_SVG_COLORS = ("#d95f02", "#1b9e77", "#7570b3", "#e7298a", "#66a61e", "#e6ab02")


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def write_svg_lines(path, series: dict, title: str = "", logy: bool = False,
                    digest: str = "") -> None:
    """Plot named (x, y) series as polylines. Non-finite or non-positive
    (for logy) points are dropped."""
    width, height = 640, 420
    cleaned = {}
    for name, (xs, ys) in series.items():
        pts = [
            (float(x), float(np.log10(y)) if logy else float(y))
            for x, y in zip(xs, ys)
            if np.isfinite(x) and np.isfinite(y) and (not logy or y > 0)
        ]
        if pts:
            cleaned[name] = pts
    margin = 50
    parts = [
        f"<!-- config={digest} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#999"/>',
    ]
    if cleaned:
        all_x = [p[0] for pts in cleaned.values() for p in pts]
        all_y = [p[1] for pts in cleaned.values() for p in pts]
        lo_x, hi_x = min(all_x), max(all_x)
        lo_y, hi_y = min(all_y), max(all_y)
        for idx, (name, pts) in enumerate(sorted(cleaned.items())):
            color = _SVG_COLORS[idx % len(_SVG_COLORS)]
            sx = _scale([p[0] for p in pts], lo_x, hi_x, margin, width - margin)
            sy = _scale([p[1] for p in pts], lo_y, hi_y, height - margin, margin)
            coord = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(sx, sy))
            parts.append(
                f'<polyline points="{coord}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
            parts.append(
                f'<text x="{width - margin + 4}" y="{margin + 16 * idx + 12}" '
                f'font-size="11" fill="{color}">{name}</text>'
            )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def write_svg_heatmap(path, values: np.ndarray, title: str = "",
                      digest: str = "") -> None:
    """Grayscale heatmap of values in [0, 1] (1 = white)."""
    k1, k2 = values.shape
    cell, margin = 4, 30  # pixels per entry, border
    width = k2 * cell + 2 * margin
    height = k1 * cell + 2 * margin
    parts = [
        f"<!-- config={digest} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width // 2}" y="18" text-anchor="middle" font-size="13">{title}</text>',
        f'<rect x="{margin}" y="{margin}" width="{k2 * cell}" height="{k1 * cell}" fill="#000"/>',
    ]
    for i in range(k1):
        for j in range(k2):
            v = float(np.clip(values[i, j], 0.0, 1.0))
            if v <= 0.0:
                continue
            shade = int(round(255 * v))
            parts.append(
                f'<rect x="{margin + j * cell}" y="{margin + i * cell}" '
                f'width="{cell}" height="{cell}" fill="rgb({shade},{shade},{shade})"/>'
            )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
