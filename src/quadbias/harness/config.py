"""Experiment configuration: a sectioned key-value text format, its typed
view, and the digest that stamps every output file.

Grammar: `[section]` headers, `key = value` pairs, `#` comment lines. Lists
are comma-separated. All seeds are explicit in the file; the digest is the
sha256 of the canonicalized (section, key, value) triples.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ValidationError
from ..model import FISHER_MODES, MlpArchitecture
from ..quadratic import CURVATURE_KINDS
from .datasets import DatasetSpec
from .training import TrainConfig

_SECTIONS = ("dataset", "model", "train", "experiment")

EXPERIMENT_KINDS = (
    "bias-scan",
    "overlap",
    "cg-compare",
    "laplace-sweep",
    "bias-over-training",
    "size-sweep",
)


def _parser() -> configparser.ConfigParser:
    return configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))


def read_config_text(text: str) -> dict:
    """Parse the sectioned key-value grammar into {section: {key: value}}."""
    cp = _parser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"config parse error: {exc}") from exc
    return {s: dict(cp.items(s)) for s in cp.sections()}


def read_config_file(path) -> dict:
    return read_config_text(Path(path).read_text())


def config_digest(sections: dict) -> str:
    canon = io.StringIO()
    for section in sorted(sections):
        for key in sorted(sections[section]):
            canon.write(f"{section}\x1f{key}\x1f{sections[section][key]}\x1e")
    return hashlib.sha256(canon.getvalue().encode("utf-8")).hexdigest()


def write_config(sections: dict, path) -> None:
    cp = _parser()
    for section, items in sections.items():
        cp.add_section(section)
        for key, value in items.items():
            cp.set(section, key, str(value))
    with Path(path).open("w") as fh:
        cp.write(fh)


def _get(items: dict, key: str, cast, default=None, required: bool = False):
    """Remove key from items and return its value cast, or the default; the
    keys left in items afterwards are the ones no field reads."""
    if key not in items:
        if required:
            raise ValidationError(f"missing required config key {key!r}")
        return default
    raw = items.pop(key).strip()
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"config key {key!r}: cannot parse {raw!r}") from exc


def _section(sections: dict, name: str) -> dict:
    """A copy of one section's items, for _get to consume."""
    return dict(sections.get(name, {}))


def _reject_unread(name: str, items: dict) -> None:
    if items:
        raise ValidationError(f"unknown config key {sorted(items)[0]!r} in [{name}]")


def _int_list(raw: str) -> tuple:
    return tuple(int(v.strip()) for v in raw.split(",") if v.strip())


def _float_list(raw: str) -> tuple:
    return tuple(float(v.strip()) for v in raw.split(",") if v.strip())


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _bool(raw: str) -> bool:
    """true/false, yes/no or 1/0 in any case."""
    if raw.lower() not in _BOOLS:
        raise ValueError(raw)
    return _BOOLS[raw.lower()]


@dataclass
class ExperimentConfig:
    """Typed view of one experiment file; `sections` keeps the raw text values
    so the digest reflects exactly what was parsed. parse_experiment_config
    sets every field and states the defaults."""

    kind: str
    dataset: DatasetSpec
    arch: MlpArchitecture
    train: TrainConfig
    curvature: str
    beta: float
    delta: float
    batch_sizes: tuple
    n_directions: int
    cg_iterations: int
    seeds: tuple
    la_grid: tuple
    mc_samples: int
    fisher_mode: str
    n_source_batches: int | None
    widths: tuple
    chunk_size: int
    force_same_batch: bool
    sections: dict
    digest: str

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValidationError(f"unknown experiment kind {self.kind!r}")
        if self.curvature not in CURVATURE_KINDS:
            raise ValidationError(f"unknown curvature {self.curvature!r}")
        if self.fisher_mode not in FISHER_MODES:
            raise ValidationError(f"unknown fisher_mode {self.fisher_mode!r}")
        if not self.seeds:
            raise ValidationError("config key 'seeds' needs at least one seed")
        for key in ("beta", "delta"):
            value = getattr(self, key)
            if not (np.isfinite(value) and value >= 0):
                raise ValidationError(f"config key {key!r} in [experiment] needs a finite "
                                      f"value >= 0, got {value!r}")
        n_src = 1 if self.n_source_batches is None else self.n_source_batches
        counts = {"k": (self.n_directions,), "cg_iterations": (self.cg_iterations,),
                  "mc_samples": (self.mc_samples,), "chunk_size": (self.chunk_size,),
                  "n_source_batches": (n_src,), "batch_sizes": self.batch_sizes,
                  "widths": self.widths}
        for key, values in counts.items():
            if not values or min(values) < 1:
                raise ValidationError(f"config key {key!r} needs counts >= 1, got {list(values)}")


def with_seed_override(sections: dict, seed_override: int | None) -> dict:
    """The sections with the dataset seed replaced (a copy), or unchanged."""
    if seed_override is None:
        return sections
    sections = {s: dict(kv) for s, kv in sections.items()}
    sections.setdefault("dataset", {})["seed"] = str(seed_override)
    return sections


def parse_dataset_spec(sections: dict) -> DatasetSpec:
    """Typed view of the [dataset] section, with DatasetSpec's defaults; a
    key it does not read is an error."""
    ds = _section(sections, "dataset")
    spec = DatasetSpec(
        generator=_get(ds, "generator", str, DatasetSpec.generator),
        n=_get(ds, "n", int, DatasetSpec.n),
        d=_get(ds, "dim", int, DatasetSpec.d),
        c=_get(ds, "classes", int, DatasetSpec.c),
        noise=_get(ds, "noise", float, DatasetSpec.noise),
        seed=_get(ds, "seed", int, DatasetSpec.seed),
        train_frac=_get(ds, "train_frac", float, DatasetSpec.train_frac),
        ood_translation=_get(ds, "ood_translation", float, DatasetSpec.ood_translation),
        ood_noise_mult=_get(ds, "ood_noise_mult", float, DatasetSpec.ood_noise_mult),
        path=_get(ds, "path", str, DatasetSpec.path),
    )
    _reject_unread("dataset", ds)
    return spec


def parse_experiment_config(sections: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Typed view of an experiment file; a section or key it does not read
    is an error. The [dataset], [model] and [train] defaults are the field
    defaults of DatasetSpec, MlpArchitecture and TrainConfig; the
    [experiment] defaults are stated here."""
    sections = with_seed_override(sections, seed_override)
    for name in sections:
        if name not in _SECTIONS:
            raise ValidationError(f"unknown config section [{name}]")
    dataset = parse_dataset_spec(sections)

    md = _section(sections, "model")
    arch = MlpArchitecture(
        layer_sizes=_get(md, "layers", _int_list, (dataset.d, 16, dataset.c)),
        activation=_get(md, "activation", str, MlpArchitecture.activation),
        loss=_get(md, "loss", str, MlpArchitecture.loss),
    )
    _reject_unread("model", md)

    tr = _section(sections, "train")
    train = TrainConfig(
        lr=_get(tr, "lr", float, TrainConfig.lr),
        momentum=_get(tr, "momentum", float, TrainConfig.momentum),
        epochs=_get(tr, "epochs", int, TrainConfig.epochs),
        batch_size=_get(tr, "batch_size", int, TrainConfig.batch_size),
        beta=_get(tr, "beta", float, TrainConfig.beta),
        seed=_get(tr, "seed", int, TrainConfig.seed),
    )
    _reject_unread("train", tr)

    ex = _section(sections, "experiment")
    grid_points = _get(ex, "la_grid_points", int, 13)
    grid_min = _get(ex, "la_grid_min", float, 1e-4)
    grid_max = _get(ex, "la_grid_max", float, 1.0)
    grid_extra = _get(ex, "la_grid_extra", _float_list, (10.0,))
    for key, values in (("la_grid_min", (grid_min,)), ("la_grid_max", (grid_max,)),
                        ("la_grid_extra", grid_extra)):
        if not all(np.isfinite(v) and v > 0 for v in values):
            raise ValidationError(f"config key {key!r} needs finite values > 0, "
                                  f"got {list(values)}")
    la_grid = tuple(
        np.logspace(np.log10(grid_min), np.log10(grid_max), grid_points)
    ) + tuple(grid_extra)

    cfg = ExperimentConfig(
        kind=_get(ex, "kind", str, required=True),
        dataset=dataset,
        arch=arch,
        train=train,
        curvature=_get(ex, "curvature", str, "ggn"),
        beta=_get(ex, "beta", float, 0.0005),
        delta=_get(ex, "delta", float, 0.0),
        batch_sizes=_get(ex, "batch_sizes", _int_list, (64,)),
        n_directions=_get(ex, "k", int, 10),
        cg_iterations=_get(ex, "cg_iterations", int, 30),
        seeds=_get(ex, "seeds", _int_list, (0,)),
        la_grid=la_grid,
        mc_samples=_get(ex, "mc_samples", int, 40),
        fisher_mode=_get(ex, "fisher_mode", str, "mc_sample"),
        n_source_batches=_get(ex, "n_source_batches", int, None),
        widths=_get(ex, "widths", _int_list, (8, 32, 128)),
        chunk_size=_get(ex, "chunk_size", int, 512),
        force_same_batch=_get(ex, "force_same_batch", _bool, False),
        sections=sections,
        digest=config_digest(sections),
    )
    _reject_unread("experiment", ex)
    return cfg


def load_experiment_config(path, seed_override: int | None = None) -> ExperimentConfig:
    return parse_experiment_config(read_config_file(path), seed_override)
