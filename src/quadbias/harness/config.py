"""Experiment configuration: a sectioned key-value text format, its typed
view, and the digest that stamps every output file.

Grammar: `[section]` headers, `key = value` pairs, `#` comment lines. Lists
are comma-separated. All seeds are explicit in the file; the digest is the
sha256 of the canonicalized (section, key, value) triples.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import io
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import (NONNEGATIVE, SEEDS, ValidationError, check_domains, count_needs, is_count,
                      is_nonnegative, is_seed)
from ..model import FISHER_MODES, MlpArchitecture
from ..quadratic import CURVATURE_KINDS
from .datasets import DatasetSpec
from .training import TrainConfig

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


def _list(cast):
    """A cast of comma-separated values, empty entries skipped."""
    return lambda raw: tuple(cast(v.strip()) for v in raw.split(",") if v.strip())


# true/false, yes/no or 1/0 in any case
_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}

# the config keys not named as their field
_KEY_OF = {"d": "dim", "c": "classes", "layer_sizes": "layers", "n_directions": "k"}


def _cast(hint):
    """The parser of a field's type: int, float and str parse as themselves,
    bool through _BOOLS, X | None as X and tuple[X, ...] as a list of X. Any
    other type is a TypeError at import, so a new field never silently takes
    a wrong parser."""
    args = typing.get_args(hint)
    if hint in (int, float, str):
        return hint
    if hint is bool:
        return lambda raw: _BOOLS[raw.lower()]
    if isinstance(hint, types.UnionType) and len(args) == 2 and args[1] is type(None):
        return _cast(args[0])
    if typing.get_origin(hint) is tuple and len(args) == 2 and args[1] is Ellipsis:
        return _list(_cast(args[0]))
    raise TypeError(f"no config parser for a field typed {hint}")


def _keys(cls, skip: tuple = ()) -> dict:
    """{config key: (field, cast)} of a dataclass's init fields, less skip."""
    hints = typing.get_type_hints(cls)
    return {_KEY_OF.get(f.name, f.name): (f.name, _cast(hints[f.name]))
            for f in dataclasses.fields(cls) if f.init and f.name not in skip}


def _fields(sections: dict, name: str) -> dict:
    """{field: cast value} of the keys one section sets; an unknown key is an error."""
    fields = {}
    for key, raw in sections.get(name, {}).items():
        if key not in _KEYS[name]:
            raise ValidationError(f"unknown config key {key!r} in [{name}]")
        attr, cast = _KEYS[name][key]
        try:
            fields[attr] = cast(raw.strip())
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"config key {key!r} in [{name}]: cannot parse {raw!r}") from exc
    return fields


@dataclass(kw_only=True)
class ExperimentConfig:
    """Typed view of one experiment file: one field per [experiment] key, its
    default the key's, and the la_grid they give; `sections` keeps the raw
    text values so the digest reflects exactly what was parsed."""

    dataset: DatasetSpec
    arch: MlpArchitecture
    train: TrainConfig
    sections: dict
    digest: str
    kind: str | None = None  # required: a file without it fails the kind row
    curvature: str = "ggn"
    beta: float = 0.0005
    delta: float = 0.0
    batch_sizes: tuple[int, ...] = (64,)
    n_directions: int = 10
    cg_iterations: int = 30
    seeds: tuple[int, ...] = (0,)
    la_grid_points: int = 13
    la_grid_min: float = 1e-4
    la_grid_max: float = 1.0
    la_grid_extra: tuple[float, ...] = (10.0,)
    mc_samples: int = 40
    fisher_mode: str = "mc_sample"
    n_source_batches: int | None = None
    widths: tuple[int, ...] = (8, 32, 128)
    chunk_size: int = 512
    force_same_batch: bool = False
    la_grid: tuple = field(init=False)  # la_grid_points log-spaced in [min, max], then extra

    def __post_init__(self):
        check_domains("experiment", (
            ("kind", self.kind, self.kind in EXPERIMENT_KINDS,
             f"one of {', '.join(EXPERIMENT_KINDS)}"),
            ("curvature", self.curvature, self.curvature in CURVATURE_KINDS,
             f"one of {', '.join(CURVATURE_KINDS)}"),
            ("fisher_mode", self.fisher_mode, self.fisher_mode in FISHER_MODES,
             f"one of {', '.join(FISHER_MODES)}"),
            ("seeds", self.seeds, bool(self.seeds) and all(map(is_seed, self.seeds))
             and len(set(self.seeds)) == len(self.seeds),
             f"a non-empty list of distinct seeds, each {SEEDS}"),
            ("beta", self.beta, is_nonnegative(self.beta), NONNEGATIVE),
            ("delta", self.delta, is_nonnegative(self.delta), NONNEGATIVE),
            *((key, count, is_count(count), count_needs(count)) for key, count in (
                ("k", self.n_directions), ("cg_iterations", self.cg_iterations),
                ("mc_samples", self.mc_samples), ("chunk_size", self.chunk_size))),
            ("n_source_batches", self.n_source_batches,
             self.n_source_batches is None or is_count(self.n_source_batches),
             count_needs(self.n_source_batches)),
            *((key, counts, bool(counts) and all(map(is_count, counts))
               and len(set(counts)) == len(counts), "a non-empty list of distinct counts >= 1")
              for key, counts in (("batch_sizes", self.batch_sizes), ("widths", self.widths))),
            ("la_grid_points", self.la_grid_points,
             is_count(self.la_grid_points, 0 if self.la_grid_extra else 1),
             count_needs(self.la_grid_points, ">= 0, and >= 1 when la_grid_extra is empty")),
            *((key, value, np.isfinite(value) and value > 0, "finite and > 0")
              for key, value in (("la_grid_min", self.la_grid_min),
                                 ("la_grid_max", self.la_grid_max),
                                 *(("la_grid_extra", v) for v in self.la_grid_extra))),
        ))
        if self.dataset.generator != "csv_file":  # the file sets its own width and classes
            self.check_layers(self.dataset.d, self.dataset.c)
        self.la_grid = tuple(np.logspace(np.log10(self.la_grid_min), np.log10(self.la_grid_max),
                                         self.la_grid_points)) + self.la_grid_extra

    def check_layers(self, dim: int, classes: int) -> None:
        """The layers run from the data's width to its class count."""
        sizes = self.arch.layer_sizes
        check_domains("model", (("layers", sizes, (sizes[0], sizes[-1]) == (dim, classes),
                                 f"{dim},...,{classes}, for the data's dim = {dim} and "
                                 f"classes = {classes}"),))


# [section] -> {config key: (field, cast)}; a key a file leaves out takes the
# field's dataclass default
_KEYS = {
    "dataset": _keys(DatasetSpec),
    "model": _keys(MlpArchitecture),
    "train": _keys(TrainConfig),
    "experiment": _keys(ExperimentConfig, ("dataset", "arch", "train", "sections", "digest")),
}


def with_seed_override(sections: dict, seed_override: int | None) -> dict:
    """The sections with the dataset seed replaced (a copy), or unchanged."""
    if seed_override is None:
        return sections
    sections = {s: dict(kv) for s, kv in sections.items()}
    sections.setdefault("dataset", {})["seed"] = str(seed_override)
    return sections


def parse_dataset_spec(sections: dict) -> DatasetSpec:
    """Typed view of the [dataset] section; a key it does not read is an
    error."""
    return DatasetSpec(**_fields(sections, "dataset"))


def parse_experiment_config(sections: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Typed view of an experiment file; a section or key it does not read
    is an error. Every default is a field default of DatasetSpec,
    MlpArchitecture, TrainConfig or ExperimentConfig; the default layers are
    (dim, 16, classes)."""
    sections = with_seed_override(sections, seed_override)
    for name in sections:
        if name not in _KEYS:
            raise ValidationError(f"unknown config section [{name}]")
    dataset = parse_dataset_spec(sections)
    return ExperimentConfig(
        dataset=dataset,
        arch=MlpArchitecture(**{"layer_sizes": (dataset.d, 16, dataset.c),
                                **_fields(sections, "model")}),
        train=TrainConfig(**_fields(sections, "train")),
        sections=sections,
        digest=config_digest(sections),
        **_fields(sections, "experiment"),
    )


def load_experiment_config(path, seed_override: int | None = None) -> ExperimentConfig:
    return parse_experiment_config(read_config_file(path), seed_override)
