"""SGD training of the toy models with checkpoint persistence.

Checkpoints are written as one UTF-8 JSON metadata line followed by the raw
little-endian float64 parameter array, so round trips are bitwise exact and
the format stays readable from other languages.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..errors import (NONNEGATIVE, SEEDS, ValidationError, check_domains, count_needs, is_count,
                      is_nonnegative, is_seed, require_finite)
from ..linalg import Rng
from ..model import Mlp, MlpArchitecture, ParamVector, build_layout
from .datasets import Dataset

CHECKPOINT_FORMAT_VERSION = 2


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.05
    momentum: float = 0.0
    epochs: int = 50
    batch_size: int = 64
    beta: float = 0.0  # weight decay on the masked parameters
    seed: int = 0

    def __post_init__(self):
        check_domains("train", (
            ("lr", self.lr, is_nonnegative(self.lr), NONNEGATIVE),
            ("momentum", self.momentum, 0 <= self.momentum < 1, "in [0, 1)"),
            ("epochs", self.epochs, is_count(self.epochs), count_needs(self.epochs)),
            ("batch_size", self.batch_size, is_count(self.batch_size),
             count_needs(self.batch_size)),
            ("beta", self.beta, is_nonnegative(self.beta), NONNEGATIVE),
            ("seed", self.seed, is_seed(self.seed), SEEDS),
        ))


@dataclass
class Checkpoint:
    epoch: int
    params: ParamVector
    arch: MlpArchitecture
    config_digest: str = ""  # empty from train; the train command stamps its own


def checkpoint_epochs(n_epochs: int) -> list:
    """Ten log-equidistant epochs between the first and last, plus the final
    epoch."""
    raw = np.logspace(0.0, np.log10(n_epochs), 10)
    return sorted(set(int(round(e)) for e in raw) | {n_epochs})


def train(arch: MlpArchitecture, dataset: Dataset, config: TrainConfig) -> list:
    """Plain SGD with optional momentum on the regularized loss.

    Checkpoints at the log-equidistant epochs plus the final one;
    deterministic given the seed. Non-finite loss raises, naming the epoch.
    """
    mlp = Mlp(arch)
    rng = Rng(config.seed)
    params = mlp.init_params(rng.split(0))
    velocity = np.zeros(params.n_params)
    ckpt_at = set(checkpoint_epochs(config.epochs))
    checkpoints = []
    data = dataset.train_batch()  # checked once; each step copies its own rows

    for epoch in range(1, config.epochs + 1):
        stage = f"training diverged at epoch {epoch}"
        for pos in dataset.partition(config.batch_size, seed=rng.split(epoch)):
            loss, grad = mlp.loss_and_grad(params, data.rows(pos), config.beta)
            require_finite(stage, loss=loss)
            velocity *= config.momentum
            velocity += grad
            params.values -= config.lr * velocity
        if epoch in ckpt_at:
            checkpoints.append(Checkpoint(epoch, params.copy(), arch))
    return checkpoints


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    path = Path(path)
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "epoch": ckpt.epoch,
        "arch": asdict(ckpt.arch),
        "config_digest": ckpt.config_digest,
        "n_params": ckpt.params.n_params,
    }
    with path.open("wb") as fh:
        fh.write(json.dumps(meta, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(ckpt.params.values.astype("<f8").tobytes())


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at path; a damaged header (not a UTF-8 JSON object with
    every field, an architecture or a parameter count that contradicts it)
    or payload raises ValidationError naming the file."""
    path = Path(path)
    with path.open("rb") as fh:
        head, raw = fh.readline(), fh.read()
    try:
        meta = json.loads(head.decode("utf-8"))
        version = meta.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValidationError(f"{path}: unsupported checkpoint format version {version!r}")
        n_params, fields = meta["n_params"], meta["arch"]
        epoch, digest = meta["epoch"], meta["config_digest"]
    except (UnicodeDecodeError, json.JSONDecodeError, AttributeError, KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: damaged checkpoint header ({exc!r})") from None
    try:  # not MlpArchitecture's own error, which names a config key
        arch = MlpArchitecture(**fields)
    except (ValueError, TypeError):
        raise ValidationError(f"{path}: checkpoint header arch {fields!r} is not an "
                              "architecture") from None
    layout = build_layout(arch)
    size = sum(e.size for e in layout)
    if n_params != size:
        raise ValidationError(f"{path}: checkpoint header n_params {n_params!r} != {size}, "
                              "the parameter count of its arch")
    if len(raw) != 8 * size:
        raise ValidationError(f"{path}: parameter payload truncated")
    params = ParamVector(np.frombuffer(raw, dtype="<f8").astype(np.float64), layout)
    return Checkpoint(epoch=epoch, params=params, arch=arch, config_digest=digest)
