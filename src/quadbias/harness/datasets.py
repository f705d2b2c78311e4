"""Synthetic dataset generators, CSV ingestion, and mini-batch partitioning.

Generators produce balanced labels (within one sample per class) and are pure
functions of their spec, seed included. The optional OOD set is drawn from the
test distribution with translated class means and inflated noise, standing in
for corruption-style distribution shift.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import (SEEDS, ValidationError, check_counts, check_domains, is_count, is_seed,
                      require_finite)
from ..linalg import Rng
from ..model import Batch, one_hot

GENERATORS = ("gaussian_blobs", "two_arcs", "spirals", "csv_file")


@dataclass(frozen=True)
class DatasetSpec:
    generator: str = "gaussian_blobs"
    n: int = 1024
    d: int = 2
    c: int = 2
    noise: float = 0.5
    seed: int = 0
    train_frac: float = 0.8
    ood_translation: float = 0.0
    ood_noise_mult: float = 1.0
    path: str | None = None  # csv_file generator

    def __post_init__(self):
        check_domains("dataset", (
            ("generator", self.generator, self.generator in GENERATORS,
             f"one of {', '.join(GENERATORS)}"),
            ("seed", self.seed, is_seed(self.seed), SEEDS),
            ("train_frac", self.train_frac, 0.0 < self.train_frac <= 1.0, "in (0, 1]"),
            ("path", self.path, self.generator != "csv_file" or bool(self.path),
             "set for generator csv_file"),
        ))
        if self.generator == "csv_file":
            return  # the file gives the rows, their width and the labels
        check_domains("dataset", (
            ("dim", self.d, is_count(self.d), ">= 1"),
            ("dim", self.d, self.d >= 2 or self.generator == "gaussian_blobs",
             f">= 2 for generator {self.generator}"),
            ("classes", self.c, is_count(self.c), ">= 1"),
            ("classes", self.c, self.c == 2 or self.generator != "two_arcs",
             "2 for generator two_arcs"),
            ("n", self.n, is_count(self.n, self.c), f">= classes = {self.c}"),
            ("noise", self.noise, np.isfinite(self.noise) and self.noise >= 0,
             "finite and >= 0"),
            ("ood_noise_mult", self.ood_noise_mult,
             np.isfinite(self.ood_noise_mult) and self.ood_noise_mult >= 0, "finite and >= 0"),
            ("ood_translation", self.ood_translation, np.isfinite(self.ood_translation),
             "finite"),
        ))

    @property
    def has_ood(self) -> bool:
        return self.ood_translation != 0.0 or self.ood_noise_mult != 1.0


@dataclass
class Dataset:
    """Train/test split (plus optional OOD set) with one-hot targets."""

    train_inputs: np.ndarray
    train_labels: np.ndarray
    test_inputs: np.ndarray
    test_labels: np.ndarray
    n_classes: int
    ood_inputs: np.ndarray | None = None
    ood_labels: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.train_inputs.shape[1]

    @property
    def n_train(self) -> int:
        return self.train_inputs.shape[0]

    def train_batch(self) -> Batch:
        return Batch(self.train_inputs, one_hot(self.train_labels, self.n_classes))

    def partition(self, batch_size: int, seed, drop_last: bool = False) -> list:
        """Row positions of each mini-batch: a seeded shuffle of the train
        rows cut into disjoint sequential slices, the last one short unless
        drop_last drops it. seed may be an integer or an Rng instance."""
        check_counts(batch_size=batch_size)
        rng = seed if isinstance(seed, Rng) else Rng(seed)
        perm = rng.permutation(self.n_train)
        stop = self.n_train - self.n_train % batch_size if drop_last else self.n_train
        return [perm[start : start + batch_size] for start in range(0, stop, batch_size)]

    def minibatches(self, batch_size: int, seed, drop_last: bool = False) -> list:
        """The Batches of ``partition(batch_size, seed, drop_last)``."""
        parts = self.partition(batch_size, seed, drop_last)
        targets = one_hot(self.train_labels, self.n_classes)
        return [Batch(self.train_inputs[pos], targets[pos]) for pos in parts]


def _balanced_labels(n: int, c: int) -> np.ndarray:
    counts = [n // c + (1 if k < n % c else 0) for k in range(c)]
    return np.repeat(np.arange(c), counts)


def _blob_means(rng: Rng, d: int, c: int) -> np.ndarray:
    """Well-separated class means: random directions at radius 4."""
    means = rng.normal(c * d).reshape(c, d)
    means /= np.maximum(np.linalg.norm(means, axis=1, keepdims=True), 1e-12)
    return 4.0 * means


def _shift_vector(spec: DatasetSpec, translation: float) -> np.ndarray:
    """Distribution-shift direction; a fixed function of the dataset seed so
    every split sees the same geometry."""
    if not translation:
        return np.zeros(spec.d)
    direction = Rng(spec.seed).split(9001).normal(spec.d)
    return translation * direction / np.linalg.norm(direction)


def _gaussian_blobs(spec: DatasetSpec, rng: Rng, n: int):
    labels = _balanced_labels(n, spec.c)
    # class means depend on the dataset seed only, never on the split
    return _blob_means(Rng(spec.seed).split(9000), spec.d, spec.c)[labels], labels


def _two_arcs(spec: DatasetSpec, rng: Rng, n: int):
    labels = _balanced_labels(n, 2)
    t = rng.split(0).uniform(n) * np.pi
    x = np.zeros((n, spec.d))
    upper = labels == 0
    x[upper, 0] = np.cos(t[upper])
    x[upper, 1] = np.sin(t[upper])
    x[~upper, 0] = 1.0 - np.cos(t[~upper])
    x[~upper, 1] = 0.5 - np.sin(t[~upper])
    return x, labels


def _spirals(spec: DatasetSpec, rng: Rng, n: int):
    labels = _balanced_labels(n, spec.c)
    t = rng.split(0).uniform(n)
    radius = 0.2 + 2.0 * t
    angle = 3.0 * np.pi * t + 2.0 * np.pi * labels / spec.c
    x = np.zeros((n, spec.d))
    x[:, 0] = radius * np.cos(angle)
    x[:, 1] = radius * np.sin(angle)
    return x, labels


_SYNTH = {
    "gaussian_blobs": _gaussian_blobs,
    "two_arcs": _two_arcs,
    "spirals": _spirals,
}


def _sample(spec: DatasetSpec, rng: Rng, n: int, translation: float = 0.0,
            noise_mult: float = 1.0):
    """n rows of the spec's generator from rng: its noise-free points x, then
    x + shift + noise * noise_mult * N(0, 1), the normal draws from
    rng.split(2); labels as the generator gives them."""
    x, labels = _SYNTH[spec.generator](spec, rng, n)
    noise = rng.split(2).normal(n * spec.d).reshape(n, spec.d)
    return x + _shift_vector(spec, translation) + spec.noise * noise_mult * noise, labels


def generate_dataset(spec: DatasetSpec) -> Dataset:
    """Deterministic dataset from a spec; OOD set only when a shift is set."""
    if spec.generator == "csv_file":
        x, labels = load_csv(spec.path)
        c = int(labels.max()) + 1 if labels.size else 0
        # a seeded partition of the rows, so a file sorted by label still
        # splits into label-mixed halves; each half keeps file order
        perm = Rng(spec.seed).split(400).permutation(x.shape[0])
        n_train = int(round(spec.train_frac * x.shape[0]))
        train, test = np.sort(perm[:n_train]), np.sort(perm[n_train:])
        return Dataset(
            train_inputs=x[train],
            train_labels=labels[train],
            test_inputs=x[test],
            test_labels=labels[test],
            n_classes=max(c, spec.c),
        )

    root = Rng(spec.seed)
    n_train = int(round(spec.train_frac * spec.n))
    n_test = spec.n - n_train
    x_tr, y_tr = _sample(spec, root.split(100), n_train)
    x_te, y_te = _sample(spec, root.split(200), n_test)
    ood_x = ood_y = None
    if spec.has_ood and n_test > 0:
        ood_x, ood_y = _sample(spec, root.split(300), n_test,
                               spec.ood_translation, spec.ood_noise_mult)
    return Dataset(
        train_inputs=x_tr,
        train_labels=y_tr,
        test_inputs=x_te,
        test_labels=y_te,
        n_classes=spec.c,
        ood_inputs=ood_x,
        ood_labels=ood_y,
    )


def load_csv(path) -> tuple:
    """Read the documented dataset format: header x0..x{D-1},label; finite
    inputs and 0-based integer labels. A file that is empty or holds an entry
    of another form raises ValidationError naming it, its line and the
    entry."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"{path}: dataset file not found")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if not header or header[-1] != "label" or not header[0].startswith("x"):
            raise ValidationError(f"{path}: expected header x0,...,x{{D-1}},label")
        d = len(header) - 1
        rows = []
        labels = []
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            if len(row) != d + 1:
                raise ValidationError(f"{where}: row width {len(row)} != {d + 1}")
            try:
                rows.append([float(v) for v in row[:d]])
                labels.append(int(row[d]))
            except ValueError as exc:
                raise ValidationError(f"{where}: {exc}") from None
            require_finite(where, ValidationError, **dict(zip(header, rows[-1])))
            if labels[-1] < 0:
                raise ValidationError(f"{where}: label = {row[d]!r} is negative")
    x = np.asarray(rows, dtype=np.float64).reshape(len(rows), d)
    return x, np.asarray(labels, dtype=np.int64)


def save_csv(path, inputs: np.ndarray, labels: np.ndarray) -> None:
    path = Path(path)
    d = inputs.shape[1]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(d)] + ["label"])
        for row, lab in zip(inputs, labels):
            writer.writerow([format(v, ".17g") for v in row] + [int(lab)])
