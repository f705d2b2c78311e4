"""The benchmark's frozen workloads and how the benchmark seed reaches them.

Each workload is an experiment config kept in ``workloads/<name>.ini``. The
benchmark seed is added to the config's dataset seed, training seed and
experiment seed, so seed 0 reproduces the config as written (for the toy
workloads, the acceptance fixture of ``tests/conftest.py``).
"""

from __future__ import annotations

from pathlib import Path

from quadbias.harness.config import (
    ExperimentConfig,
    parse_experiment_config,
    read_config_file,
)

CONFIG_DIR = Path(__file__).resolve().parent / "workloads"

# The seed whose outputs are stored under reference/ and compared number by
# number. CHECK_SEED is a second seed, left out of tuning, on which a later
# performance claim must also hold.
DEFAULT_SEED = 0
CHECK_SEED = 1


def load_config(name: str, seed: int) -> ExperimentConfig:
    """The workload's config with the benchmark seed applied."""
    path = CONFIG_DIR / f"{name}.ini"
    if not path.is_file():
        raise ValueError(f"no workload config {path}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    sections = read_config_file(path)
    for section, key in (("dataset", "seed"), ("train", "seed"), ("experiment", "seeds")):
        sections[section][key] = str(int(sections[section][key]) + seed)
    return parse_experiment_config(sections)
