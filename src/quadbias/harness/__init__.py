"""Experiment harness: datasets, training, configuration, reports, CLI."""

from .config import ExperimentConfig, load_experiment_config, parse_experiment_config
from .datasets import Dataset, DatasetSpec, generate_dataset, load_csv
from .experiments import run_experiment
from .reports import read_csv, verify_result_dir, write_csv
from .training import Checkpoint, TrainConfig, load_checkpoint, save_checkpoint, train
