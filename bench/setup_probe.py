"""One cold start of a workload, timed by the caller from process launch:
import the package, load the workload's config, generate its dataset and
train its model.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from quadbias.harness import generate_dataset, train  # noqa: E402

from workloads import load_config  # noqa: E402

if __name__ == "__main__":
    cfg = load_config(sys.argv[1], int(sys.argv[2]))
    train(cfg.arch, generate_dataset(cfg.dataset), cfg.train)
