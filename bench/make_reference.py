"""Write the reference outputs the benchmark compares against: each
workload at the default seed, data files only (CSVs and summary.json).

    python3 bench/make_reference.py [workload ...]

Run it only when a change is meant to alter the experiments' numbers.
"""

import logging
import os
import shutil
import sys
from pathlib import Path

from run import BLAS_ENV, BLAS_THREADS, WORKLOAD_NAMES

BENCH_DIR = Path(__file__).resolve().parent

if __name__ == "__main__":
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    from quadbias.harness.experiments import run_experiment

    from checks import REFERENCE_DIR, snapshot
    from workloads import DEFAULT_SEED, load_config

    logging.getLogger("quadbias.laplace").setLevel(logging.ERROR)
    for workload in sys.argv[1:] or WORKLOAD_NAMES:
        out = REFERENCE_DIR / workload
        shutil.rmtree(out, ignore_errors=True)
        run_experiment(load_config(workload, DEFAULT_SEED), out)
        keep = snapshot(out)
        for path in out.iterdir():
            if path.name not in keep:
                path.unlink()
        print(f"{workload}: {sorted(keep)}")
