"""quadbias benchmark: one frozen workload through ``run_experiment``.

    python3 bench/run.py --workload scan-toy --seed 0 --seconds 15 --trace 0

With ``--trace 0`` it runs the workload closed-loop (each call starts when
the previous one ends) for ``--seconds``, at least ``MIN_CALLS`` calls and
past those no call expected to end after the window, and reports the end-to-end metrics: median
wall time per call and median cold start over several fresh processes, both
scaled to a nominal machine speed (see ``speed.py``), and peak memory. With ``--trace 1`` it wraps the public callables of every
package module, runs the workload traced, removes the wrappers, runs it once
untraced, and reports the per-layer metrics. Every run's outputs are checked.
The last line printed is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--workload all`` runs every workload both ways,
each in its own process.

BLAS is pinned to one thread before numpy loads: on a small shared machine
that is the steadiest setting, and the plain single-threaded baseline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
# Traced calls per --trace 1 run; their exact counters must agree.
TRACED_REPS = 2
# Untraced calls per --trace 0 run at the least, so that one slow call of a
# workload whose call outlasts the window is not the run's median.
MIN_CALLS = 3
# Cold starts timed per --trace 0 run for setup_s.
SETUP_REPS = 2
PROBE_TIMEOUT_S = 120
WORKLOAD_NAMES = ("scan-toy", "laplace-toy", "sweep-dense", "cg-medium")


class BenchmarkError(Exception):
    """A condition under which the benchmark prints no result."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package():
    """Import quadbias from this checkout's src/, never from elsewhere."""
    if not (SRC / "quadbias" / "__init__.py").is_file():
        raise BenchmarkError(f"no quadbias sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import quadbias

    if Path(quadbias.__file__).resolve().parent != SRC / "quadbias":
        raise BenchmarkError(f"quadbias imported from {quadbias.__file__}, not {SRC}")


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": {var: os.environ.get(var) for var in BLAS_ENV}},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
    }


def _setup_time(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports the package, loads the
    config, generates the dataset and trains: the cold start a CLI user pays."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise BenchmarkError(f"setup probe failed:\n{proc.stderr}")
    return elapsed


class Runner:
    """Runs one workload's experiment into a result directory and checks it."""

    def __init__(self, workload: str, seed: int):
        from quadbias.harness import experiments
        from workloads import DEFAULT_SEED, load_config

        self.workload = workload
        self.cfg = load_config(workload, seed)
        self.compare = seed == DEFAULT_SEED
        self.experiments = experiments
        self.first = None  # data-file bytes of the first passing run
        self.out_root = OUT_ROOT / workload
        shutil.rmtree(self.out_root, ignore_errors=True)

    def run(self, label: str):
        """(wall seconds, problems, data-file bytes) of one call."""
        from checks import check_result_dir, snapshot

        out = self.out_root / label
        shutil.rmtree(out, ignore_errors=True)
        t0 = perf_counter()
        try:
            # looked up per call, so an installed wrapper is the one called
            self.experiments.run_experiment(self.cfg, out)
        except Exception:  # a failed call is counted, and the loop goes on
            wall = perf_counter() - t0
            traceback.print_exc()
            return wall, ["run_experiment raised"], None
        wall = perf_counter() - t0
        data = snapshot(out)
        if self.first is not None:
            return wall, ([] if data == self.first else ["outputs differ between runs"]), data
        problems = check_result_dir(out, self.workload, self.cfg, self.compare)
        if not problems:
            self.first = data
        return wall, problems, data


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _median_metric(scaled, raw, unit, what):
    lo, hi = _quartiles(scaled)
    return (statistics.median(scaled), unit,
            f"median of {len(scaled)} {what}, quartiles {lo:.4f}-{hi:.4f}; "
            f"raw median {statistics.median(raw):.4f}")


def measure_end_to_end(args) -> tuple:
    from speed import SpeedProbe
    from tracer import installed_wrappers

    probe = SpeedProbe()
    setup_raw, setup = [], []
    for _ in range(SETUP_REPS):
        setup_raw.append(_setup_time(args.workload, args.seed))
        setup.append(probe.scale(setup_raw[-1]))
    left = installed_wrappers()
    if left:
        raise BenchmarkError(f"span wrappers installed during untraced runs: {left}")
    runner = Runner(args.workload, args.seed)
    raw, walls, problems, failed = [], [], [], 0
    start = perf_counter()
    # past MIN_CALLS, the next call starts only if one more call as long as
    # the last would end inside the window, so a run's length does not depend
    # on the phase at which a long call happens to cross the window's end
    while len(raw) < MIN_CALLS or perf_counter() - start + raw[-1] <= args.seconds:
        wall, found, _ = runner.run("run")
        raw.append(wall)
        walls.append(probe.scale(wall))
        failed += bool(found)
        problems += found
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": _median_metric(walls, raw, "s", "calls"),
        "setup_s": _median_metric(setup, setup_raw, "s", "cold starts"),
        "peak_rss_mb": (peak_mib, "MiB", "peak of this process, 1 sample"),
    }
    return metrics, len(walls), failed, problems


def measure_layers(args) -> tuple:
    from layers import PER_LAYER, TARGETS, exact_counters, layer_metrics, span_invariants
    from tracer import Tracer, install, installed_wrappers, uninstall

    runner = Runner(args.workload, args.seed)
    tracer = Tracer()
    reps, traced_walls, traced_data, problems, failed = [], [], [], [], 0
    patches = install(tracer, TARGETS)
    try:
        for i in range(TRACED_REPS):
            tracer.reset()
            wall, found, data = runner.run(f"traced{i}")
            if data is None:
                raise BenchmarkError("traced run_experiment raised")
            traced_walls.append(wall)
            traced_data.append(data)
            found += span_invariants(tracer)
            failed += bool(found)
            problems += found
            reps.append(layer_metrics(tracer))
    finally:
        uninstall(patches)
        tracer.reset()
    left = installed_wrappers()
    if left:
        raise BenchmarkError(f"span wrappers left installed: {left}")
    wall, found, data = runner.run("run")
    if data is not None and any(d != data for d in traced_data):
        found.append("traced outputs differ from untraced outputs")
    failed += bool(found)
    problems += found
    counters = [exact_counters(r) for r in reps]
    if any(c != counters[0] for c in counters):
        diff = {k: [c[k] for c in counters] for k in counters[0]
                if any(c[k] != counters[0][k] for c in counters)}
        raise BenchmarkError(f"exact counters differ between runs at one seed: {diff}")

    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_frac":
            # the last traced call against the untraced one after it: both
            # warm, as the first call of a process is not
            value, samples = traced_walls[-1] / wall - 1.0, "last traced call / untraced call"
        elif name in counters[0]:
            value, samples = counters[0][name], "exact"
        else:
            value = statistics.median(r[name] for r in reps)
            samples = f"median of {TRACED_REPS} traced calls"
        metrics[name] = (value, unit, samples)
    return metrics, TRACED_REPS + 1, failed, problems


def run_one(args) -> int:
    _import_package()
    # as the CLI does by default: roundoff eigenvalue clamps are routine
    logging.getLogger("quadbias.laplace").setLevel(logging.ERROR)
    measure = measure_layers if args.trace else measure_end_to_end
    metrics, attempted, failed, problems = measure(args)
    record = {
        "machine": machine_record(args),
        "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in metrics.items()},
        "failed_frac": failed / attempted,
        "problems": problems,
    }
    OUT_ROOT.mkdir(exist_ok=True)
    (OUT_ROOT / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<14} {samples}")
    print(f"  {'failed_frac':<44} {failed / attempted:>14.6g} {'frac':<14} "
          f"{failed} of {attempted} calls")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                raise BenchmarkError(f"{workload} trace {trace} exited {proc.returncode}")
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        if args.seed < 0:
            raise BenchmarkError(f"--seed must be >= 0, got {args.seed}")
        return run_all(args) if args.workload == "all" else run_one(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    # before anything imports numpy; child processes inherit the setting
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.exit(main())
