"""regbvp benchmark: seeded workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload report-gallery --seed 1 --seconds 33 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``report-gallery`` -- fresh-process ``regbvp report <name> -o <file>``
  over the eight gallery examples, seed-shuffled, in whole rounds;
* ``roots-random``   -- seeded random model operators, root finding in
  process;
* ``forms-random``   -- seeded random order-2 divergence forms, classification,
  complete regularity and numerical range in process.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every
operation untraced and then with the layer wrappers of ``tracing.py``
and reports the per-layer metrics, with the tracing overhead.  Every
output is checked (``checks.py``) outside the timed region.  The program
is run from ``src`` under single-threaded BLAS for every workload.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files go
to ``.perfbench/`` at the repository root.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 7
IMPORT_PROFILE_REPEATS = 3
WORKLOADS = ("report-gallery", "roots-random", "forms-random")


def setup_seconds(python, env, clock):
    """Median wall time, at the reference speed, of a fresh
    ``python -c 'import regbvp.cli'``, after one untimed import that
    fills the bytecode cache."""
    argv = [python, "-c", "import regbvp.cli"]
    subprocess.run(argv, env=env, check=True, timeout=120)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, timeout=120)
        clock.record(time.perf_counter() - start)
    return statistics.median(clock.reference_seconds())


def _version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": THREADS,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "regbvp" / "cli.py").is_file():
        print(f"error: no regbvp sources under {SRC}", file=sys.stderr)
        return 2
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in definition[kind]}

    # The thread settings must be in place before numpy is first imported,
    # here and in every child process.  One CPU for this process and its
    # children: see refclock.py.
    os.environ.update(THREADS)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = dict(os.environ, PYTHONPATH=str(SRC))
    sys.path.insert(0, str(SRC))
    import refclock
    import tracing
    import workloads

    SCRATCH.mkdir(exist_ok=True)
    python = sys.executable
    print(json.dumps({"environment": environment()}))
    workload = {
        "report-gallery": lambda: workloads.GalleryReports(python, env, SCRATCH),
        "roots-random": workloads.RandomRoots,
        "forms-random": workloads.RandomForms,
    }[args.workload]()
    children = args.workload == "report-gallery"

    if args.trace:
        profiles = [tracing.import_profile(python, env) for _ in range(IMPORT_PROFILE_REPEATS)]
        run = workloads.measure(workload, args.seed, args.seconds, traced=True)
        values = workloads.per_layer(run, units,
                                     statistics.median(p[0] for p in profiles),
                                     statistics.median(p[1] for p in profiles))
        spans_path = SCRATCH / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps(run.spans))
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        print("traced operations:")
        for line in workloads.describe_ops(run):
            print(line)
    else:
        setup = setup_seconds(python, env, refclock.ReferenceClock())
        run = workloads.measure(workload, args.seed, args.seconds, traced=False)
        values = workloads.end_to_end(run, workloads.peak_rss_kb(children), setup)

    attempted, failed = len(run.durations), len(run.failures)
    value, percentile, beyond = workloads.tail(run.durations)
    print(f"{args.workload} seed {args.seed}: {run.rounds} rounds, "
          f"{attempted} attempted, {failed} failed "
          f"(failed_ratio {failed / attempted:.4f}); "
          f"op_tail_s is p{percentile:.1f} of {attempted} samples "
          f"({beyond} beyond it); measured op p50 "
          f"{statistics.median(run.measured):.4f}s, mean {statistics.mean(run.measured):.4f}s")
    for line in run.failures[:10]:
        print(f"failed: {line}")
    for line in run.problems[:20]:
        print(f"incorrect: {line}")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
