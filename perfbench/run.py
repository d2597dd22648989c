"""Run one fedsynth benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fed-trend --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  The inputs of a run come
from ``--seed`` alone.  Each pass runs every method of the workload on
every input of the seed; passes repeat while the next one still fits in
``--seconds``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
passes, then one traced set-up and one traced pass, checks that the traced
pass writes byte-identical outputs, and prints the per-layer metrics.
Metrics are printed one per line by name with their unit; the last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 10


def _import_package() -> None:
    """Put the checkout's own package first on the path, or exit."""
    if not (SRC / "fedsynth" / "__init__.py").is_file():
        sys.exit(f"error: no fedsynth package under {SRC}; run from a source checkout")
    # one BLAS thread: the workloads do no large linear algebra, and a single
    # thread keeps timings steady on a small shared machine
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import fedsynth

    if Path(fedsynth.__file__).resolve().parent != (SRC / "fedsynth").resolve():
        sys.exit(f"error: imported fedsynth from {fedsynth.__file__}, not from {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    _import_package()
    import numpy

    import bench

    print(f"env: nproc {os.cpu_count()}, python {sys.version.split()[0]}, "
          f"numpy {numpy.__version__}, blas threads {os.environ['OPENBLAS_NUM_THREADS']}")
    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}")
    spec = bench.WORKLOADS[args.workload]

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        points = bench.setup(spec, args.seed)
        setup_times.append(time.perf_counter() - t0)

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(bench.run_pass(spec, points))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.seconds for p in passes) > args.seconds:
            break
    for later in passes[1:]:
        bench.compare_fingerprints(passes[0], later)
    labelled = [(f"pass {i}", p) for i, p in enumerate(passes, start=1)]

    if args.trace:
        setup_recorder = bench.traced_setup(spec, args.seed)
        traced, recorder, fits, filters = bench.traced_pass(spec, points)
        bench.compare_fingerprints(passes[0], traced)
        labelled.append(("traced pass", traced))
        metrics = bench.per_layer_metrics(passes, traced, recorder, setup_recorder, fits, filters)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = bench.end_to_end_metrics(setup_times, passes, peak_rss_mb)

    attempted = sum(len(p.results) for _, p in labelled)
    failed = sum(len(p.problems) for _, p in labelled)
    for label, p in labelled:
        for message in p.messages(label):
            print(f"FAILED {message}")
    print(f"workload {spec.name}, seed {args.seed}, points {bench.point_seeds(spec, args.seed)}, "
          f"passes {len(passes)}, runs {attempted}, failed_frac {failed / attempted:.4g}")
    first = passes[0]
    for r, seconds in zip(first.results, first.run_seconds):
        print(f"run {r.method} seed {r.seed}: {seconds:.3f} s, error {r.error_normalized:.5g}, "
              f"nll {r.nll:.5g}, client_bytes {r.client_bytes_total}, {r.status}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
