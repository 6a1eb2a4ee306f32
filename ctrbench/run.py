"""Run one workload of the lowrank-ctr benchmark and print its result.

    python3 ctrbench/run.py --workload serve --seed 3 --seconds 20 --trace 0

Run it from the root of a checkout: the package is imported from ``src/``
next to this directory, never from an installed copy.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics and the tracing overhead with ``--trace 1``.  The line
before it holds the run's detail (per-operation breakdown, check results,
BLAS threads, CPUs), which is also written to ``ctrbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BLAS_THREADS = 1  # fixed, so runs are steady and reproducible on a shared host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7


def _import_program():
    if not (SRC / "lowrank_ctr" / "__init__.py").is_file():
        sys.exit(f"error: {SRC}/lowrank_ctr not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import lowrank_ctr

    if Path(lowrank_ctr.__file__).resolve().parent != SRC / "lowrank_ctr":
        sys.exit(f"error: lowrank_ctr imported from {lowrank_ctr.__file__}, not {SRC}")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _scale_record(record: dict, factor: float) -> None:
    """Scale a round's breakdown like the round: times by ``factor``, rates by its inverse."""
    for key, value in record.items():
        if "_per_s" in key:
            record[key] = value / factor
        elif key.endswith("_s") or "_ms" in key:
            record[key] = value * factor


def _breakdown(records) -> dict:
    keys = sorted({k for r in records for k in r})
    return {k: statistics.median([r[k] for r in records if k in r]) for k in keys}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["pipeline", "serve", "compress"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    _import_program()
    import numpy as np  # after the thread settings above, which BLAS reads when it loads

    from checks import CHECKS
    from speed import REFERENCE_S, SpeedSampler
    from tracing import Tracer
    from workloads import WORKLOADS

    results_dir = HERE / "results"
    workdir = results_dir / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    cls, sizes = WORKLOADS[args.workload]
    wl = cls(sizes(), args.seed, workdir)
    try:
        started = time.perf_counter()
        wl.fixture()
        fixture_s = time.perf_counter() - started

        sampler = SpeedSampler()
        with sampler:
            setups = [sampler.timed(wl.setup) for _ in range(SETUP_REPEATS)]

        plain, traced = [], []
        tracer = Tracer()
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            # a first untraced round keeps cold caches out of the overhead
            _timed(wl.round)
        while True:
            with sampler:
                plain.append(sampler.timed(wl.round))
            work, scaled = plain[-1]
            _scale_record(wl.records[-1], scaled / work)
            if len(plain) == 1:
                # taken once the first round is done, so it does not depend
                # on how many rounds fit into the run
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if args.trace:
                # the sampler is off here, so spans hold no kernel time
                with tracer:
                    traced.append(_timed(wl.round))
            if time.perf_counter() >= deadline:
                break
        records = wl.records[1::2] if args.trace else wl.records

        checks = CHECKS[args.workload](wl.outputs())
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "blas_threads": BLAS_THREADS,
            "cpus": sorted(os.sched_getaffinity(0)),
            "numpy": np.__version__,
            "fixture_s": fixture_s,
            "speed_kernel_s": {
                "reference": REFERENCE_S,
                "median": statistics.median(sampler.samples),
                "samples": len(sampler.samples),
            },
            "setup_s": setups,
            "rounds": len(plain),
            "round_s": plain,
            "traced_round_s": traced,
            "breakdown": _breakdown(records),
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        }
        if args.trace:
            metrics = tracer.per_round(len(traced))
            metrics["trace.overhead_s"] = {
                "value": statistics.median(traced) - statistics.median(w for w, _ in plain),
                "unit": "s",
            }
        else:
            metrics = {
                "setup_s": {"value": statistics.median(s for _, s in setups), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                "round_s": {"value": statistics.median(s for _, s in plain), "unit": "s"},
                "model_bytes": {"value": wl.model_bytes(), "unit": "bytes"},
            }
        result = {
            "correct": all(ok for _, ok, _ in checks),
            "attempted": wl.attempted,
            "failed": wl.failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail["result"] = result
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
