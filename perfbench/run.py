"""End-to-end and per-layer benchmark of the chase library and service.

Run from the repository root::

    python3 perfbench/run.py --workload chase_join --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``chase_join``, ``chase_dense`` — one restricted chase to the fixpoint
  per operation (``chase_workloads.py``);
* ``verdict_corpus`` — one termination verdict per operation
  (``verdict_workload.py``);
* ``service_mixed`` — one HTTP request per operation, four closed-loop
  session clients (``service_workload.py``).

The seed fixes the inputs, and nothing else.  The whole run, setup probes
and the service's server process included, is pinned to one CPU.  Every
time is reported at reference host speed: a fixed pure-Python probe runs
between slices of work, and each slice's times are scaled by how far the
probe ran from its reference time (``common.HostSpeed``), because the
shared host swings between core speeds 1.5x apart.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones:

* ``throughput_per_s`` — operations completed per second of the program's
  own time, the median over slices of the run (passes over the inputs, or
  about a second of service traffic).  For the in-process workloads that
  time is the summed operation latency; for ``service_mixed`` it is the
  server process's CPU time, so the clients' work is not counted;
* ``p50_ms``, ``p90_ms`` — operation latency, median and 90th percentile
  (each run completes several hundred operations or more).  For
  ``service_mixed`` it is what the clients see, so it includes their own
  work on the shared CPU; the run prints that share on standard error;
* ``peak_rss_mb`` — peak resident memory of the process running the
  program (the server process for ``service_mixed``);
* ``setup_s`` — median over ``SETUP_PROBES`` fresh interpreters of
  importing the program and building the workload's state from its
  inputs (parsing, instance construction, server boot).

With ``--trace 1`` the run attaches ``ChaseStats`` to every chase and
verdict and times the server's dispatch and facade calls; the metrics are
then the per-layer ones, the same names on every workload (a layer a
workload does not reach reads 0).

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from common import HostSpeed, median, p50_p90

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Workload name -> the module implementing it (see ``common.py``).
WORKLOADS = {
    "chase_join": "chase_workloads",
    "chase_dense": "chase_workloads",
    "verdict_corpus": "verdict_workload",
    "service_mixed": "service_workload",
}

SETUP_PROBES = 7

LAYER_METRICS = {
    "chase_apply_ms": "ms",
    "chase_discover_ms": "ms",
    "chase_other_ms": "ms",
    "triggers_discovered": "count",
    "fired_per_discovered": "ratio",
    "witness_hit_rate": "ratio",
    "stage_certificate_ms": "ms",
    "stage_stratification_ms": "ms",
    "stage_hierarchical_ms": "ms",
    "stage_decider_ms": "ms",
    "settled_cheaply_share": "ratio",
    "route_create_ms": "ms",
    "route_facts_ms": "ms",
    "service_call_ms": "ms",
    "server_dispatch_ms": "ms",
    "http_overhead_ms": "ms",
}


def _setup_probe(name: str, seed: int) -> float:
    """Import the program, build the workload's state; seconds, inputs excluded."""
    started = time.perf_counter()
    workload = importlib.import_module(WORKLOADS[name])
    build_started = time.perf_counter()
    inputs = workload.build_inputs(name, seed)
    building = time.perf_counter() - build_started
    state = workload.setup(inputs, False)
    elapsed = time.perf_counter() - started - building
    workload.teardown(state)
    return elapsed


def _setup_seconds(name: str, seed: int) -> float:
    """Median setup time over fresh interpreters, at reference host speed."""
    speed = HostSpeed()
    samples = []
    for _ in range(SETUP_PROBES):
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"setup probe failed: {completed.stderr.strip()[-2000:]}")
        elapsed = float(completed.stdout.strip().splitlines()[-1])
        samples.append(elapsed * speed.factor())
    return median(samples)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for the whole run, server process and setup probes included:
    # the program is single-threaded Python, and on a shared host a second
    # busy CPU brings steal time that swings results by a third.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.setup_probe:
        print(repr(_setup_probe(args.workload, args.seed)))
        return 0

    setup_s = None if args.trace else _setup_seconds(args.workload, args.seed)
    workload = importlib.import_module(WORKLOADS[args.workload])
    inputs = workload.build_inputs(args.workload, args.seed)
    state = workload.setup(inputs, bool(args.trace))
    try:
        gc.collect()
        outcome = workload.measure(state, inputs, args.seconds, bool(args.trace))
    finally:
        workload.teardown(state)

    for problem in outcome.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = outcome.failed == 0 and bool(outcome.latencies)
    if args.trace:
        # Layer times are raw; scale them to reference host speed too.
        metrics = {
            name: {
                "value": float(outcome.layers.get(name, 0.0))
                * (outcome.speed if unit == "ms" else 1.0),
                "unit": unit,
            }
            for name, unit in LAYER_METRICS.items()
        }
    else:
        p50, p90 = p50_p90(outcome.latencies)
        metrics = {
            "throughput_per_s": {
                "value": median(outcome.windows),
                "unit": "1/s",
            },
            "p50_ms": {"value": p50 * 1000, "unit": "ms"},
            "p90_ms": {"value": p90 * 1000, "unit": "ms"},
            "peak_rss_mb": {
                "value": outcome.peak_rss_mb
                or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(
        f"perfbench: {args.workload} seed={args.seed} ops={len(outcome.latencies)} "
        f"attempted={outcome.attempted} failed={outcome.failed} host_speed={outcome.speed:.3f}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
