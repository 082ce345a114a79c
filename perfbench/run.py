"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload tier1-1rank --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
prints the per-layer metrics of a traced run.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every attempted solve or request passed the oracle.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

from peakmem import peak_mib

#: one thread: the workloads are single-process and the box is small
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _prepare() -> None:
    """Pin native thread pools (children inherit them) and check that
    this checkout holds the program's sources."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC / 'repro'}")


def _bootstrap() -> None:
    """Import the program from this checkout's ``src``, never from an
    installed copy; run before NumPy is first imported."""
    _prepare()
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _prepare()
    trace = bool(args.trace)
    if not trace:
        # first, while this process is still small (see peakmem.py)
        peak = peak_mib(args.workload, args.seed)
    _bootstrap()
    import numpy as np

    from workloads import END_TO_END_UNITS, WORKLOADS, per_layer_units

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    units = per_layer_units() if trace else END_TO_END_UNITS
    print(
        f"# perfbench workload={spec.name} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    print(
        f"# nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} {threads}"
    )

    outcome = spec.run(args.seed, args.seconds, trace)
    if not trace:
        outcome.metrics["peak_mem_mb"] = peak
        outcome.samples["peak_mem_mb"] = 1

    for note in outcome.notes:
        print(f"# {note}")
    for failure in outcome.failures:
        print(f"# FAILED {failure}")
    failed_frac = outcome.failed / max(1, outcome.attempted)
    print(f"# failed_frac = {failed_frac:.4g} ({outcome.failed} of {outcome.attempted})")
    for name, unit in units.items():
        n = outcome.samples.get(name)
        suffix = f"  (n={n})" if n else ""
        print(f"{name:32s} {outcome.metrics[name]:>16.6g} {unit}{suffix}")

    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
