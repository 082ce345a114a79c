"""Peak memory of one solve or stream, measured in child processes.

``peak_mib(name, seed)`` runs two children: one that imports the program
and builds the workload's inputs, and one that does the same and then
runs one pass of the workload (``memory_pass``).  Each child reports its
own peak resident set size.  The difference is the memory the pass
itself needed.

A child's peak starts at its parent's resident size when it is spawned
(Linux folds the pre-exec image into ``ru_maxrss``), so call this while
the parent is still smaller than a child that has only imported the
program; :func:`peak_mib` refuses otherwise.

Resident memory rather than ``tracemalloc``: tracing every allocation
slows the 8-rank solve six- to sevenfold (about 30 s a run), which the
benchmark's time budget cannot carry.  Peak RSS costs nothing in the
measured process and also counts memory the allocator holds on to.

Run as a script, this module is the child: ``peakmem.py NAME SEED PHASE``
with PHASE ``base`` or ``pass``.
"""

from __future__ import annotations

import resource
import subprocess
import sys
from pathlib import Path

#: a child that takes longer than this is treated as hung
CHILD_TIMEOUT_S = 120


def _child(name: str, seed: int, phase: str) -> int:
    """Peak RSS of one child in KiB."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), name, str(seed), phase],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["(no output)"]
        sys.exit(f"perfbench: peak-memory child failed: {tail[0]}")
    return int(done.stdout.split()[-1])


def peak_mib(name: str, seed: int) -> float:
    """Peak resident MiB one pass of workload ``name`` adds."""
    base = _child(name, seed, "base")
    peak = _child(name, seed, "pass")
    parent = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if base <= parent:
        raise RuntimeError(
            f"parent peak {parent} KiB hides the children's ({base} KiB); "
            "measure peak memory before the parent grows"
        )
    return (peak - base) / 1024.0


def main(argv) -> None:
    name, seed, phase = argv[0], int(argv[1]), argv[2]
    import run

    run._bootstrap()
    from workloads import WORKLOADS

    memory_pass = WORKLOADS[name].memory_pass(seed)
    if phase == "pass":
        memory_pass()
    elif phase != "base":
        sys.exit(f"peakmem: unknown phase {phase!r}")
    # ru_maxrss is in KiB on Linux
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


if __name__ == "__main__":
    main(sys.argv[1:])
