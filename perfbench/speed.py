"""Host-speed calibration for the end-to-end timings.

The benchmark runs on a shared host whose speed drifts by tens of
percent over seconds to minutes, far more than the regressions the
bounds in ``BENCHMARK.json`` must catch.  So the timed work is sampled
with a fixed *probe*: a few milliseconds of NumPy gathers and arithmetic
plus an interpreter loop of tiny array operations and dict updates, the
same mix the solver runs, sharing no code with the program.

:class:`SpeedProbe` runs the probe once before and once after a timed
sample and, while installed, before every V-cycle (``VCycle.run``) of the
work inside it.  The probe time is subtracted from the sample's wall
time, and the rest is scaled by ``REFERENCE_S / mean(probe walls)``.
The reported times are therefore seconds at the host speed where one
probe takes :data:`REFERENCE_S`: a change to the program moves them, a
change in the host's speed mostly does not.  Raw wall times are printed
alongside.
"""

from __future__ import annotations

import contextlib
import statistics
import time

import numpy as np

#: probe wall that defines the reported time scale (about one probe on
#: this host when it is not contended: a 2-core Xeon at 2.1 GHz)
REFERENCE_S = 0.003

_rng = np.random.default_rng(12345)
_SOURCE = _rng.random((512, 64))
_INDEX = _rng.integers(0, 512, size=(8, 512))
_OUT = np.empty((8, 512, 64))
_SMALL = [np.zeros(8) for _ in range(64)]
_BLOCK = np.zeros((4, 4, 4))
_FLAT = np.arange(16)


def probe() -> float:
    """Wall seconds of one run of the fixed probe workload."""
    t0 = time.perf_counter()
    np.take(_SOURCE, _INDEX, axis=0, out=_OUT)
    acc = _OUT[0] * -6.0
    for k in range(1, 7):
        acc += _OUT[k]
    box = {}
    for i in range(300):
        pair = np.stack([_BLOCK[0], _BLOCK[1]])
        box[i & 63] = (pair.copy(), i)
        _BLOCK.reshape(-1)[_FLAT] += 1.0
        small = _SMALL[i & 63]
        box[(i & 63, i & 7)] = small[i & 7] + 1.0
    return time.perf_counter() - t0


class SpeedProbe:
    """Probes host speed around and inside timed work.

    ``every`` thins the in-work probes to every n-th V-cycle.
    """

    def __init__(self, every: int = 1) -> None:
        self.every = every
        #: probe walls, and the ``perf_counter`` time each probe ended
        self.walls: list[float] = []
        self.ends: list[float] = []
        self._cycles = 0

    @contextlib.contextmanager
    def sampling(self):
        """Probe before and after the block and, inside it, before
        V-cycles.  Build what the block times inside it or outside,
        either works: the V-cycle method is patched on the class."""
        from repro.gmg.vcycle import VCycle

        original = VCycle.__dict__["run"]

        def run(vcycle):
            self._cycles += 1
            if self._cycles % self.every == 0:
                self.sample()
            return original(vcycle)

        self.sample()
        VCycle.run = run
        try:
            yield self
        finally:
            VCycle.run = original
            self.sample()

    def sample(self) -> None:
        """Probe now, between pieces of work the block times itself."""
        self.walls.append(probe())
        self.ends.append(time.perf_counter())

    @property
    def in_work_s(self) -> float:
        """Probe time spent inside the block (excludes the two ends)."""
        return sum(self.walls[1:-1])

    @property
    def factor(self) -> float:
        return REFERENCE_S / statistics.fmean(self.walls)

    def factor_between(self, start: float, end: float) -> float:
        """Speed factor of the probes that ended in ``[start, end]``
        (``perf_counter`` times), or of the whole block if none did."""
        inside = [w for w, t in zip(self.walls, self.ends) if start <= t <= end]
        if not inside:
            return self.factor
        return REFERENCE_S / statistics.fmean(inside)

    def scale(self, wall: float) -> float:
        """Speed-scaled seconds of a sample whose wall time included
        this block's in-work probes."""
        return (wall - self.in_work_s) * self.factor
