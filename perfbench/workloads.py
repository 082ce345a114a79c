"""The benchmark's workloads, their runners and the correctness oracle.

Every workload goes through the default solve path: configs set only
problem-defining :class:`~repro.gmg.solver.SolverConfig` fields
(:data:`PROBLEM_FIELDS`), never an engine toggle, so they measure what
``GMGSolver(SolverConfig(...))`` and ``SolveService`` give a user and
keep running when the toggles are deleted.

A runner returns an :class:`Outcome`: the end-to-end metrics of an
untraced run, or the per-layer metrics of a traced run.  Each checked
solve or request is one attempt; an attempt fails when it raises, does
not converge, or misses the oracle (:func:`solution_problems`), which
shares no code with the brick layout: a dense ``np.roll`` 7-point
residual plus the closed-form discrete solution of
:mod:`repro.gmg.problem`.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from speed import SpeedProbe
from tracing import SpanLog, layer_metric_names, layer_metrics, per_unit

from repro.bricks.halo_plan import clear_offset_plan_cache
from repro.bricks.partition import clear_partition_cache
from repro.gmg.problem import discrete_solution, rhs_field
from repro.gmg.solver import GMGSolver, SolverConfig
from repro.service import SolveRequest, SolveService
from repro.service.request import standalone_solve

#: the only SolverConfig fields a workload may set
PROBLEM_FIELDS = (
    "global_cells", "num_levels", "brick_dim", "boundary", "rank_dims",
    "tol", "max_smooths", "bottom_smooths",
)
#: engine toggles a workload must never set (the default path is measured)
ENGINE_TOGGLES = (
    "halo_resident", "fuse_kernels", "batch_ranks", "overlap",
    "agglomerate_threshold",
)

#: set-up repetitions per run (setup_s is their median)
SETUP_REPS = 41
#: fewest timed solves a tier-1 run makes, however short ``seconds`` is
MIN_SOLVES = 3
#: closed batches timed for the service's per-request solve_s
CLOSED_BATCHES = 5
#: the paced stream probes host speed before every n-th cohort V-cycle
STREAM_PROBE_EVERY = 4
#: requests sampled per service run for the standalone identity check
IDENTITY_SAMPLES = 2
#: rounding slack between the dense residual and the solver's own
#: brick-kernel residual (different summation order, ~1e-15 relative)
ROUNDING = 1e-13

END_TO_END_UNITS = {
    "solve_s": "s",
    "setup_s": "s",
    "vcycles": "count",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_mem_mb": "MiB",
}


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    units = {}
    for name in layer_metric_names():
        leaf = name.rsplit(".", 1)[1]
        if leaf in ("launches", "points", "cycles"):
            units[name] = "count"
        elif name.startswith("trace."):
            units[name] = "ratio"
        else:
            units[name] = "s"
    for lev in (0, 1, 2):
        units[f"exchange.L{lev}.calls"] = "count"
        units[f"exchange.L{lev}.messages"] = "count"
        units[f"exchange.L{lev}.bytes"] = "B"
    units["cohort.occupancy"] = "ratio"
    units["cohort.admit_lag_ms"] = "ms"
    units["trace.overhead_frac"] = "ratio"
    return units


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Tier1:
    """Back-to-back solves of the ROADMAP reference problem."""

    name: str
    rank_dims: tuple[int, int, int]
    global_cells: int = 32
    num_levels: int = 3
    brick_dim: int = 4
    tol: float = 1e-10

    def config_fields(self) -> dict:
        return dict(
            global_cells=self.global_cells, num_levels=self.num_levels,
            brick_dim=self.brick_dim, boundary="periodic",
            rank_dims=self.rank_dims, tol=self.tol,
        )

    def run(self, seed: int, seconds: float, trace: bool) -> "Outcome":
        return run_tier1(self, seconds, trace)

    def memory_pass(self, seed: int):
        """One build and solve (the ``peak_mem_mb`` pass)."""
        config = SolverConfig(**self.config_fields())
        return lambda: GMGSolver(config).solve()


@dataclass(frozen=True)
class ServicePaced:
    """An open-loop Poisson request stream into ``SolveService``."""

    name: str
    rate: float = 4.0
    capacity: int = 8
    global_cells: int = 8
    num_levels: int = 3
    brick_dim: int = 2
    max_smooths: int = 4
    bottom_smooths: int = 16
    log10_tol: tuple[float, float] = (-11.0, -7.0)
    amplitude: tuple[float, float] = (0.5, 2.0)
    #: fewest requests in a stream, so the p90 has ten beyond it
    min_requests: int = 100
    #: logical seconds one cohort V-cycle advances the traced run's
    #: clock (about today's cycle wall on the default path)
    cycle_quantum: float = 0.07

    def config_fields(self) -> dict:
        return dict(
            global_cells=self.global_cells, num_levels=self.num_levels,
            brick_dim=self.brick_dim, boundary="periodic",
            max_smooths=self.max_smooths, bottom_smooths=self.bottom_smooths,
        )

    def run(self, seed: int, seconds: float, trace: bool) -> "Outcome":
        return run_service(self, seed, seconds, trace)

    def closed_batch(self, seed: int) -> list:
        """``2 * capacity`` requests drawn like the stream's."""
        return make_stream(self, seed, 2 * self.capacity)[0]

    def memory_pass(self, seed: int):
        """One closed batch through a fresh service (the
        ``peak_mem_mb`` pass)."""
        batch = self.closed_batch(seed)
        return lambda: SolveService(self.capacity).submit(batch)


WORKLOADS = {
    w.name: w
    for w in (
        Tier1("tier1-1rank", rank_dims=(1, 1, 1)),
        Tier1("tier1-8rank", rank_dims=(2, 2, 2)),
        ServicePaced("service-paced"),
    )
}


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------
def dense_residual(x: np.ndarray, b: np.ndarray, h: float) -> float:
    """Max-norm of ``b - A x`` for the periodic 7-point Laplacian."""
    ax = -6.0 * x
    for axis in range(3):
        ax += np.roll(x, 1, axis) + np.roll(x, -1, axis)
    return float(np.max(np.abs(b - ax / (h * h))))


def solution_problems(x: np.ndarray, amplitude: float, tol: float) -> list[str]:
    """Oracle misses of a global periodic solution ``x``."""
    n = x.shape[0]
    h = 1.0 / n
    shape = (n, n, n)
    problems = []
    residual = dense_residual(x, amplitude * rhs_field(shape, h), h)
    if not residual <= tol + ROUNDING:
        problems.append(f"dense residual {residual:.3e} above tol {tol:.1e}")
    error = float(np.max(np.abs(x - amplitude * discrete_solution(shape, h))))
    if not error <= tol:
        problems.append(f"error vs discrete solution {error:.3e} above {tol:.1e}")
    return problems


@dataclass
class Outcome:
    """Attempts, failures and metrics of one run."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: name -> value
    metrics: dict[str, float] = field(default_factory=dict)
    #: name -> samples behind the reported value
    samples: dict[str, int] = field(default_factory=dict)
    #: free-form lines for the human-readable report
    notes: list[str] = field(default_factory=list)

    def attempt(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.failures)


def _tier1_problems(solver, result, tol, reference) -> list[str]:
    problems = []
    if not result.converged:
        problems.append(f"status {result.status} after {result.num_vcycles} V-cycles")
    problems += solution_problems(solver.solution(), 1.0, tol)
    if reference is not None and result.residual_history != reference:
        problems.append("residual history differs from the reference history")
    return problems


def _request_problems(result) -> list[str]:
    request = result.request
    tol = request.config.tol
    problems = []
    if not result.converged or not result.final_residual <= tol:
        problems.append(
            f"final residual {result.final_residual:.3e} above tol {tol:.1e}"
        )
    problems += solution_problems(result.solution, request.amplitude, tol)
    return problems


# ----------------------------------------------------------------------
# shared measurement helpers
# ----------------------------------------------------------------------
def clear_plan_caches() -> None:
    clear_offset_plan_cache()
    clear_partition_cache()


def median_setup(build, outcome: Outcome) -> None:
    """``setup_s``: median wall of ``build()`` with plan caches cleared,
    scaled by the host speed probed between the repetitions."""
    walls = []
    with SpeedProbe().sampling() as speed:
        for _ in range(SETUP_REPS):
            clear_plan_caches()
            gc.collect()
            speed.sample()
            t0 = time.perf_counter()
            build()
            walls.append(time.perf_counter() - t0)
    raw = statistics.median(walls)
    outcome.metrics["setup_s"] = raw * speed.factor
    outcome.samples["setup_s"] = len(walls)
    outcome.notes.append(f"setup raw median {raw:.6f} s, speed factor {speed.factor:.3f}")


def _quantile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def _recorder_counts(recorders, units: int) -> dict[str, float]:
    """Exact exchange calls/messages/bytes per level per unit, summed
    over the given :class:`~repro.instrument.Recorder`\\ s."""
    out = {}
    for lev in (0, 1, 2):
        calls = sum(r.exchange_counts().get(lev, 0) for r in recorders)
        msgs = sum(r.message_counts_by_level().get(lev, 0) for r in recorders)
        nbytes = sum(r.message_bytes_by_level().get(lev, 0) for r in recorders)
        for leaf, total in (("calls", calls), ("messages", msgs), ("bytes", nbytes)):
            out[f"exchange.L{lev}.{leaf}"] = per_unit(total, units)
    return out


# ----------------------------------------------------------------------
# tier-1 solves
# ----------------------------------------------------------------------
def run_tier1(spec: Tier1, seconds: float, trace: bool) -> Outcome:
    """Back-to-back solves to tolerance (a closed loop of one client).

    The tier-1 problem has no random input; the seed is only recorded.
    An 8-rank run first solves the same grid on one rank, and every
    8-rank history must equal that one bit for bit.  Every solve's
    history must also equal the run's first (warm-up) solve's.
    """
    config = SolverConfig(**spec.config_fields())
    out = Outcome()
    reference = None
    if config.num_ranks > 1:
        solver = GMGSolver(replace(config, rank_dims=(1, 1, 1)))
        result = solver.solve()
        out.attempt("1-rank reference solve",
                    _tier1_problems(solver, result, config.tol, None))
        reference = result.residual_history

    if not trace:
        median_setup(lambda: GMGSolver(config), out)
    solver = GMGSolver(config)
    result = solver.solve()
    out.attempt("warm-up solve",
                _tier1_problems(solver, result, config.tol, reference))
    if reference is None:
        reference = result.residual_history
    if trace:
        _tier1_traced(config, seconds, reference, out)
        return out

    walls, factors, scaled, latencies = [], [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_SOLVES or time.perf_counter() - start < seconds:
        gc.collect()
        with SpeedProbe().sampling() as speed:
            due = time.perf_counter()
            solver = GMGSolver(config)
            t0 = time.perf_counter()
            result = solver.solve()
            t1 = time.perf_counter()
        walls.append(t1 - t0)
        factors.append(speed.factor)
        scaled.append(speed.scale(t1 - t0))
        latencies.append(speed.scale(t1 - due))
        out.attempt(f"solve {len(walls)}",
                    _tier1_problems(solver, result, config.tol, reference))
    n = len(walls)
    out.notes.append("solve raw walls (s): " + " ".join(f"{w:.3f}" for w in walls))
    out.notes.append("speed factors: " + " ".join(f"{f:.3f}" for f in factors))
    out.metrics.update(
        solve_s=statistics.median(scaled),
        vcycles=result.num_vcycles,
        latency_p50_ms=1e3 * _quantile(latencies, 50),
        latency_p90_ms=1e3 * _quantile(latencies, 90),
    )
    out.samples.update(solve_s=n, vcycles=n, latency_p50_ms=n, latency_p90_ms=n)
    return out


def _tier1_traced(config, seconds, reference, out: Outcome) -> None:
    """Alternate untraced and traced solves; per-layer metrics come
    from the traced ones, ``trace.overhead_frac`` from the pair."""
    log = SpanLog()
    plain, traced, recorders = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        gc.collect()
        solver = GMGSolver(config)
        t0 = time.perf_counter()
        result = solver.solve()
        plain.append(time.perf_counter() - t0)
        out.attempt(f"untraced solve {len(plain)}",
                    _tier1_problems(solver, result, config.tol, reference))
        gc.collect()
        with log.installed():
            log.request_id = len(traced)
            solver = GMGSolver(config)
            t0 = time.perf_counter()
            result = solver.solve()
            traced.append(time.perf_counter() - t0)
        recorders.append(solver.recorder)
        out.attempt(f"traced solve {len(traced)}",
                    _tier1_problems(solver, result, config.tol, reference))
    units = len(traced)
    out.metrics["vcycles"] = result.num_vcycles
    out.metrics.update(layer_metrics(log, units))
    out.metrics.update(_recorder_counts(recorders, units))
    out.metrics["cohort.occupancy"] = 0.0
    out.metrics["cohort.admit_lag_ms"] = 0.0
    out.metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0
    )
    out.samples.update(dict.fromkeys(out.metrics, units))


# ----------------------------------------------------------------------
# the paced service stream
# ----------------------------------------------------------------------
def _stratified(rng, n: int) -> np.ndarray:
    """``n`` uniforms on [0, 1), one per stratum, in random order: the
    marginal stays uniform while the sample mean barely moves between
    seeds, which keeps a 100-request run's percentiles steady."""
    return (rng.permutation(n) + rng.random(n)) / n


def make_stream(spec: ServicePaced, seed: int, n: int):
    """The seeded request stream: ``(requests, due offsets in s)``.

    Inter-arrival gaps are exponential at ``spec.rate`` (Poisson
    arrivals); tolerances are log-uniform and amplitudes uniform over
    the spec's ranges, so requests take 8-12 V-cycles each.
    """
    rng = np.random.default_rng(seed)
    lo, hi = spec.log10_tol
    tols = 10.0 ** (lo + (hi - lo) * _stratified(rng, n))
    a0, a1 = spec.amplitude
    amplitudes = a0 + (a1 - a0) * _stratified(rng, n)
    gaps = -np.log1p(-_stratified(rng, n)) / spec.rate
    dues = np.cumsum(gaps)
    base = spec.config_fields()
    requests = [
        SolveRequest(
            SolverConfig(**base, tol=float(tol)),
            amplitude=float(amp),
            request_id=f"s{seed}-r{i}",
        )
        for i, (tol, amp) in enumerate(zip(tols, amplitudes))
    ]
    return requests, [float(d) for d in dues]


class _StreamClock:
    """Wall clock that remembers its first reading, the stream's t0
    (``solve_stream`` reads the clock once before anything else)."""

    def __init__(self) -> None:
        self.t0 = None

    def __call__(self) -> float:
        now = time.perf_counter()
        if self.t0 is None:
            self.t0 = now
        return now


class _LogicalClock:
    """Deterministic clock for the traced stream.

    Each cohort V-cycle advances it by ``quantum`` and each reading by
    ``tick``, so admissions — and with them every count — depend only on
    the seed, while spans still measure wall time.  Idle gaps pass in
    ``gap / tick`` readings.
    """

    def __init__(self, cohort, quantum: float, tick: float = 1e-4) -> None:
        self.cohort = cohort
        self.quantum = quantum
        self.tick = tick
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return self.cohort.cycles_run * self.quantum + self.reads * self.tick


def _check_results(results, requests, out: Outcome, what: str) -> None:
    served = {r.request.request_id for r in results}
    missing = [q.request_id for q in requests if q.request_id not in served]
    for request_id in missing:
        out.attempt(f"{what} {request_id}", ["no result returned"])
    for result in results:
        out.attempt(f"{what} {result.request.request_id}", _request_problems(result))


def _check_identity(requests, results, rng, out: Outcome) -> None:
    """Sampled requests must be bit-identical to a standalone solve."""
    by_id = {r.request.request_id: r for r in results}
    picks = rng.choice(len(requests), size=min(IDENTITY_SAMPLES, len(requests)),
                       replace=False)
    for k in sorted(picks):
        request = requests[int(k)]
        mine = by_id.get(request.request_id)
        if mine is None:
            continue  # already counted as failed by _check_results
        alone = standalone_solve(request)
        problems = []
        if mine.residual_history != alone.residual_history:
            problems.append("residual history differs from standalone_solve")
        if not np.array_equal(mine.solution, alone.solution):
            problems.append("solution differs from standalone_solve")
        out.attempt(f"standalone identity {request.request_id}", problems)


def run_service(spec: ServicePaced, seed: int, seconds: float, trace: bool) -> Outcome:
    """A paced stream of ``rate * seconds`` requests, and at least
    ``spec.min_requests``, through ``SolveService(capacity)``.

    Untraced: set-up and the closed-batch ``solve_s`` use a separate
    batch of ``2 * capacity`` requests drawn like the stream's; latency
    is measured on the paced stream from each request's due time.  Traced: the stream runs once on a
    logical clock with every layer traced (exact counts), then once on
    the wall clock with only admission and cycle spans
    (``cohort.admit_lag_ms`` and the tracing overhead).
    """
    out = Outcome()
    n = max(spec.min_requests, round(spec.rate * seconds))
    requests, dues = make_stream(spec, seed, n)
    batch = spec.closed_batch(seed)
    rng = np.random.default_rng(seed + 1)

    if not trace:
        median_setup(lambda: SolveService(spec.capacity).cohort_for(batch[0]), out)
        results = SolveService(spec.capacity).submit(batch)
        _check_results(results, batch, out, "warm-up")
        per_request = []
        for _ in range(CLOSED_BATCHES):
            service = SolveService(spec.capacity)
            service.cohort_for(batch[0])
            gc.collect()
            with SpeedProbe().sampling() as speed:
                t0 = time.perf_counter()
                results = service.submit(batch)
                wall = time.perf_counter() - t0
            per_request.append(speed.scale(wall) / len(batch))
            _check_results(results, batch, out, "closed batch")
        out.metrics["solve_s"] = statistics.median(per_request)
        out.samples["solve_s"] = len(per_request)

        service = SolveService(spec.capacity)
        service.cohort_for(requests[0])
        gc.collect()
        # probes inside the stream delay it (about 1%); they are not
        # subtracted from the latencies, only used for the speed factor
        # of the probes taken while each request was due or in flight
        clock = _StreamClock()
        with SpeedProbe(every=STREAM_PROBE_EVERY).sampling() as speed:
            results = service.submit(requests, arrivals=dues, clock=clock)
        _check_results(results, requests, out, "paced")
        raw = [r.completed_s - r.arrival_s for r in results]
        latencies = [
            (r.completed_s - r.arrival_s) * speed.factor_between(
                clock.t0 + r.arrival_s, clock.t0 + r.completed_s
            )
            for r in results
        ]
        out.notes.append(
            f"paced raw latency p50 {1e3 * _quantile(raw, 50):.1f} ms, "
            f"p90 {1e3 * _quantile(raw, 90):.1f} ms; speed factor "
            f"{speed.factor:.3f} from {len(speed.walls)} probes"
        )
        out.metrics.update(
            vcycles=float(np.mean([r.num_vcycles for r in results])),
            latency_p50_ms=1e3 * _quantile(latencies, 50),
            latency_p90_ms=1e3 * _quantile(latencies, 90),
        )
        out.samples.update(vcycles=len(results), latency_p50_ms=len(results),
                           latency_p90_ms=len(results))
        _check_identity(requests, results, rng, out)
        return out

    results = SolveService(spec.capacity).submit(batch)
    _check_results(results, batch, out, "warm-up")

    log = SpanLog()
    with log.installed():
        service = SolveService(spec.capacity)
        cohort = service.cohort_for(requests[0])
        results = service.submit(
            requests, arrivals=dues, clock=_LogicalClock(cohort, spec.cycle_quantum)
        )
    _check_results(results, requests, out, "traced")
    out.metrics["vcycles"] = float(np.mean([r.num_vcycles for r in results]))
    out.metrics.update(layer_metrics(log, 1))
    out.metrics.update(_recorder_counts([m.recorder for m in cohort.members], 1))
    out.metrics["cohort.occupancy"] = cohort.occupancy()
    traced_cycle = float(log.durations("cohort.cycle").mean())

    light = SpanLog()
    clock = _StreamClock()
    with light.installed(only=("cohort.admit", "cohort.cycle")):
        service = SolveService(spec.capacity)
        service.cohort_for(requests[0])
        gc.collect()
        results = service.submit(requests, arrivals=dues, clock=clock)
    _check_results(results, requests, out, "paced")
    # requests are admitted first-come first-served, in due order
    admits = light.starts("cohort.admit")
    lags = admits - (clock.t0 + np.asarray(dues[: len(admits)]))
    out.metrics["cohort.admit_lag_ms"] = 1e3 * float(lags.mean())
    out.metrics["trace.overhead_frac"] = (
        traced_cycle / float(light.durations("cohort.cycle").mean()) - 1.0
    )
    out.samples.update(dict.fromkeys(out.metrics, 1))
    _check_identity(requests, results, rng, out)
    return out

