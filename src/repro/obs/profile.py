"""Profiled solves: run, aggregate, render — the ``repro profile`` core.

One entry point, :func:`profile_solve`, runs a fully traced functional
solve and returns a :class:`ProfileReport` bundling the trace, the
measured per-level breakdown, the machine-model comparison, the
bridged metrics snapshot and the span-coverage figure.  The CLI's
``profile`` subcommand and the CI profile-smoke job are thin wrappers
over this module, so tests can exercise the whole path in-process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.obs.aggregate import (
    measured_vs_model_rows,
    render_measured_vs_model,
    span_coverage,
)
from repro.obs.chrome_trace import write_chrome_trace
from repro.obs.metrics import solve_metrics
from repro.obs.tracer import Tracer

#: root spans of exchange work: a whole synchronous exchange, or the
#: completion half of a split-phase one
_EXCHANGE_SPAN_NAMES = ("exchange", "exchange.finish")


def exchange_host_share(tracer: Tracer) -> tuple[float, float]:
    """``(host_s, fraction)``: in-process exchange time in the V-cycles.

    Sums the durations of :data:`_EXCHANGE_SPAN_NAMES` spans inside the
    ``vcycle`` windows and divides by total V-cycle time.  This is host
    wall time spent in this process — copies, envelope bookkeeping,
    boundary fills — not network wait: the simulated ranks share one
    process, so nothing is ever in flight.  In overlap mode the
    ``exchange.begin`` half is excluded, as it runs between the
    interior and shell passes.
    """
    windows = tracer.find("vcycle")
    total = sum(w.duration for w in windows)
    if total <= 0.0:
        return 0.0, 0.0
    spans = [s for s in tracer.spans if s.name in _EXCHANGE_SPAN_NAMES]
    host = sum(
        s.duration
        for s in spans
        if any(w.start <= s.start and s.end <= w.end for w in windows)
    )
    return host, host / total


@dataclass
class ProfileReport:
    """Everything one profiled solve produced."""

    config: object
    result: object = field(repr=False)
    tracer: Tracer = field(repr=False)
    wallclock_s: float
    coverage: float
    rows: list[dict] = field(repr=False)
    machine_name: str | None
    metrics: dict = field(repr=False)
    #: in-process host seconds of the V-cycles' ``exchange`` and
    #: ``exchange.finish`` spans (:func:`exchange_host_share`)
    exchange_host_s: float = 0.0
    #: ``exchange_host_s`` as a share of total ``vcycle`` wall time
    exchange_host_fraction: float = 0.0
    #: the finest level's exchange path and why, e.g. ``"envelope (a
    #: tracer is attached)"``
    exchange_path: str = ""

    def render(self) -> str:
        """The full human-readable profile report."""
        cfg = self.config
        lines = [
            f"profiled solve: {cfg.global_cells}^3 over {cfg.num_ranks} "
            f"rank(s), {cfg.num_levels} levels, brick {cfg.brick_dim}^3",
            f"  status={self.result.status} vcycles={self.result.num_vcycles} "
            f"wallclock={self.wallclock_s:.6g}s",
            f"  trace: {len(self.tracer.spans)} spans, "
            f"{len(self.tracer.instants)} instants, "
            f"coverage {self.coverage:.1%} of the solve span",
            f"  exchange host share: {self.exchange_host_fraction:.1%} of "
            f"V-cycle time ({self.exchange_host_s:.6g}s in "
            "exchange/exchange.finish; in-process host time, not network "
            "wait)",
            f"  exchange path: {self.exchange_path}"
            + (
                "; untraced fault-free solves run the planned copy"
                if self.exchange_path.startswith("envelope")
                else ""
            ),
            "",
            render_measured_vs_model(self.rows, self.machine_name),
            "",
            "metrics snapshot:",
        ]
        counters = self.metrics["counters"]
        for key in (
            "kernels.total",
            "exchanges.total",
            "messages.total",
            "messages.bytes",
            "reductions.total",
            "faults.injected",
            "faults.detected",
        ):
            if key in counters:
                lines.append(f"  {key} = {counters[key]}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """Machine-readable form of the report (trace excluded)."""
        return {
            "wallclock_s": self.wallclock_s,
            "coverage": self.coverage,
            "machine": self.machine_name,
            "exchange_host_s": self.exchange_host_s,
            "exchange_host_fraction": self.exchange_host_fraction,
            "exchange_path": self.exchange_path,
            "rows": [
                {
                    "level": r["level"],
                    "op": r["op"],
                    "min": r["stat"].min,
                    "avg": r["stat"].avg,
                    "max": r["stat"].max,
                    "sigma": r["stat"].stdev,
                    "count": r["stat"].count,
                    "measured_total_s": r["measured_total_s"],
                    "model_s": r["model_s"],
                }
                for r in self.rows
            ],
            "metrics": self.metrics,
        }


def profile_solve(
    config,
    machine_name: str | None = "Perlmutter",
    trace_path=None,
    fault_plan=None,
) -> ProfileReport:
    """Run one traced solve of ``config`` and aggregate the results.

    ``machine_name`` selects the model column (None skips it — also
    the fallback for non-periodic boundaries, which the performance
    harness does not model); ``trace_path`` additionally writes the
    Chrome trace-event file.
    """
    from repro.gmg.solver import GMGSolver

    tracer = Tracer()
    solver = GMGSolver(config, fault_plan=fault_plan, tracer=tracer)
    t0 = time.perf_counter()
    result = solver.solve()
    wallclock = time.perf_counter() - t0

    machine = None
    if machine_name is not None and config.boundary == "periodic":
        from repro.machines import MACHINES

        machine = MACHINES[machine_name]
    else:
        machine_name = None
    rows = measured_vs_model_rows(
        tracer, config, machine, max(result.num_vcycles, 1)
    )
    host_s, host_frac = exchange_host_share(tracer)
    finest = solver.exchangers[0]
    report = ProfileReport(
        config=config,
        result=result,
        tracer=tracer,
        wallclock_s=wallclock,
        coverage=span_coverage(tracer),
        rows=rows,
        machine_name=machine_name,
        metrics=solve_metrics(
            result.recorder, tracer, agglomerator=solver.agglomerator
        ).snapshot(),
        exchange_host_s=host_s,
        exchange_host_fraction=host_frac,
        exchange_path=f"{finest.path} ({finest.path_reason})",
    )
    if trace_path is not None:
        write_chrome_trace(
            tracer,
            trace_path,
            metadata={
                "tool": "repro profile",
                "global_cells": config.global_cells,
                "num_levels": config.num_levels,
                "status": result.status,
            },
        )
    return report
