"""Outside-in span tracing of the solver's layers.

The benchmark records spans around the *public* entry points of each
layer by patching them from here; nothing under ``src/`` changes and
nothing is recorded unless :meth:`SpanLog.installed` is active.  Each
span stores its name, level, start, end, parent span and request id in
flat arrays that stay in memory until :func:`layer_metrics` reduces them.

A span's *self* time is its duration minus the durations of its direct
children, so the self times of all spans under a root add up to the
root's duration.  A span's level is taken from its arguments where the
entry point names one (``smooth_level(lev, ...)``, ``exchange(level,
...)``, ...) and is inherited from the enclosing span otherwise, so a
kernel launch or neighbour gather is charged to the level of the
``smooth_level``/bottom span it runs under.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array

import numpy as np

#: levels the per-level metrics are reported for (every workload runs a
#: three-level hierarchy); smoothing visits and inter-grid transfers
#: exist only above the coarsest level
LEVELS = (0, 1, 2)
FINE_LEVELS = (0, 1)


def _arg(i):
    return lambda args: int(args[i])


def _arg_index(i):
    """Level of a :class:`Level` argument (its ``index``)."""
    return lambda args: int(args[i].index)


def _level0(args):
    return 0


def _launch_points(args):
    """Cells one kernel launch computes: every brick (ghosts included)
    of the grid the fields live on."""
    return int(next(iter(args[1].values())).data.size)


#: (module, class or None for a module function, attribute, span name,
#:  level-of-arguments or None to inherit, work-of-arguments or None).
#: A target missing from the program is skipped; a drop in
#: ``trace.coverage`` then shows the time it used to account for.
TARGETS = (
    ("repro.gmg.solver", "GMGSolver", "solve", "solve", None, None),
    ("repro.gmg.vcycle", "VCycle", "smooth_level", "vcycle.smooth", _arg(1), None),
    ("repro.gmg.vcycle", "VCycle", "max_norm_residual",
     "vcycle.residual_check", _level0, None),
    ("repro.service.cohort", "CohortCycle", "member_residuals",
     "vcycle.residual_check", _level0, None),
    ("repro.gmg.operators", None, "restriction", "operators.restriction",
     _arg_index(0), None),
    ("repro.gmg.operators", None, "interpolation_increment",
     "operators.interpolation", _arg_index(1), None),
    ("repro.dsl.codegen", "CompiledKernel", "apply", "codegen.kernel", None,
     _launch_points),
    # neighbour gathers: codegen binds the module functions by name
    ("repro.dsl.codegen", None, "gather_extended", "bricks.gather", None, None),
    ("repro.dsl.codegen", None, "gather_planned", "bricks.gather", None, None),
    ("repro.dsl.codegen", None, "refresh_shell", "bricks.gather", None, None),
    ("repro.bricks.halo_plan", "HaloPlan", "gather", "bricks.gather", None, None),
    ("repro.bricks.halo_plan", "OffsetGatherPlan", "gather", "bricks.gather",
     None, None),
    ("repro.comm.exchange", "HaloExchange", "exchange", "exchange", _arg(1), None),
    ("repro.comm.exchange", "HaloExchange", "begin", "exchange", _arg(1), None),
    ("repro.comm.exchange", "HaloExchange", "finish", "exchange", None, None),
    ("repro.comm.exchange", "LocalPeriodicExchange", "exchange", "exchange",
     _arg(1), None),
    ("repro.comm.exchange", "LocalPeriodicExchange", "begin", "exchange",
     _arg(1), None),
    ("repro.service.cohort", "FanoutExchanger", "exchange", "exchange",
     _arg(1), None),
    ("repro.service.cohort", "StackedLocalExchanger", "exchange", "exchange",
     _arg(1), None),
    ("repro.comm.simmpi", "SimComm", "isend", "simmpi.send", None, None),
    ("repro.comm.simmpi", "SimComm", "irecv", "simmpi.recv", None, None),
    ("repro.comm.simmpi", "SimComm", "waitall", "simmpi.wait", None, None),
    ("repro.comm.simmpi", "RecvRequest", "wait", "simmpi.wait", None, None),
    ("repro.comm.simmpi", "SimComm", "allreduce_max", "simmpi.allreduce",
     None, None),
    ("repro.comm.simmpi", "SimComm", "allreduce_sum", "simmpi.allreduce",
     None, None),
    ("repro.service.service", "SolveService", "submit", "service.submit",
     None, None),
    ("repro.service.cohort", "CohortSolver", "admit", "cohort.admit", None, None),
    ("repro.service.cohort", "CohortSolver", "seed", "cohort.seed", None, None),
    ("repro.service.cohort", "CohortSolver", "cycle", "cohort.cycle", None, None),
)


def _request_index(args) -> int:
    """Stream index of an admitted request (the benchmark names its
    requests ``s<seed>-r<index>``)."""
    return int(args[1].request_id.rsplit("-r", 1)[1])


#: span name -> request id of its arguments; other spans inherit the id
#: set on the log (the solve index on tier1; none for cohort-wide work)
REQUEST_OF = {"cohort.admit": _request_index}


def _registry_targets():
    """Smoother ``iterate`` and bottom ``solve`` of every registered
    class that defines its own (subclasses override the base)."""
    from repro.gmg.bottom import BOTTOM_SOLVERS
    from repro.gmg.smoothers import SMOOTHERS

    for cls in dict.fromkeys(SMOOTHERS.values()):
        if "iterate" in vars(cls):
            yield cls, "iterate", "smoothers.iterate", None, None
    for cls in dict.fromkeys(BOTTOM_SOLVERS.values()):
        if "solve" in vars(cls):
            yield cls, "solve", "bottom.solve", _arg(2), None


def _resolve_targets():
    for module_name, cls_name, attr, span, level_of, work_of in TARGETS:
        module = importlib.import_module(module_name)
        owner = module if cls_name is None else getattr(module, cls_name, None)
        if owner is not None and attr in vars(owner):
            yield owner, attr, span, level_of, work_of
    yield from _registry_targets()


class SpanLog:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.level = array("i")
        self.parent = array("i")
        self.rid = array("i")
        self.work = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        #: request/solve id stamped on spans opened from now on
        self.request_id = -1

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.start)

    def _mask(self, name: str) -> np.ndarray:
        return np.frombuffer(self.name, dtype=np.int32) == self.name_id(name)

    def starts(self, name: str) -> np.ndarray:
        """Start times of every span called ``name``, in order."""
        return np.frombuffer(self.start)[self._mask(name)]

    def durations(self, name: str) -> np.ndarray:
        """Durations of every span called ``name``, in order."""
        mask = self._mask(name)
        return np.frombuffer(self.end)[mask] - np.frombuffer(self.start)[mask]

    def _wrap(self, fn, nid: int, level_of, work_of, request_of=None):
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if level_of is not None:
                level = level_of(args)
            elif parent >= 0:
                level = self.level[parent]
            else:
                level = -1
            idx = len(self.start)
            self.name.append(nid)
            self.level.append(level)
            self.parent.append(parent)
            self.rid.append(
                request_of(args) if request_of is not None else self.request_id
            )
            self.work.append(work_of(args) if work_of is not None else 0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    @contextlib.contextmanager
    def installed(self, only=None):
        """Patch the layer entry points for the duration of the block.

        ``only`` restricts patching to the named spans.  Objects that
        captured a bound method before the block (e.g. a solver's
        ``allreduce_max``) keep the original, so build solvers and
        services inside it.
        """
        patched = []
        try:
            for owner, attr, span, level_of, work_of in _resolve_targets():
                if only is not None and span not in only:
                    continue
                original = vars(owner)[attr]
                patched.append((owner, attr, original))
                wrapper = self._wrap(
                    original, self.name_id(span), level_of, work_of,
                    REQUEST_OF.get(span),
                )
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)


# ----------------------------------------------------------------------
# reduction to per-layer metrics
# ----------------------------------------------------------------------
#: span name -> (metric stem, leaf, levels or None); per-level metrics
#: are named ``<stem>.L<k>.<leaf>``, the others ``<stem>.<leaf>``
_SELF_TIME = {
    "exchange": ("exchange", "host_s", LEVELS),
    "codegen.kernel": ("codegen", "kernel_s", LEVELS),
    "bricks.gather": ("bricks", "gather_s", LEVELS),
    "vcycle.smooth": ("vcycle", "smooth_s", FINE_LEVELS),
    "operators.restriction": ("operators", "restriction_s", FINE_LEVELS),
    "operators.interpolation": ("operators", "interpolation_s", FINE_LEVELS),
    "bottom.solve": ("bottom", "solve_s", None),
    "vcycle.residual_check": ("vcycle", "residual_check_s", None),
    "smoothers.iterate": ("smoothers", "iterate_s", None),
    "simmpi.send": ("simmpi", "send_s", None),
    "simmpi.recv": ("simmpi", "recv_s", None),
    "simmpi.wait": ("simmpi", "waitall_s", None),
    "simmpi.allreduce": ("simmpi", "allreduce_s", None),
    "service.submit": ("service", "submit_s", None),
    "cohort.admit": ("cohort", "admit_s", None),
    "cohort.seed": ("cohort", "seed_s", None),
    "cohort.cycle": ("cohort", "cycle_s", None),
}

#: spans whose wall time the layers beneath them should explain
ROOTS = ("solve", "cohort.admit", "cohort.seed", "cohort.cycle")


def _metric(stem: str, leaf: str, level: int | None) -> str:
    return f"{stem}.{leaf}" if level is None else f"{stem}.L{level}.{leaf}"


def layer_metric_names() -> list[str]:
    """Every span-derived metric name, in report order."""
    names = []
    for stem, leaf, levels in _SELF_TIME.values():
        for lev in levels or (None,):
            names.append(_metric(stem, leaf, lev))
    for lev in LEVELS:
        names += [f"codegen.L{lev}.launches", f"codegen.L{lev}.points"]
    names += ["cohort.cycles", "trace.coverage"]
    return list(dict.fromkeys(names))


def layer_metrics(log: SpanLog, units: int) -> dict[str, float]:
    """Self times and counts per solve (or per stream), by layer.

    ``units`` is the number of traced solves/streams the log holds.
    Smoothing visits run by the bottom solver count as bottom time.
    ``trace.coverage`` is the share of the root spans' wall (the solve,
    or the cohort's admit/seed/cycle work) inside child layer spans.
    """
    out = dict.fromkeys(layer_metric_names(), 0.0)
    n = len(log)
    if n == 0:
        return out
    name = np.frombuffer(log.name, dtype=np.int32)
    level = np.frombuffer(log.level, dtype=np.int32)
    parent = np.frombuffer(log.parent, dtype=np.int32)
    work = np.frombuffer(log.work, dtype=np.int64)
    dur = np.frombuffer(log.end) - np.frombuffer(log.start)
    has_parent = parent >= 0
    children = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=n
    )
    self_t = dur - children

    ids = {nm: i for i, nm in enumerate(log.names)}
    under_bottom = np.zeros(n, dtype=bool)
    if "bottom.solve" in ids:
        under_bottom[has_parent] = name[parent[has_parent]] == ids["bottom.solve"]
    for span, (stem, leaf, levels) in _SELF_TIME.items():
        nid = ids.get(span)
        if nid is None:
            continue
        mask = name == nid
        if span == "vcycle.smooth":
            bottom = mask & under_bottom
            out["bottom.solve_s"] += float(self_t[bottom].sum()) / units
            mask &= ~under_bottom
        if levels:
            for lev in levels:
                key = _metric(stem, leaf, lev)
                out[key] += float(self_t[mask & (level == lev)].sum()) / units
        else:
            out[_metric(stem, leaf, None)] += float(self_t[mask].sum()) / units
    if "codegen.kernel" in ids:
        kern = name == ids["codegen.kernel"]
        for lev in LEVELS:
            sel = kern & (level == lev)
            out[f"codegen.L{lev}.launches"] = per_unit(int(sel.sum()), units)
            out[f"codegen.L{lev}.points"] = per_unit(int(work[sel].sum()), units)
    if "cohort.cycle" in ids:
        out["cohort.cycles"] = per_unit(
            int((name == ids["cohort.cycle"]).sum()), units
        )
    roots = np.isin(name, [ids[r] for r in ROOTS if r in ids])
    root_wall = float(dur[roots].sum())
    if root_wall > 0:
        out["trace.coverage"] = float(children[roots].sum()) / root_wall
    return out


def per_unit(total: int, units: int):
    """Exact integer per unit when it divides, else a float."""
    return total // units if total % units == 0 else total / units
