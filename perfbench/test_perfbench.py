"""Self-tests of the benchmark (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench -q

They take a few minutes: every traced run is a real workload run with
the shortest possible measuring window.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import replace

import pytest

import run

run._bootstrap()

from workloads import (  # noqa: E402
    END_TO_END_UNITS,
    ENGINE_TOGGLES,
    PROBLEM_FIELDS,
    WORKLOADS,
    make_stream,
    per_layer_units,
)

#: measuring window of the traced runs below: one traced solve, or a
#: 12-request stream on the service
SHORT = {"tier1-1rank": 0.01, "tier1-8rank": 0.01, "service-paced": 3.0}

#: a layer the injection did not touch may move, after the host-speed
#: drift between the runs is taken out, by this share of its own self
#: time plus this share of the injected total (timer noise)
OTHER_REL = 0.25
OTHER_OF_INJECTED = 0.05


def _run(name: str, seed: int):
    spec = WORKLOADS[name]
    if name == "service-paced":
        spec = replace(spec, min_requests=1)
    return spec.run(seed, SHORT[name], trace=True)


@functools.cache
def traced(name: str, seed: int):
    return _run(name, seed)


def _counts(metrics: dict) -> dict:
    return {
        k: v
        for k, v in metrics.items()
        if k == "vcycles" or k == "cohort.cycles"
        or k.endswith((".launches", ".points", ".calls", ".messages", ".bytes"))
    }


def test_workloads_set_only_problem_fields():
    for spec in WORKLOADS.values():
        fields = set(spec.config_fields())
        assert fields <= set(PROBLEM_FIELDS), spec.name
        assert not fields & set(ENGINE_TOGGLES), spec.name


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()


@pytest.mark.parametrize("name", ["tier1-1rank", "tier1-8rank"])
def test_tier1_counts_are_exact_and_seed_free(name):
    first, again, other = traced(name, 1), _run(name, 1), traced(name, 2)
    for outcome in (first, again, other):
        assert outcome.failures == []
    assert _counts(first.metrics) == _counts(again.metrics) == _counts(other.metrics)
    assert first.metrics["codegen.L0.launches"] > 0
    assert first.metrics["exchange.L0.messages"] > 0


def test_service_counts_are_exact_per_seed():
    name = "service-paced"
    spec = WORKLOADS[name]
    first, again = traced(name, 1), _run(name, 1)
    assert first.failures == [] and again.failures == []
    assert _counts(first.metrics) == _counts(again.metrics)
    assert first.metrics["cohort.cycles"] > 0

    n = round(spec.rate * SHORT[name])  # as _run streams
    (req1, due1), (req2, due2) = make_stream(spec, 1, n), make_stream(spec, 2, n)
    assert [r.config.tol for r in req1] != [r.config.tol for r in req2]
    assert due1 != due2
    assert [r.config.tol for r in make_stream(spec, 1, n)[0]] == [r.config.tol for r in req1]


def _slowed(monkeypatch, owner, attr, delay: float) -> list[float]:
    """Patch ``owner.attr`` to sleep ``delay`` first; returns the ledger
    of sleeps actually taken."""
    original = vars(owner)[attr]
    ledger: list[float] = []

    def slow(*args, **kwargs):
        t0 = time.perf_counter()
        time.sleep(delay)
        ledger.append(time.perf_counter() - t0)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, slow)
    return ledger


def _self_times(metrics: dict) -> dict:
    return {
        k: v for k, v in metrics.items()
        if k.endswith("_s") and not k.startswith("trace.")
    }


def _injection_cases():
    from repro.comm.exchange import HaloExchange
    from repro.dsl.codegen import CompiledKernel
    from repro.service.cohort import CohortSolver

    return [
        ("tier1-8rank", HaloExchange, "exchange", 2e-3, "exchange.L"),
        ("tier1-1rank", CompiledKernel, "apply", 2e-4, "codegen.L"),
        ("service-paced", CohortSolver, "cycle", 5e-3, "cohort.cycle_s"),
    ]


@pytest.mark.parametrize("case", range(3), ids=["exchange", "kernel", "cohort"])
def test_injected_delay_names_its_layer(monkeypatch, case):
    name, owner, attr, delay, prefix = _injection_cases()[case]
    base = _self_times(traced(name, 1).metrics)
    ledger = _slowed(monkeypatch, owner, attr, delay)
    slowed = _run(name, 1)
    assert slowed.failures == []
    injected = _traced_injection(ledger, slowed, name)
    after = _self_times(slowed.metrics)

    target = [k for k in base if k.startswith(prefix)]
    others = [k for k in base if k not in target]
    # the host's speed drifts between the two runs; the untouched layers
    # measure that drift, and every layer's own work scales with it
    drift = sum(after[k] for k in others) / sum(base[k] for k in others)
    rise = sum(after[k] - drift * base[k] for k in target)
    assert rise == pytest.approx(injected, rel=0.2), (rise, injected, drift)
    for k in others:
        expected = drift * base[k]
        allowed = OTHER_REL * expected + OTHER_OF_INJECTED * injected
        assert abs(after[k] - expected) <= allowed, (k, base[k], after[k], drift)


def _traced_injection(ledger, outcome, name) -> float:
    """The injected seconds that fell inside the traced solve or stream:
    its call count times the mean sleep (the ledger also holds the
    warm-up and untraced passes)."""
    calls = {
        "tier1-8rank": sum(outcome.metrics[f"exchange.L{k}.calls"] for k in range(3)),
        "tier1-1rank": sum(outcome.metrics[f"codegen.L{k}.launches"] for k in range(3)),
        "service-paced": outcome.metrics["cohort.cycles"],
    }[name]
    return calls * sum(ledger) / len(ledger)
