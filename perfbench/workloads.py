"""The benchmark's workloads: scenario configs, runs and their outcomes.

Each workload runs one registered scenario family the way the CLI does —
config, :func:`repro.experiments.scenario.run_scenario`, the family's
rendered table — and reduces the result to per-cell outcomes the checks
and the end-to-end metrics read.

Seeding: ``--seed`` becomes the testbed seed, which seeds every random
stream of the simulated system (candidate selection, fault injectors,
per-pod simulators), so every seed has its own outcomes and
fingerprints.  The arrival traces stay each family's pinned reference
trace: over ten seeds, drawing a new trace as well moved the
paper-poisson mean response time four times as much (15% against 4%,
interquartile range over median).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

#: Queries per (policy, load) cell of ``paper-poisson``.
POISSON_QUERIES = 5_000
#: Aggregate queries across the four pods of ``scale-pods``.
SCALE_QUERIES = 40_000
SCALE_PODS = 4
SCALE_PARTITIONS = 2


@dataclass(frozen=True)
class CellOutcome:
    """What one scenario cell did, reduced to checkable numbers."""

    key: str
    attempted: int
    completed: int
    failed: int
    #: SHA-256 over the cell's per-query outcome series.
    fingerprint: str
    #: Simulated response times of the completed queries, in seconds.
    response_times: np.ndarray


def outcome_series_fingerprint(collector: Any) -> str:
    """SHA-256 of a collector's outcomes, one row per query, by request id.

    Rows are ``(request_id, sent_at, established_at | -1,
    completed_at | -1, failed)``: every field the compact collector
    payload carries across the process boundary.
    """
    rows = sorted(
        (
            float(o.request_id),
            o.sent_at,
            -1.0 if o.established_at is None else o.established_at,
            -1.0 if o.completed_at is None else o.completed_at,
            float(o.failed),
        )
        for o in collector.outcomes() + collector.failures()
    )
    return hashlib.sha256(np.asarray(rows, dtype=np.float64).tobytes()).hexdigest()


def _collector_cell(key: str, attempted: int, collector: Any, fingerprint: str) -> CellOutcome:
    totals = collector.totals
    return CellOutcome(
        key=key,
        attempted=attempted,
        completed=totals.completed,
        failed=totals.failed,
        fingerprint=fingerprint,
        response_times=np.asarray(collector.response_times(), dtype=np.float64),
    )


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    scenario: str
    #: Whether the run streams telemetry, as ``<family> --telemetry`` does.
    telemetry: bool
    make_config: Callable[[int], Any]
    #: Family options forwarded to ``run_scenario`` (e.g. partitions).
    options: Tuple[Tuple[str, Any], ...]
    outcomes: Callable[[Any, Any], List[CellOutcome]]
    #: Trace generation and platform builds of every cell, no replay.
    setup: Callable[[Any, Any], None]

    def run(self, config: Any, **overrides: Any) -> Tuple[Any, str]:
        """Config to rendered table; returns the result and the table."""
        from repro.experiments import registry
        from repro.experiments.scenario import run_scenario

        spec = registry.get(self.scenario)
        options = dict(self.options, **overrides)
        result = run_scenario(spec, config, jobs=1, **options)
        return result, render(spec, result, self.telemetry)


def render(spec: Any, result: Any, telemetry: bool) -> str:
    """The family's table, plus the telemetry summary when it streamed."""
    text = spec.render(result)
    if telemetry:
        from repro.telemetry import render as telemetry_render
        from repro.telemetry import runtime as telemetry_runtime

        report = telemetry_runtime.last_report()
        summaries = [
            telemetry_render.render_summary(payload, title=f"telemetry [{key}]")
            for key, payload in (report.items() if report else [])
        ]
        text = "\n\n".join([text, *summaries])
    return text


# -- paper-poisson -----------------------------------------------------------
def _poisson_config(seed: int) -> Any:
    from repro.experiments.config import (
        PoissonSweepConfig, TestbedConfig, rr_policy, sr_policy, srdyn_policy)

    return PoissonSweepConfig(
        testbed=TestbedConfig(seed=seed),
        load_factors=(0.5, 0.88),
        num_queries=POISSON_QUERIES,
        policies=(rr_policy(), sr_policy(4), srdyn_policy()),
    )


def _poisson_outcomes(config: Any, result: Any) -> List[CellOutcome]:
    return [
        _collector_cell(
            f"{policy}@{load:g}", config.num_queries, run.collector,
            outcome_series_fingerprint(run.collector),
        )
        for policy, by_load in result.runs.items()
        for load, run in by_load.items()
    ]


def _spec_setup(scenario: str) -> Callable[[Any, Any], None]:
    def setup(config: Any, options: Any) -> None:
        from repro.experiments import registry

        spec = registry.get(scenario)
        cells = spec.cells(config, **dict(options))
        traces: Dict[Any, Any] = {}
        for cell in cells:
            key = spec.trace_key(config, cell)
            if key not in traces:
                traces[key] = spec.make_trace(config, cell)
            spec.build_platform(config, cell)

    return setup


# -- ecmp-chaos --------------------------------------------------------------
def _chaos_config(seed: int) -> Any:
    from repro.experiments.config import ChaosConfig

    base = ChaosConfig()
    return replace(base, testbed=base.testbed.with_seed(seed))


def _chaos_outcomes(config: Any, result: Any) -> List[CellOutcome]:
    return [
        _collector_cell(mode, config.num_queries, run.collector, run.fingerprint)
        for mode, run in result.runs.items()
    ]


# -- scale-pods --------------------------------------------------------------
def _scale_config(seed: int) -> Any:
    from repro.experiments.config import ScaleConfig, TestbedConfig

    return ScaleConfig(
        testbed=TestbedConfig(seed=seed),
        pods=SCALE_PODS,
        num_queries=SCALE_QUERIES,
    )


def _scale_outcomes(config: Any, result: Any) -> List[CellOutcome]:
    """One cell per pod, counted from the merged outcome stream.

    A pod's attempted count comes from its own summary and its
    completed and failed counts from the coordinator's merged stream, so
    an outcome lost or duplicated by the merge breaks the accounting.
    A pod's fingerprint covers its rows of the merged stream, in merge
    order, with their completion times.
    """
    run = result.run
    ok = ~np.isnan(run.response_times)
    series = np.column_stack([
        run.times, run.request_ids, np.where(ok, run.response_times, -1.0)
    ])
    cells = []
    for pod, summary in run.pod_summaries.items():
        mine = run.pod_indices == pod
        cells.append(CellOutcome(
            key=f"pod-{pod}",
            attempted=summary["queries"],
            completed=int(np.count_nonzero(mine & ok)),
            failed=int(np.count_nonzero(mine & ~ok)),
            fingerprint=hashlib.sha256(
                np.ascontiguousarray(series[mine]).tobytes()).hexdigest(),
            response_times=run.response_times[mine & ok],
        ))
    if sum(cell.attempted for cell in cells) != config.num_queries:
        cells.append(CellOutcome("pods", config.num_queries, 0, 0, "",
                                 np.empty(0)))
    return cells


def _scale_setup(config: Any, options: Any) -> None:
    from repro.experiments.platform import build_testbed
    from repro.experiments.scale_experiment import make_pod_trace
    from repro.workload.requests import RequestCatalog

    for pod in range(config.pods):
        make_pod_trace(config, pod)
        build_testbed(config.testbed, config.policy, catalog=RequestCatalog(),
                      run_name=f"pod-{pod}")


def clear_process_caches() -> None:
    """Drop per-process memos so every run starts as a fresh CLI process.

    The scale family memoises its 50k-entry front-end port table per
    process; a CLI user pays for it on every run.
    """
    from repro.experiments import scale_experiment

    scale_experiment._pod_table_cached.cache_clear()


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper-poisson", "poisson", False, _poisson_config, (),
                 _poisson_outcomes, _spec_setup("poisson")),
        Workload("ecmp-chaos", "chaos", True, _chaos_config, (),
                 _chaos_outcomes, _spec_setup("chaos")),
        Workload("scale-pods", "scale", False, _scale_config,
                 (("partitions", SCALE_PARTITIONS),), _scale_outcomes, _scale_setup),
    )
}

