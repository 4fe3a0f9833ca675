"""Tests of the scenario benchmark's own code (tracer, checks, metrics).

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _small_poisson(seed: int):
    from repro.experiments.config import TestbedConfig

    return replace(
        workloads._poisson_config(seed),
        testbed=TestbedConfig(
            num_servers=4, workers_per_server=8, backlog_capacity=16, seed=seed),
        num_queries=150,
    )


SMALL_POISSON = replace(workloads.WORKLOADS["paper-poisson"], make_config=_small_poisson)


def _cells(workload, seed):
    config = workload.make_config(seed)
    result, _ = workload.run(config)
    return config, result, workload.outcomes(config, result)


# -- self-time arithmetic ------------------------------------------------------
def test_self_times_subtract_direct_children_only():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert tracer.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_attribute_self_time_per_layer():
    recorder = tracer.SpanRecorder()
    entry = {f"{e.owner}.{e.attr}": i
             for i, e in enumerate(recorder.entries) if e.owner}

    def add(name, start, end, parent):
        recorder.entry_ids.append(entry[name])
        recorder.starts.append(start)
        recorder.ends.append(end)
        recorder.parents.append(parent)
        recorder.request_ids.append(-1)

    add("Simulator.run", 0.0, 10.0, -1)                   # 0: engine
    add("LoadBalancerNode.handle_packet", 1.0, 5.0, 0)    # 1: LB
    add("LANFabric.send", 2.0, 3.0, 1)                    # 2: fabric
    add("TierLoadBalancer.handle_packet", 6.0, 9.0, 0)    # 3: LB (subclass)
    add("LoadBalancerNode.handle_packet", 6.5, 8.5, 3)    # 4: LB (its base)
    metrics = tracer.layer_metrics(recorder)
    assert metrics["sim.engine.self_s"] == pytest.approx(10.0 - 4.0 - 3.0)
    assert metrics["net.fabric.self_s"] == pytest.approx(1.0)
    assert metrics["core.loadbalancer.self_s"] == pytest.approx(3.0 + 1.0 + 2.0)
    # The base-class call nested in the subclass call is one packet.
    assert metrics["core.loadbalancer.packets"] == 2
    assert metrics["net.fabric.sends"] == 1


def test_wrappers_are_removed_after_a_traced_run():
    from repro.net.fabric import LANFabric
    from repro.experiments import poisson_experiment

    send, build = LANFabric.send, poisson_experiment.build_testbed
    recorder = tracer.SpanRecorder()
    with recorder.installed():
        assert LANFabric.send is not send
        _, _, traced = _cells(SMALL_POISSON, 3)
    assert LANFabric.send is send
    assert poisson_experiment.build_testbed is build
    assert len(recorder) > 0
    _, _, untraced = _cells(SMALL_POISSON, 3)
    assert checks.signature(traced) == checks.signature(untraced)


# -- output checks -------------------------------------------------------------
def test_accounting_check_fires_on_a_doctored_payload():
    config, result, cells = _cells(SMALL_POISSON, 1)
    checks.check_accounting(cells)
    run_result = result.runs["SR4"][0.88]
    payload = run_result.export_payload()
    collector = payload.collector
    for name in ("ok_request_ids", "ok_kind_codes", "ok_sent_at",
                 "ok_established_at", "ok_completed_at"):
        setattr(collector, name, getattr(collector, name)[1:])
    result.runs["SR4"][0.88] = payload.to_result()
    with pytest.raises(checks.CheckFailure, match="SR4@0.88"):
        checks.check_accounting(workloads._poisson_outcomes(config, result))


def test_seed_reaches_the_simulation():
    _, _, first = _cells(SMALL_POISSON, 1)
    _, _, again = _cells(SMALL_POISSON, 1)
    _, _, other = _cells(SMALL_POISSON, 2)
    assert checks.signature(first) == checks.signature(again)
    assert {c.fingerprint for c in first}.isdisjoint({c.fingerprint for c in other})


def test_record_rejects_drift_and_ignored_seeds(tmp_path):
    record = tmp_path / "record.json"
    cells = {"RR@0.5": [10, 10, 0, "aaa"]}
    checks.check_against_record(record, "code", "w", 1, {"cells": cells})
    checks.check_against_record(record, "code", "w", 1, {"cells": cells})
    with pytest.raises(checks.CheckFailure, match="differs"):
        checks.check_against_record(
            record, "code", "w", 1, {"cells": {"RR@0.5": [10, 10, 0, "bbb"]}})
    with pytest.raises(checks.CheckFailure, match="same outcome fingerprint"):
        checks.check_against_record(record, "code", "w", 2, {"cells": cells})
    # Other code is compared only with itself.
    checks.check_against_record(
        record, "other", "w", 1, {"cells": {"RR@0.5": [10, 10, 0, "bbb"]}})


# -- metric names --------------------------------------------------------------
def test_metric_names_are_valid_and_declared():
    declared_e2e = [m["name"] for m in SPEC["end_to_end"]]
    declared_layer = [m["name"] for m in SPEC["per_layer"]]
    for name in declared_e2e + declared_layer + [w["name"] for w in SPEC["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert declared_layer == list(run.MOVES)
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert "setup_s" in declared_e2e


def test_every_measured_metric_is_declared():
    bench = run.Bench(SMALL_POISSON, 1)
    end_to_end = bench.end_to_end(0.0)
    per_layer, _ = bench.per_layer(0.0)
    assert set(end_to_end) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(per_layer) == {m["name"] for m in SPEC["per_layer"]}
    assert all(NAME.fullmatch(name) for name in [*end_to_end, *per_layer])
    # paper-poisson bypasses the ECMP edge, faults, telemetry and fan-out.
    for bypassed in ("net.ecmp.packets", "net.faults.drops", "telemetry.samples",
                     "sim.partition.busy_s"):
        assert per_layer[bypassed] == 0
    assert end_to_end["completed_frac"] == 1.0
