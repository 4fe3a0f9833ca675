"""Tests for the partitioned ``scale`` scenario family."""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments import registry
from repro.experiments.config import ScaleConfig, TestbedConfig
from repro.experiments.scale_experiment import (
    SCALE_SCENARIO,
    _pod_by_port_table,
    frontend_port_of,
    make_pod_trace,
    make_scale_stream,
    pod_of_port,
    run_scale,
    run_scale_scenario,
)
from repro.net.tcp import EPHEMERAL_PORT_BASE, EPHEMERAL_PORT_RANGE


@pytest.fixture(scope="module")
def small_config():
    """A config small enough to replay in well under a second per pod."""
    return ScaleConfig(
        testbed=TestbedConfig(
            num_servers=4, workers_per_server=8, backlog_capacity=16
        ),
        pods=4,
        num_queries=600,
        max_windows=8,
    )


@pytest.fixture(scope="module")
def reference_run(small_config):
    return run_scale(small_config, partitions=1)


class TestScaleConfig:
    def test_defaults_are_million_scale(self):
        config = ScaleConfig()
        assert config.num_queries == 1_000_000
        assert config.pods == 4

    def test_pod_names_are_stable(self):
        assert ScaleConfig(pods=2).pod_names() == ("pod-0", "pod-1")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pods": 0},
            {"num_queries": 2, "pods": 4},
            {"load_factor": 0.0},
            {"service_mean": -1.0},
            {"ecmp_hash": "crc32"},
            {"boundary_latency": -1e-6},
            {"max_windows": 0},
            {"saturation_rate": 0.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ExperimentError):
            ScaleConfig(**kwargs)

    # Non-finite inputs must fail at construction, not later inside a
    # pod worker as an arrival scheduled at a non-finite time.
    def test_nan_load_factor_rejected(self):
        with pytest.raises(ExperimentError, match="load_factor"):
            ScaleConfig(load_factor=float("nan"))

    def test_infinite_service_mean_rejected(self):
        with pytest.raises(ExperimentError, match="service_mean"):
            ScaleConfig(service_mean=float("inf"))

    def test_nan_boundary_latency_rejected(self):
        with pytest.raises(ExperimentError, match="boundary_latency"):
            ScaleConfig(boundary_latency=float("nan"))

    def test_nan_saturation_rate_rejected(self):
        with pytest.raises(ExperimentError, match="saturation_rate"):
            ScaleConfig(saturation_rate=float("nan"))


class TestFrontendSharding:
    def test_ports_cycle_over_the_ephemeral_range(self):
        assert frontend_port_of(0) == EPHEMERAL_PORT_BASE
        assert frontend_port_of(1) == EPHEMERAL_PORT_BASE + 1

    def test_stream_is_a_pure_function_of_the_config(self, small_config):
        first = make_scale_stream(small_config)
        second = make_scale_stream(small_config)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_pod_assignment_matches_the_scalar_hash(self, small_config):
        _, _, pods = make_scale_stream(small_config)
        for index in range(0, 50, 7):
            assert pods[index] == pod_of_port(
                small_config, frontend_port_of(index)
            )

    @pytest.mark.parametrize(
        "pods, num_queries", [(4, EPHEMERAL_PORT_RANGE), (3, 2_000)]
    )
    @pytest.mark.parametrize("scheme", ["rendezvous", "modulo"])
    def test_port_table_equals_the_scalar_hash_for_every_port(
        self, pods, num_queries, scheme
    ):
        config = ScaleConfig(pods=pods, num_queries=num_queries, ecmp_hash=scheme)
        table = _pod_by_port_table(config)
        assert table.shape == (num_queries,)
        expected = [
            pod_of_port(config, EPHEMERAL_PORT_BASE + offset)
            for offset in range(num_queries)
        ]
        np.testing.assert_array_equal(table, expected)

    def test_port_table_covers_only_the_ports_a_run_indexes(self):
        small = _pod_by_port_table(ScaleConfig(num_queries=1_000))
        large = _pod_by_port_table(ScaleConfig(num_queries=3 * EPHEMERAL_PORT_RANGE))
        assert small.size == 1_000
        assert large.size == EPHEMERAL_PORT_RANGE
        np.testing.assert_array_equal(small, large[:1_000])

    def test_pod_traces_partition_the_aggregate_stream(self, small_config):
        seen = {}
        horizons = set()
        for pod in range(small_config.pods):
            trace, horizon = make_pod_trace(small_config, pod)
            horizons.add(horizon)
            for request in trace:
                assert request.request_id not in seen
                seen[request.request_id] = pod
        assert len(seen) == small_config.num_queries
        # Every partition must run the same synchronization windows.
        assert len(horizons) == 1

    def test_out_of_range_pod_rejected(self, small_config):
        with pytest.raises(ExperimentError):
            make_pod_trace(small_config, small_config.pods)


class TestRunScale:
    def test_every_query_gets_an_outcome(self, small_config, reference_run):
        assert reference_run.completed + reference_run.failed == (
            small_config.num_queries
        )
        assert reference_run.times.size == small_config.num_queries

    def test_outcomes_arrive_in_merge_order(self, reference_run):
        assert np.all(np.diff(reference_run.times) >= 0)

    def test_partitions_do_not_change_the_fingerprint(
        self, small_config, reference_run
    ):
        partitioned = run_scale(small_config, partitions=2)
        assert partitioned.fingerprint() == reference_run.fingerprint()
        assert partitioned.pod_summaries.keys() == (
            reference_run.pod_summaries.keys()
        )

    def test_summaries_cover_every_pod(self, small_config, reference_run):
        assert sorted(reference_run.pod_summaries) == list(
            range(small_config.pods)
        )
        assert reference_run.events_executed > 0
        assert reference_run.busy_seconds > 0

    def test_nonpositive_partitions_rejected(self, small_config):
        with pytest.raises(ExperimentError):
            run_scale(small_config, partitions=0)


class TestScenarioIntegration:
    def test_registered_in_the_registry(self):
        assert registry.get("scale") is SCALE_SCENARIO
        assert "scale" in registry.names()

    def test_scenario_front_renders_with_fingerprint(self, small_config):
        result = run_scale_scenario(small_config, partitions=1, jobs=1)
        text = SCALE_SCENARIO.render(result)
        assert "fingerprint" in text
        assert "aggregate events/sec" in text

    def test_smoke_config_is_small(self):
        smoke = SCALE_SCENARIO.smoke_config()
        assert smoke.num_queries <= 5_000
