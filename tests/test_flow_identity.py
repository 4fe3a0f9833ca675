"""Every delivered packet carries the flow key its headers imply.

Clients seed their packets with one :class:`~repro.net.packet.FlowKey`
per connection attempt, servers seed their replies with its reverse,
and the load balancer keeps the cached key across ``attach_srh``.  A
stale or mis-seeded key would silently mis-steer a flow, so this test
taps the fabric of each golden scenario family and checks, at every
delivery, ``packet.flow_key()`` against a key derived from scratch from
the source address, the ports and the final destination.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.experiments.config import (
    ChurnEvent,
    PoissonSweepConfig,
    ResilienceConfig,
    TestbedConfig,
    rr_policy,
    sr_policy,
)
from repro.net.fabric import LANFabric
from repro.net.packet import FlowKey

SMALL_TESTBED = TestbedConfig(
    num_servers=4, workers_per_server=8, cores_per_server=2, backlog_capacity=16
)


@pytest.fixture
def deliveries(monkeypatch):
    """Install the flow-key check on every fabric built in this process.

    Returns a counter of checked deliveries by ``(origin, destination)``
    node kind, so each test can also assert the paths it means to cover
    were taken.
    """
    seen: Counter = Counter()
    build = LANFabric.__init__

    def check(packet, origin, destination):
        tcp = packet.tcp
        derived = FlowKey(
            packet.src, tcp.src_port, packet.final_destination, tcp.dst_port
        )
        assert packet.flow_key() == derived, (
            f"{origin} -> {destination}: {packet.describe()} carries "
            f"{packet.flow_key()}, its headers say {derived}"
        )
        seen[(origin.split("-")[0], destination)] += 1

    def tapped_init(self, *args, **kwargs):
        build(self, *args, **kwargs)
        self.add_tap(check)

    monkeypatch.setattr(LANFabric, "__init__", tapped_init)
    return seen


def _relays(seen: Counter) -> int:
    """Deliveries from one tier instance to another (SYN-ACK relays)."""
    return sum(
        count
        for (origin, destination), count in seen.items()
        if origin == "lb" and destination.startswith("lb-")
        and destination != "lb-ecmp-edge"
    )


def test_poisson(deliveries):
    from repro.experiments.poisson_experiment import PoissonSweep

    config = PoissonSweepConfig(
        testbed=SMALL_TESTBED,
        load_factors=(0.75,),
        num_queries=250,
        policies=(rr_policy(), sr_policy(4)),
    )
    PoissonSweep(config).run(jobs=1)
    assert deliveries[("client", "lb")] > 0
    assert deliveries[("lb", "client")] > 0


def test_chaos_tier_relays(deliveries):
    from repro.experiments.chaos_experiment import CHAOS_SCENARIO, run_chaos

    comparison = run_chaos(CHAOS_SCENARIO.smoke_config(), jobs=1)
    assert _relays(deliveries) > 0
    # Retries move a query to a fresh source port, hence a fresh key.
    assert any(
        comparison.run(mode).queries_retried > 0 for mode in ("loss", "flap")
    )


def test_resilience_churn_recovery_hunts(deliveries):
    from repro.experiments.resilience_experiment import run_resilience_comparison

    config = ResilienceConfig(
        testbed=TestbedConfig(
            num_servers=6,
            workers_per_server=8,
            num_load_balancers=4,
            request_spread=1.5,
            request_chunks=4,
        ),
        load_factor=0.6,
        num_queries=500,
        service_mean=0.05,
        churn=(ChurnEvent(at_fraction=0.5),),
    )
    comparison = run_resilience_comparison(config, jobs=1)
    assert comparison.run("consistent-hash").recovery_hunts > 0
    assert _relays(deliveries) > 0


def test_adversarial(deliveries):
    from repro.experiments.adversarial_experiment import (
        ADVERSARIAL_SCENARIO,
        run_adversarial,
    )

    run_adversarial(ADVERSARIAL_SCENARIO.smoke_config(), jobs=1)
    assert deliveries[("attacker", "lb-ecmp-edge")] > 0


def test_heavy_tail(deliveries):
    from repro.experiments.heavy_tail_experiment import (
        HEAVY_TAIL_SCENARIO,
        run_heavy_tail,
    )

    run_heavy_tail(HEAVY_TAIL_SCENARIO.smoke_config(), jobs=1)
    assert deliveries[("client", "lb")] > 0
