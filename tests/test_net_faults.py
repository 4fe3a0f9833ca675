"""Unit tests for fault-plane validation and the ``enabled`` stage test."""

import math

import pytest

from repro.errors import NetworkError
from repro.net.faults import (
    CorruptionInjector,
    FaultConfig,
    FaultInjectionChannel,
    GilbertElliottLossInjector,
    IIDLossInjector,
    JitterInjector,
    LinkFlapInjector,
    ReorderInjector,
    build_injectors,
)
from repro.net.channel import InProcessChannel
from repro.sim.engine import Simulator

NAN = math.nan
INF = math.inf


class TestFaultConfigRejectsNonFiniteValues:
    """One test per field: NaN always fails, infinity fails except for a
    flap window's ``up_at``, and the error names the field."""

    @pytest.mark.parametrize("value", [NAN, INF, -INF])
    def test_loss_rate(self, value):
        with pytest.raises(NetworkError, match="loss_rate"):
            FaultConfig(loss_rate=value)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_burst_enter(self, value):
        with pytest.raises(NetworkError, match="burst_enter"):
            FaultConfig(burst_enter=value)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_burst_exit(self, value):
        with pytest.raises(NetworkError, match="burst_exit"):
            FaultConfig(burst_exit=value)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_burst_loss(self, value):
        with pytest.raises(NetworkError, match="burst_loss"):
            FaultConfig(burst_loss=value)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_jitter_mean(self, value):
        with pytest.raises(NetworkError, match="jitter_mean"):
            FaultConfig(jitter_mean=value)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_jitter_cap(self, value):
        with pytest.raises(NetworkError, match="jitter_cap"):
            FaultConfig(jitter_mean=0.001, jitter_cap=value)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_reorder_rate(self, value):
        with pytest.raises(NetworkError, match="reorder_rate"):
            FaultConfig(reorder_rate=value, reorder_window=0.001)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_reorder_window(self, value):
        with pytest.raises(NetworkError, match="reorder_window"):
            FaultConfig(reorder_rate=0.1, reorder_window=value)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_corruption_rate(self, value):
        with pytest.raises(NetworkError, match="corruption_rate"):
            FaultConfig(corruption_rate=value)

    @pytest.mark.parametrize("value", [NAN, INF, -INF])
    def test_flap_down_at(self, value):
        with pytest.raises(NetworkError, match=r"flap_windows\[1\] down_at"):
            FaultConfig(flap_windows=((0.0, 1.0), (value, 5.0)))

    def test_flap_up_at_nan(self):
        with pytest.raises(NetworkError, match=r"flap_windows\[0\] up_at"):
            FaultConfig(flap_windows=((1.0, NAN),))

    def test_flap_up_at_inf_is_a_permanent_outage(self):
        config = FaultConfig(flap_windows=((2.0, INF),))
        simulator = Simulator(seed=1)
        channel = FaultInjectionChannel(
            simulator, InProcessChannel(simulator), build_injectors(simulator, config)
        )

        class Sink:
            received = []

            def receive(self, packet):
                self.received.append(packet)

        sink = Sink()
        for at in (1.0, 2.0, 1e9):
            simulator.schedule_at(at, lambda at=at: channel.deliver(sink, at, 0.0, "x"))
        simulator.run()
        assert sink.received == [1.0]
        assert channel.stats.packets_dropped_link_down == 2


class TestInjectorsRejectNaN:
    """Direct construction is guarded too, so ``enabled`` is well defined."""

    def test_jitter(self):
        with pytest.raises(NetworkError):
            JitterInjector(None, NAN)
        with pytest.raises(NetworkError):
            JitterInjector(None, 0.001, NAN)

    def test_reorder_window(self):
        with pytest.raises(NetworkError):
            ReorderInjector(None, 0.1, NAN)

    def test_flap_window(self):
        with pytest.raises(NetworkError):
            LinkFlapInjector([(NAN, 1.0)])
        with pytest.raises(NetworkError):
            LinkFlapInjector([(0.0, NAN)])


class TestEnabled:
    def test_defaults_are_all_disabled(self):
        assert [injector.enabled for injector in build_injectors(None, FaultConfig())] == [
            False
        ] * 6

    @pytest.mark.parametrize(
        "injector, enabled",
        [
            (IIDLossInjector(None, 0.0), False),
            (IIDLossInjector(None, 0.2), True),
            (CorruptionInjector(None, 0.0), False),
            (CorruptionInjector(None, 0.2), True),
            (GilbertElliottLossInjector(None, 0.0, 0.5), False),
            (GilbertElliottLossInjector(None, 0.1, 0.5), True),
            (GilbertElliottLossInjector(None, 0.0, 0.5, loss_good=0.1), True),
            (JitterInjector(None, 0.0, 1.0), False),
            (JitterInjector(None, 1e-3), True),
            (ReorderInjector(None, 0.0, 1.0), False),
            (ReorderInjector(None, 0.5, 1.0), True),
            (LinkFlapInjector(()), False),
            (LinkFlapInjector([(1.0, 2.0)]), True),
        ],
    )
    def test_matches_the_early_return(self, injector, enabled):
        assert injector.enabled is enabled

    def test_channel_keeps_every_injector_but_runs_the_enabled(self):
        simulator = Simulator(seed=1)
        injectors = build_injectors(simulator, FaultConfig(loss_rate=0.5, jitter_mean=1e-4))
        channel = FaultInjectionChannel(simulator, InProcessChannel(simulator), injectors)
        assert channel.injectors == injectors
        assert [type(stage) for stage in channel._stages] == [IIDLossInjector, JitterInjector]
