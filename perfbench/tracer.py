"""Span tracing of the simulator's layers, installed from outside ``src/``.

:class:`SpanRecorder` replaces the public entry points of each layer of
``repro`` with timing wrappers for the duration of one traced run and puts
the original functions back afterwards, so untraced runs execute the
unmodified code.  Every wrapped call records one span — entry point,
start, end, parent span and the request id of the packet or request it
handles (``-1`` when there is none) — in flat typed arrays of 36 bytes a
span: a traced workload run records 0.6 to 0.9 million spans.

:func:`self_times` is the self-time arithmetic: a span's duration minus
the durations of its direct child spans.  :func:`layer_metrics` folds the
spans and the counters harvested from each replayed testbed into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Layer names, in the order their metrics are reported.
LAYERS = (
    "experiments.trace",
    "experiments.build",
    "experiments.replay",
    "experiments.aggregate",
    "experiments.render",
    "sim.engine",
    "net.fabric",
    "net.ecmp",
    "net.faults",
    "core.loadbalancer",
    "server.virtual_router",
    "server.http_server",
    "server.cpu",
    "workload.client",
    "telemetry",
)

_NO_REQUEST = -1


def _rid_of_packet(args: Sequence[Any]) -> int:
    """Request id of a ``method(self, packet)`` call."""
    request_id = args[1].tcp.request_id
    return _NO_REQUEST if request_id is None else request_id


def _rid_of_delivery(args: Sequence[Any]) -> int:
    """Request id of a ``channel.deliver(self, sink, packet, ...)`` call."""
    request_id = args[2].tcp.request_id
    return _NO_REQUEST if request_id is None else request_id


def _rid_of_request(args: Sequence[Any]) -> int:
    """Request id of a ``start_query(self, request)`` call."""
    return args[1].request_id


def _rid_of_first_int(args: Sequence[Any]) -> int:
    """Request id passed as the first argument (client timers)."""
    return args[1]


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``owner.attr`` attributed to ``layer``."""

    module: str
    owner: str
    attr: str
    layer: str
    request_id: Optional[Callable[[Sequence[Any]], int]] = None

    @property
    def name(self) -> str:
        return ".".join(part for part in (self.module, self.owner, self.attr) if part)


def _entry_points() -> Tuple[EntryPoint, ...]:
    """Every entry point the traced run wraps (one span per call)."""
    scenario_modules = (
        ("repro.experiments.poisson_experiment", "PoissonScenario"),
        ("repro.experiments.chaos_experiment", "ChaosScenario"),
        ("repro.experiments.scale_experiment", "ScaleScenario"),
    )
    entries: List[EntryPoint] = []
    for module, spec in scenario_modules:
        entries.append(EntryPoint(module, spec, "make_trace", "experiments.trace"))
        entries.append(EntryPoint(module, spec, "aggregate", "experiments.aggregate"))
        entries.append(EntryPoint(module, spec, "render", "experiments.render"))
        # The experiment modules import build_testbed by name, so the
        # wrapper replaces each module's own binding.
        entries.append(EntryPoint(module, "", "build_testbed", "experiments.build"))
    scale = "repro.experiments.scale_experiment"
    # The private methods below are event handlers the engine calls
    # directly; unwrapped, their time would count as engine self time.
    entries += [
        EntryPoint(scale, "", "make_pod_trace", "experiments.trace"),
        EntryPoint(scale, "", "scale_partition_worker", "experiments.replay"),
        EntryPoint("repro.experiments.platform", "Testbed", "run_trace",
                   "experiments.replay"),
        EntryPoint("repro.sim.engine", "Simulator", "run", "sim.engine"),
        EntryPoint("repro.sim.engine", "Simulator", "run_window", "sim.engine"),
        EntryPoint("repro.net.fabric", "LANFabric", "send", "net.fabric",
                   _rid_of_packet),
        EntryPoint("repro.net.ecmp", "EcmpEdgeRouter", "handle_packet", "net.ecmp",
                   _rid_of_packet),
        EntryPoint("repro.net.faults", "FaultInjectionChannel", "deliver",
                   "net.faults", _rid_of_delivery),
        EntryPoint("repro.core.loadbalancer", "LoadBalancerNode", "handle_packet",
                   "core.loadbalancer", _rid_of_packet),
        EntryPoint("repro.core.loadbalancer", "LoadBalancerNode",
                   "_expire_idle_flows", "core.loadbalancer"),
        EntryPoint("repro.core.lb_tier", "TierLoadBalancer", "handle_packet",
                   "core.loadbalancer", _rid_of_packet),
        EntryPoint("repro.server.virtual_router", "ServerNode", "handle_packet",
                   "server.virtual_router", _rid_of_packet),
        EntryPoint("repro.server.virtual_router", "ServerNode", "send_syn_ack",
                   "server.virtual_router"),
        EntryPoint("repro.server.virtual_router", "ServerNode", "send_reset",
                   "server.virtual_router"),
        EntryPoint("repro.server.virtual_router", "ServerNode", "send_response",
                   "server.virtual_router"),
        EntryPoint("repro.server.http_server", "HTTPServerInstance",
                   "handle_connection_request", "server.http_server"),
        EntryPoint("repro.server.http_server", "HTTPServerInstance",
                   "handle_request_data", "server.http_server"),
        EntryPoint("repro.server.http_server", "HTTPServerInstance",
                   "_on_service_complete", "server.http_server"),
        EntryPoint("repro.server.http_server", "HTTPServerInstance",
                   "_check_request_timeout", "server.http_server"),
        EntryPoint("repro.server.cpu", "ProcessorSharingCPU", "add_job", "server.cpu"),
        EntryPoint("repro.server.cpu", "ProcessorSharingCPU", "cancel_job",
                   "server.cpu"),
        EntryPoint("repro.server.cpu", "ProcessorSharingCPU", "_fire_completions",
                   "server.cpu"),
        EntryPoint("repro.workload.client", "TrafficGeneratorNode", "handle_packet",
                   "workload.client", _rid_of_packet),
        EntryPoint("repro.workload.client", "TrafficGeneratorNode", "start_query",
                   "workload.client", _rid_of_request),
        EntryPoint("repro.workload.client", "TrafficGeneratorNode",
                   "_retransmit_syn", "workload.client", _rid_of_first_int),
        EntryPoint("repro.workload.client", "TrafficGeneratorNode",
                   "_attempt_deadline", "workload.client", _rid_of_first_int),
        EntryPoint("repro.workload.client", "TrafficGeneratorNode",
                   "sweep_unfinished", "workload.client"),
        EntryPoint("repro.telemetry.probe", "TelemetryProbe", "sample", "telemetry"),
        EntryPoint("repro.telemetry.render", "", "render_summary", "experiments.render"),
    ]
    return tuple(entries)


@dataclass
class Counters:
    """Exact counts read from each replayed testbed's ``stats`` objects."""

    fabric_drops: int = 0
    fault_drops: int = 0
    fault_delays: int = 0
    syn_dispatched: int = 0
    offers_refused: int = 0
    steering_misses: int = 0
    requests_served: int = 0
    connections_reset: int = 0
    syn_retransmits: int = 0
    queries_retried: int = 0
    events: int = 0

    def harvest(self, testbed: Any) -> None:
        """Add one finished testbed's counters."""
        self.fabric_drops += testbed.fabric.stats.packets_dropped
        pipeline = testbed.fault_pipeline
        if pipeline is not None:
            stats = pipeline.stats
            self.fault_drops += stats.packets_dropped
            self.fault_delays += stats.packets_delayed_jitter + stats.packets_reordered
        for lb in testbed.load_balancers():
            self.syn_dispatched += lb.stats.syn_dispatched
            self.steering_misses += lb.stats.steering_misses
        for server in testbed.servers:
            hunting = server.hunting.stats
            self.offers_refused += hunting.refused + hunting.refused_draining
            self.requests_served += server.app.stats.requests_served
            self.connections_reset += server.app.stats.connections_reset
        client = testbed.client
        self.syn_retransmits += client.syn_retransmits
        self.queries_retried += client.queries_retried
        self.events += testbed.simulator.events_executed


@dataclass
class SpanRecorder:
    """In-memory span store plus the wrappers that fill it.

    Use as ``with recorder.installed(): ...``; the wrappers exist only
    inside the block.
    """

    entries: Tuple[EntryPoint, ...] = field(default_factory=_entry_points)
    entry_ids: array = field(default_factory=lambda: array("h"))
    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    parents: array = field(default_factory=lambda: array("q"))
    request_ids: array = field(default_factory=lambda: array("q"))
    counters: Counters = field(default_factory=Counters)
    _stack: List[int] = field(default_factory=lambda: [-1])
    _built: List[Any] = field(default_factory=list)
    _saved: List[Tuple[Any, str, Any]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.starts)

    # -- recording --------------------------------------------------------
    def _wrap(self, entry_id: int, fn: Callable, request_id: Optional[Callable],
              after: Optional[Callable[[Any, Sequence[Any]], None]]) -> Callable:
        entry_ids, starts, ends = self.entry_ids, self.starts, self.ends
        parents, request_ids, stack = self.parents, self.request_ids, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            entry_ids.append(entry_id)
            parents.append(stack[-1])
            request_ids.append(_NO_REQUEST if request_id is None else request_id(args))
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def _after_build(self, testbed: Any, args: Sequence[Any]) -> None:
        self._built.append(testbed)

    def _after_replay(self, result: Any, args: Sequence[Any]) -> None:
        # Counters are read as soon as a replay ends, so no testbed is
        # kept alive past its cell.
        for testbed in self._built:
            self.counters.harvest(testbed)
        self._built.clear()

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Install every wrapper; restore the originals on exit."""
        import importlib

        try:
            for entry_id, entry in enumerate(self.entries):
                module = importlib.import_module(entry.module)
                owner = getattr(module, entry.owner) if entry.owner else module
                original = vars(owner)[entry.attr]
                after = None
                if entry.layer == "experiments.build":
                    after = self._after_build
                elif entry.layer == "experiments.replay":
                    after = self._after_replay
                self._saved.append((owner, entry.attr, original))
                setattr(owner, entry.attr,
                        self._wrap(entry_id, original, entry.request_id, after))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def arrays(self) -> Dict[str, np.ndarray]:
        """The recorded spans as numpy arrays (one row per span)."""
        layer_ids = {layer: i for i, layer in enumerate(LAYERS)}
        entry_layer = np.array([layer_ids[e.layer] for e in self.entries], dtype=np.int16)
        entry_ids = np.frombuffer(self.entry_ids, dtype=np.int16)
        return {
            "entry": entry_ids,
            "layer": entry_layer[entry_ids],
            "start": np.frombuffer(self.starts, dtype=np.float64),
            "end": np.frombuffer(self.ends, dtype=np.float64),
            "parent": np.frombuffer(self.parents, dtype=np.int64),
            "request_id": np.frombuffer(self.request_ids, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        """Write the spans (and the layer and entry-point names) to ``path``."""
        np.savez(
            path,
            layers=np.array(LAYERS),
            entry_names=np.array([entry.name for entry in self.entries]),
            **self.arrays(),
        )


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = end - start
    nested = parent >= 0
    child_time = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(duration)
    )
    return duration - child_time


def layer_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """The traced run's per-layer metrics (times in seconds, exact counts)."""
    spans = recorder.arrays()
    layer, parent = spans["layer"], spans["parent"]
    duration = spans["end"] - spans["start"]
    own = self_times(spans["start"], spans["end"], parent)
    nlayers = len(LAYERS)
    self_s = np.bincount(layer, weights=own, minlength=nlayers)
    # A call is an entry into a layer from another layer (or from the
    # top), so a subclass method calling its base counts once, and a
    # layer's total time is the sum of its outermost spans.
    parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], -1)
    outer = parent_layer != layer
    calls = np.bincount(layer[outer], minlength=nlayers)
    total_s = np.bincount(layer[outer], weights=duration[outer], minlength=nlayers)
    per_entry = np.bincount(spans["entry"], minlength=len(recorder.entries))
    idx = {name: i for i, name in enumerate(LAYERS)}

    def entry_calls(owner: str, attr: str) -> int:
        return int(sum(
            per_entry[i] for i, entry in enumerate(recorder.entries)
            if entry.owner == owner and entry.attr == attr
        ))

    # Replay time excludes the trace and build phases nested inside it
    # (the scale worker generates its pod trace and testbed itself).
    setup_phases = np.isin(layer, [idx["experiments.trace"], idx["experiments.build"]])
    nested_setup = setup_phases & (parent >= 0)
    nested_setup &= layer[np.maximum(parent, 0)] == idx["experiments.replay"]
    replay_s = total_s[idx["experiments.replay"]] - float(duration[nested_setup].sum())

    counters = recorder.counters
    outer_lb = outer & (layer == idx["core.loadbalancer"])
    lb_packet_entries = [
        i for i, entry in enumerate(recorder.entries)
        if entry.layer == "core.loadbalancer" and entry.attr == "handle_packet"
    ]
    lb_packets = int(np.count_nonzero(outer_lb & np.isin(spans["entry"], lb_packet_entries)))
    dispatched = counters.syn_dispatched
    metrics: Dict[str, float] = {
        "experiments.trace_s": total_s[idx["experiments.trace"]],
        "experiments.build_s": total_s[idx["experiments.build"]],
        "experiments.replay_s": replay_s,
        "experiments.aggregate_s": total_s[idx["experiments.aggregate"]],
        "experiments.render_s": total_s[idx["experiments.render"]],
        "sim.engine.events": counters.events,
        "sim.engine.self_s": self_s[idx["sim.engine"]],
        "net.fabric.sends": entry_calls("LANFabric", "send"),
        "net.fabric.self_s": self_s[idx["net.fabric"]],
        "net.fabric.drops": counters.fabric_drops,
        "net.ecmp.packets": entry_calls("EcmpEdgeRouter", "handle_packet"),
        "net.ecmp.self_s": self_s[idx["net.ecmp"]],
        "net.faults.self_s": self_s[idx["net.faults"]],
        "net.faults.drops": counters.fault_drops,
        "net.faults.delays": counters.fault_delays,
        "core.loadbalancer.packets": lb_packets,
        "core.loadbalancer.self_s": self_s[idx["core.loadbalancer"]],
        # Valid for two-candidate lists (every workload): each refused
        # offer passes one SYN on to the second candidate.
        "core.loadbalancer.first_accept_ratio": (
            (dispatched - counters.offers_refused) / dispatched if dispatched else 0.0
        ),
        "core.loadbalancer.steering_misses": counters.steering_misses,
        "server.http_server.requests": counters.requests_served,
        "server.http_server.resets": counters.connections_reset,
        "workload.client.self_s": self_s[idx["workload.client"]],
        "workload.client.packets": entry_calls("TrafficGeneratorNode", "handle_packet"),
        "workload.client.syn_retransmits": counters.syn_retransmits,
        "workload.client.retries": counters.queries_retried,
        "telemetry.samples": entry_calls("TelemetryProbe", "sample"),
        "telemetry.self_s": self_s[idx["telemetry"]],
    }
    for layer_name in ("server.virtual_router", "server.http_server", "server.cpu"):
        metrics[f"{layer_name}.self_s"] = self_s[idx[layer_name]]
        metrics[f"{layer_name}.calls"] = int(calls[idx[layer_name]])
    return {name: float(value) if isinstance(value, (float, np.floating)) else int(value)
            for name, value in metrics.items()}
