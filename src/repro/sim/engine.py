"""Discrete-event simulation engine.

The engine is a classic event-list simulator: callbacks are scheduled at
absolute or relative simulated times, stored on a binary heap, and
executed in time order.  It is the substrate underneath the whole
reproduction — the network links, TCP handshakes, worker-thread service
completions, and workload arrival processes are all engine events.

Design points
-------------
* **Stable ordering.**  Events at the same timestamp run in scheduling
  order (FIFO), via a monotonically increasing sequence number.  This
  makes simulations deterministic, which the experiment harness and the
  property-based tests rely on.
* **Tuple heap entries.**  The heap stores ``(time, sequence, event)``
  tuples, so heap sifts compare in C (time first, unique sequence as the
  tie-break; the event object is never compared).  A full replay pushes
  and pops one entry per event, and the comparison-heavy dataclass heap
  this replaced was the single hottest function of a run.
* **Cancellation without heap surgery.**  :meth:`EventHandle.cancel`
  marks the event dead; the main loop skips dead events when they are
  popped.  This is O(1) and keeps the heap simple.  When dead entries
  come to dominate — more than half of a non-trivial heap, which
  happens in long replays that churn timers (re-attached samplers, LB
  kill/add recovery retries) — the heap is compacted in one O(n) pass,
  so cancelled events cannot pin memory until their timestamp is
  finally popped.
* **Callbacks are released eagerly.**  An event that leaves the heap
  (executed or discarded) drops its callback reference, so an
  :class:`EventHandle` kept around by a component cannot pin the
  callback's closure — and everything it captured, packets included —
  for the rest of a replay.
* **One object per timer, none per packet hop.**  A timer's heap
  record is the :class:`EventHandle` its caller keeps.  A packet
  delivery is a plain ``(sink, packet, guard)`` tuple pushed by
  :meth:`Simulator._push_delivery` and dispatched inline by the run
  loop (factored into :mod:`repro.sim._fastloop` so it can optionally
  be compiled): no closure, no handle, and never cancelled.
* **No wall-clock coupling.**  The engine never sleeps; a 24-hour
  Wikipedia replay runs as fast as Python can drain the event heap.

Setting ``REPRO_COMPILED=1`` in the environment makes this module
prefer a compiled build of the run loop (``repro.sim._fastloop_c``,
produced by ``make build-fast``) and fall back to the pure-Python loop
when no build is present.  :data:`COMPILED_LOOP` reports which one is
active.
"""

from __future__ import annotations

import heapq
import itertools
import os
from dataclasses import dataclass, field
from math import isfinite
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SchedulingError, SimulationError
from repro.sim.clock import SimulationClock
from repro.sim.random_streams import RandomStreams

if os.environ.get("REPRO_COMPILED") == "1":
    try:
        from repro.sim import _fastloop_c as _fastloop  # type: ignore[no-redef]
    except ImportError:  # no compiled build present: pure Python is canonical
        from repro.sim import _fastloop
else:
    from repro.sim import _fastloop

_run_loop = _fastloop.run_loop
_heappush = heapq.heappush
#: True when the mypyc-compiled run loop is active (``REPRO_COMPILED=1``
#: and ``make build-fast`` has produced ``repro.sim._fastloop_c``).
COMPILED_LOOP: bool = bool(getattr(_fastloop, "COMPILED", False))

EventCallback = Callable[[], None]

#: Heaps smaller than this are never compacted — a linear sweep of a
#: few dozen entries costs more bookkeeping than the dead entries do.
_COMPACTION_MIN_HEAP = 64


class EventHandle:
    """One scheduled timer: the heap record *and* the caller's handle.

    :meth:`Simulator.schedule_at` pushes ``(time, seq, handle)`` onto the
    heap and returns the same object, so a timer costs one allocation.
    The record is never compared (the unique sequence number settles
    every tie before tuple comparison reaches it).
    """

    __slots__ = ("time", "callback", "label", "cancelled", "done", "_simulator")

    def __init__(
        self,
        time: float,
        callback: Optional[EventCallback],
        label: str,
        simulator: "Simulator",
    ) -> None:
        self.time = time
        self.callback = callback
        self.label = label
        self.cancelled = False
        #: Set once the event has left the heap (executed or discarded),
        #: so a late ``cancel()`` does not count toward the compaction
        #: trigger.
        self.done = False
        self._simulator = simulator

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling twice is a no-op."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.done:
            return
        # Still on the heap: the callback can be dropped right away (the
        # run loop will skip the entry), and the owning simulator keeps
        # count so it can decide when compaction pays off.
        self.callback = None
        self._simulator._note_cancelled()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(time={self.time!r}, label={self.label!r}, {state})"


#: The heap entry type: time, scheduling sequence number, then a timer
#: (:class:`EventHandle`) or a packet delivery, the plain tuple
#: ``(sink, packet, guard)``.  Deliveries are never cancelled, so they
#: carry no handle; the run loop calls ``sink.receive(packet)`` when
#: ``guard`` is ``None`` or returns true.
_HeapEntry = Tuple[float, int, Any]


def _is_live(record: Any) -> bool:
    """Whether a heap record still has work to do (deliveries always do)."""
    return record.__class__ is tuple or not record.cancelled


class Simulator:
    """Discrete-event simulator with a shared clock and RNG streams.

    Parameters
    ----------
    seed:
        Root seed for the named random streams (see
        :class:`~repro.sim.random_streams.RandomStreams`).
    start_time:
        Initial simulated time, in seconds.
    """

    def __init__(self, seed: Optional[int] = 0, start_time: float = 0.0) -> None:
        self.clock = SimulationClock(start_time)
        self.streams = RandomStreams(seed)
        self._heap: List[_HeapEntry] = []
        self._sequence = itertools.count()
        self._running = False
        self._stopped = False
        self._events_executed = 0
        self._cancelled_on_heap = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock._now

    @property
    def events_executed(self) -> int:
        """Number of callbacks executed so far (for diagnostics)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of events still on the heap (including cancelled ones)."""
        return len(self._heap)

    def schedule_at(
        self, time: float, callback: EventCallback, label: str = ""
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        time = float(time)
        if not isfinite(time):
            # NaN in particular would slip past the ordering guard below
            # (every comparison with NaN is false) and silently corrupt
            # the heap order for every event sifted past it.
            raise SchedulingError(
                f"cannot schedule event {label!r} at non-finite time {time!r}"
            )
        if time < self.clock._now:
            raise SchedulingError(
                f"cannot schedule event {label!r} at {time!r}, "
                f"which is before current time {self.clock._now!r}"
            )
        event = EventHandle(time, callback, label, self)
        heapq.heappush(self._heap, (time, next(self._sequence), event))
        return event

    def schedule_in(
        self, delay: float, callback: EventCallback, label: str = ""
    ) -> EventHandle:
        """Schedule ``callback`` after a relative ``delay`` (seconds)."""
        if delay < 0:
            raise SchedulingError(
                f"cannot schedule event {label!r} with negative delay {delay!r}"
            )
        # A NaN delay passes the check above (NaN < 0 is false) but turns
        # the absolute time non-finite, which schedule_at rejects.
        return self.schedule_at(self.clock._now + delay, callback, label)

    def _push_delivery(
        self,
        sink: Any,
        packet: Any,
        delay: float,
        label: str,
        guard: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Push a packet delivery record: ``sink.receive(packet)`` after ``delay``.

        This is :class:`~repro.net.channel.InProcessChannel`'s ``deliver``
        (bound once per channel, so a hop is one Python call).  The
        record is the plain tuple ``(sink, packet, guard)``; the run loop
        dispatches it inline.  The time and sequence number are exactly
        those :meth:`schedule_in` would take, and the validation outcome
        matches it: negative, NaN and infinite delays all raise
        :class:`SchedulingError` (the clock is always finite), naming the
        label.
        """
        time = self.clock._now + delay
        if not (delay >= 0.0 and isfinite(time)):
            raise SchedulingError(
                f"cannot schedule delivery {label!r} with delay {delay!r}"
            )
        _heappush(self._heap, (time, next(self._sequence), (sink, packet, guard)))

    # ------------------------------------------------------------------
    # heap hygiene
    # ------------------------------------------------------------------
    def _discard(self, event: EventHandle) -> None:
        """Bookkeeping for an event that just left the heap unexecuted."""
        event.done = True
        event.callback = None
        if event.cancelled:
            self._cancelled_on_heap -= 1

    def _note_cancelled(self) -> None:
        """Called by :meth:`EventHandle.cancel` for an on-heap event."""
        self._cancelled_on_heap += 1
        self._maybe_compact_heap()

    def _maybe_compact_heap(self) -> None:
        """Rebuild the heap once cancelled entries exceed half of it.

        Long replays that churn timers (re-attached samplers, LB
        kill/add recovery) otherwise keep dead events on the heap until
        their timestamp is popped; the rebuild is one O(n) pass and
        preserves the (time, sequence) order of every live event, so it
        never changes simulation results.
        """
        if len(self._heap) < _COMPACTION_MIN_HEAP:
            return
        if self._cancelled_on_heap * 2 <= len(self._heap):
            return
        survivors: List[_HeapEntry] = []
        for entry in self._heap:
            record = entry[2]
            if _is_live(record):
                survivors.append(entry)
            else:
                record.done = True
        # In-place replacement, NOT rebinding: run() holds a local alias
        # to this list while callbacks execute, and a callback that
        # cancels enough events lands here mid-run.  Rebinding would
        # leave the loop draining the stale pre-compaction list.
        self._heap[:] = survivors
        heapq.heapify(self._heap)
        self._cancelled_on_heap = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time.
            ``None`` runs until the event heap is empty.
        max_events:
            Safety valve: stop after executing this many events.

        Returns
        -------
        float
            The simulated time when the run stopped.  ``run(until=T)``
            returns ``T`` whenever every live event at or before ``T``
            has been executed — including runs ended by ``max_events``
            or :meth:`stop` after the last such event.  A run cut short
            with work still pending at or before the horizon returns
            the time of the last executed event instead, so the
            unprocessed events remain in the clock's future.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        clock = self.clock
        try:
            # The event-execution loop lives in repro.sim._fastloop (the
            # module-level `_run_loop` binding, possibly the compiled
            # build) so one source of truth serves both paths.
            _run_loop(self, until, max_events)
            # Honour `run(until=T) == T` whenever no live event remains
            # at or before the horizon, regardless of why the loop ended
            # (heap drained, next event past the horizon, `max_events`
            # exhausted, or `stop()` after the last pre-horizon event).
            if until is not None and until > clock._now:
                next_time = self.peek_next_time()
                if next_time is None or next_time > until:
                    clock.advance(until)
        finally:
            self._running = False
        return clock._now

    def run_window(self, window_end: float) -> int:
        """Run one conservative-lookahead window and report its size.

        Executes every live event with ``time <= window_end``, advances
        the clock to exactly ``window_end`` (even when the window is
        empty), and returns the number of events executed in the window.
        Partitioned drivers (:mod:`repro.sim.partition`) call this once
        per synchronization window: after it returns, this simulator can
        guarantee a watermark of ``window_end`` to its peers, because no
        event at or before that time remains and any message it sends
        later carries at least the boundary latency of delay.
        """
        before = self._events_executed
        self.run(until=window_end)
        return self._events_executed - before

    def step(self) -> bool:
        """Execute exactly one pending event.

        Returns ``True`` if an event was executed, ``False`` if the heap
        is empty.  Cancelled events are discarded silently, through the
        same :meth:`_discard` bookkeeping as the main loop, so stepping
        over them keeps the compaction counter exact.
        """
        while self._heap:
            time, _, record = heapq.heappop(self._heap)
            if record.__class__ is tuple:
                self.clock._now = time
                sink, packet, guard = record
                if guard is None or guard():
                    sink.receive(packet)
                self._events_executed += 1
                return True
            if record.cancelled:
                self._discard(record)
                continue
            record.done = True
            callback = record.callback
            record.callback = None
            self.clock._now = time
            callback()
            self._events_executed += 1
            return True
        return False

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def peek_next_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if none are pending."""
        heap = self._heap
        while heap and not _is_live(heap[0][2]):
            self._discard(heapq.heappop(heap)[2])
        if not heap:
            return None
        return heap[0][0]

    def drain(self) -> int:
        """Discard all pending events; returns how many were discarded."""
        count = 0
        for entry in self._heap:
            record = entry[2]
            if record.__class__ is tuple:
                count += 1
                continue
            record.done = True
            record.callback = None
            if not record.cancelled:
                count += 1
        self._heap.clear()
        self._cancelled_on_heap = 0
        return count

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now!r}, pending={self.pending_events}, "
            f"executed={self._events_executed})"
        )


@dataclass
class PeriodicTask:
    """Helper that re-schedules a callback at a fixed period.

    Used by components that need a heartbeat (e.g. the metrics sampler
    that records per-server load every ``interval`` seconds for Figure 4).
    """

    simulator: Simulator
    interval: float
    callback: EventCallback
    label: str = "periodic"
    _handle: Optional[EventHandle] = field(default=None, init=False, repr=False)
    _active: bool = field(default=False, init=False, repr=False)

    def start(self, first_delay: Optional[float] = None) -> None:
        """Start ticking; the first tick fires after ``first_delay`` (default: one interval)."""
        if self.interval <= 0:
            raise SchedulingError(
                f"periodic task {self.label!r} needs a positive interval, "
                f"got {self.interval!r}"
            )
        if self._active:
            return
        self._active = True
        delay = self.interval if first_delay is None else first_delay
        self._handle = self.simulator.schedule_in(delay, self._tick, self.label)

    def stop(self) -> None:
        """Stop ticking; pending tick (if any) is cancelled."""
        self._active = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def active(self) -> bool:
        """Whether the task is currently scheduled to keep ticking."""
        return self._active

    def _tick(self) -> None:
        if not self._active:
            return
        self.callback()
        if self._active:
            self._handle = self.simulator.schedule_in(
                self.interval, self._tick, self.label
            )


def exponential_delay(rng: Any, mean: float) -> float:
    """Draw an exponentially distributed delay with the given mean.

    Thin wrapper used throughout the workload generators so the
    distribution used for "exponential" is defined in exactly one place.
    """
    if mean <= 0:
        raise SimulationError(f"exponential mean must be positive, got {mean!r}")
    return float(rng.exponential(mean))
