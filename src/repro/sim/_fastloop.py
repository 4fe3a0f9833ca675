"""The simulator's inner run loop.

This module holds exactly one function — :func:`run_loop` — factored out
of :meth:`repro.sim.engine.Simulator.run` so it can optionally be
compiled (see ``tools/build_fastloop.py`` and the ``REPRO_COMPILED``
gate in :mod:`repro.sim.engine`).  It is deliberately plain Python: no
decorators, no closures, no dynamic features — the subset mypyc
compiles well.  The pure-Python version here is canonical; the compiled
build is a byte-identical copy under the module name
``repro.sim._fastloop_c``.

The loop pops one ``(time, sequence, record)`` entry at a time, in heap
order.  A record is one of two kinds:

* a **delivery** — a ``(sink, packet, guard)`` tuple pushed by
  :meth:`~repro.sim.engine.Simulator._push_delivery`, the ``deliver`` of
  :class:`~repro.net.channel.InProcessChannel` — is dispatched inline:
  ``sink.receive(packet)`` unless the guard says no.  Deliveries are
  never cancelled, so they skip the cancelled check;
* a **timer** — an :class:`~repro.sim.engine.EventHandle` — is skipped
  when cancelled, and otherwise has its callback released and called.

Both count as one executed event.
"""

from __future__ import annotations

from heapq import heappop
from typing import Any, Optional

#: Flipped to True in the compiled copy by ``tools/build_fastloop.py``.
COMPILED = False


def run_loop(sim: Any, until: Optional[float], max_events: Optional[int]) -> int:
    """Drain the simulator's heap; returns the number of events executed.

    The caller (:meth:`Simulator.run`) owns the re-entrancy guard, the
    ``_stopped`` reset and the final clock advance to the horizon; this
    function owns only the event-execution loop.
    """
    heap = sim._heap
    clock = sim.clock
    executed = 0
    while heap:
        if sim._stopped:
            break
        if max_events is not None and executed >= max_events:
            break
        entry = heap[0]
        record = entry[2]
        if record.__class__ is tuple:
            time = entry[0]
            if until is not None and time > until:
                break
            heappop(heap)
            clock._now = time
            sink, packet, guard = record
            if guard is None or guard():
                sink.receive(packet)
            sim._events_executed += 1
            executed += 1
            continue
        if record.cancelled:
            heappop(heap)
            sim._discard(record)
            continue
        time = entry[0]
        if until is not None and time > until:
            break
        heappop(heap)
        record.done = True
        callback = record.callback
        record.callback = None
        clock._now = time
        callback()
        sim._events_executed += 1
        executed += 1
    return executed
