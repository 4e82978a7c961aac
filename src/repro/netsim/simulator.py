"""Deterministic discrete-event scheduler.

The scheduler is a classic calendar queue built on :mod:`heapq`.  Events fire
in (time, insertion-order) order, so simulations are fully deterministic for a
given seed.  Everything else in the simulator (links, protocol timers,
application behaviour) is expressed as callbacks scheduled here.

Heap entries are ``(time, seq, fn, args)`` tuples of two kinds.  An event
that can be cancelled (:meth:`Simulator.schedule`/:meth:`~Simulator.schedule_at`,
and so every :class:`Timer`) is ``(time, seq, None, handle)``: the callback
lives on its :class:`EventHandle`.  An event that nothing ever cancels
(:meth:`Simulator.call_at`, the links' per-hop events) is the bare
``(time, seq, fn, args)`` and allocates no handle.  Both kinds take ``seq``
from the same counter when they are scheduled, and ``seq`` is unique, so
``heapq`` orders all entries by ``(time, seq)`` with C tuple comparison and
never compares the last two slots.
"""

from __future__ import annotations

import random
import sys
import time
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

#: how often (in processed events) the wall-clock watchdog is consulted;
#: checking every event would put a syscall on the scheduler hot path
WALL_CHECK_INTERVAL = 512

#: minimum number of stale (cancelled-but-queued) handles before heap
#: compaction is considered; below this the rebuild costs more than the
#: lazy pops it saves
COMPACT_MIN_STALE = 64

_NO_LIMIT = sys.maxsize
_INF = float("inf")

#: truncation reasons reported via :attr:`Simulator.truncated`
TRUNCATED_MAX_EVENTS = "max-events"
TRUNCATED_WALL_BUDGET = "wall-budget"


class SimulationError(Exception):
    """Raised for invalid scheduler usage (negative delays, running twice, ...)."""


class EventHandle:
    """Handle to a scheduled event, usable to cancel it.

    Cancellation is lazy: the event stays in the heap but is skipped when it
    surfaces.  This keeps cancellation O(1), which matters because protocol
    retransmission timers are cancelled on almost every ACK.  The owning
    simulator counts cancellations and compacts the heap when too many
    cancelled handles pin slots (see :meth:`Simulator._compact`).

    A handle is pending exactly while ``fn`` is set: both :meth:`cancel` and
    the run loop clear it.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        self.fn = None  # drop references so cancelled timers don't pin objects
        self.args = ()
        sim = self.sim
        self.sim = None
        if sim is not None:
            sim._note_cancel()

    @property
    def pending(self) -> bool:
        return not self.cancelled and self.fn is not None

    def __lt__(self, other: "EventHandle") -> bool:
        # the heap orders (time, seq, fn, args) entries itself; this keeps
        # handles sortable on their own
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.6f} seq={self.seq} {state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned :class:`random.Random`.  All stochastic
        behaviour in a simulation (probabilistic packet drops, random field
        values for the ``lie`` attack) must draw from :attr:`rng` so runs are
        reproducible.
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self._heap: List[Tuple[float, int, Optional[Callable[..., Any]], Any]] = []
        self._seq = 0
        self._stale = 0
        self._running = False
        self._events_processed = 0
        #: cumulative real (wall-clock) seconds spent inside :meth:`run`;
        #: with :attr:`events_processed` this yields events/sec, the
        #: simulator-throughput metric campaigns aggregate
        self.wall_seconds = 0.0
        #: why the most recent :meth:`run` call stopped early
        #: (``"max-events"`` / ``"wall-budget"``), or ``None`` if it ran to
        #: its horizon.  Watchdog callers use this to flag wedged runs.
        self.truncated: Optional[str] = None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self.now}")
        self._seq = seq = self._seq + 1
        handle = EventHandle(time, seq, fn, args, self)
        heappush(self._heap, (time, seq, None, handle))
        return handle

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute ``time``, with no handle.

        The event cannot be cancelled, so no :class:`EventHandle` is
        allocated; it takes its ``seq`` exactly as :meth:`schedule_at`
        would, so it fires at the same point of the ``(time, seq)`` order.
        Links use this for their per-hop events.
        """
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self.now}")
        self._seq = seq = self._seq + 1
        heappush(self._heap, (time, seq, fn, args))

    # ------------------------------------------------------------------
    # heap hygiene
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        self._stale += 1
        if self._stale > COMPACT_MIN_STALE and self._stale * 2 >= len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled handles and re-heapify; keep every handle-free entry.

        Lazily cancelled retransmit timers pin heap slots until their
        far-future timestamps surface; once they are the majority of the heap
        a linear rebuild is cheaper than lazily popping them one by one.
        Rebuilding preserves the ``(time, seq)`` total order, so determinism
        is unaffected.  Compaction runs from inside callbacks while
        :meth:`run` holds the heap in a local, so the list is rebuilt in
        place rather than rebound.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[2] is not None or entry[3].fn is not None]
        heapify(heap)
        self._stale = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        wall_budget: Optional[float] = None,
        stop_after_events: Optional[int] = None,
    ) -> int:
        """Run events until the horizon, a watchdog budget, or heap exhaustion.

        Returns the number of events processed by this call.  ``until`` is an
        absolute simulated time; events scheduled exactly at the horizon still
        run.  When the horizon is hit, :attr:`now` is advanced to it so that
        measurements taken "at the end of the test" use the full window.

        ``max_events`` caps the number of events this call may process and
        ``wall_budget`` caps its real (wall-clock) runtime in seconds; either
        watchdog firing stops the run early and records the reason in
        :attr:`truncated` (``None`` when the run completed normally).

        ``stop_after_events`` pauses cleanly after this call has processed
        exactly that many events: unlike the watchdogs it does not set
        :attr:`truncated` and does not advance :attr:`now` to the horizon, so
        a later :meth:`run` call resumes mid-simulation with identical
        semantics to never having paused.  The snapshot engine uses this to
        stop a run at a prefix boundary.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self.truncated = None
        started = time.monotonic()
        deadline = None if wall_budget is None else started + wall_budget
        # absent limits become unreachable ones so each check is one compare
        pause_at = _NO_LIMIT if stop_after_events is None else stop_after_events
        cap = _NO_LIMIT if max_events is None else max_events
        horizon = _INF if until is None else until
        heap = self._heap
        pop = heappop
        processed = 0
        paused = False
        try:
            while heap:
                if processed >= pause_at:
                    paused = True
                    break
                at, _, fn, args = heap[0]
                event = None
                if fn is None:  # a cancellable event: the callback is on its handle
                    event = args
                    fn = event.fn
                    if fn is None:  # cancelled
                        pop(heap)
                        self._stale -= 1
                        continue
                    args = event.args
                if at > horizon:
                    break
                if processed >= cap:
                    self.truncated = TRUNCATED_MAX_EVENTS
                    break
                if (
                    deadline is not None
                    and processed % WALL_CHECK_INTERVAL == 0
                    and time.monotonic() >= deadline
                ):
                    self.truncated = TRUNCATED_WALL_BUDGET
                    break
                pop(heap)
                self.now = at
                if event is not None:
                    # consumed, not cancelled: a popped event is no stale entry
                    event.cancelled = True
                    event.fn = None
                    event.args = ()
                    event.sim = None
                fn(*args)
                processed += 1
                self._events_processed += 1
        finally:
            self._running = False
            self.wall_seconds += time.monotonic() - started
        # a truncated (or paused) run did not reach the horizon; leave ``now``
        # where it stopped so callers can see how far the run actually got
        if until is not None and self.now < until and self.truncated is None and not paused:
            self.now = until
        return processed

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued, of both kinds."""
        return sum(1 for _, _, fn, args in self._heap if fn is not None or args.pending)

    @property
    def events_processed(self) -> int:
        return self._events_processed


class Timer:
    """Restartable one-shot timer bound to a simulator.

    Protocol code uses this for retransmission/delayed-ACK/connection timers:
    ``start`` (re)arms it, ``stop`` disarms it, and the callback runs with no
    arguments when it expires.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], Any], name: str = "timer"):
        self._sim = sim
        self._callback = callback
        self.name = name
        self._handle: Optional[EventHandle] = None

    def start(self, delay: float) -> None:
        """Arm the timer ``delay`` seconds from now, replacing any prior arming."""
        self.stop()
        self._handle = self._sim.schedule(delay, self._fire)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self._callback()

    @property
    def armed(self) -> bool:
        return self._handle is not None and self._handle.pending

    @property
    def expiry(self) -> Optional[float]:
        """Absolute time the timer will fire, or ``None`` if disarmed."""
        if self.armed:
            assert self._handle is not None
            return self._handle.time
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timer {self.name} armed={self.armed}>"
