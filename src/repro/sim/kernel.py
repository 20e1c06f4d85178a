"""The discrete-event simulation environment.

:class:`Environment` owns the simulated clock and the event queue, a
bucketed calendar queue: events within a sliding horizon land in
per-tick buckets (plain list appends), a small int-heap tracks which
ticks are occupied, the current tick is drained through its own tiny
heap, and far-future events wait in an overflow heap until their tick
slides into the horizon.  Against one deep binary heap this replaces
the ``heappop`` sift-down (the dominant queue cost at 10^4+ pending
timers) with shallow pops and O(1) bucket appends.

Queue entries are ``(time, priority, seq, event)`` tuples and pop in
sorted tuple order (time, then priority, then FIFO sequence): the tick
index is a monotone function of time, and any two entries that could
ever be compared meet in the same heap.

``run()`` is a single inlined hot loop; ``peek()``/``step()`` survive
for tests, single-stepping and traced runs.  An opt-in trace hook
(:meth:`Environment.set_trace`) restores per-event observability when
profiling.
"""

from __future__ import annotations

import typing
from heapq import heapify, heappop, heappush

from repro.sim.events import _INF, Event, Timeout
from repro.sim.process import Process

#: Default priority for scheduled events.  Lower sorts first.
PRIORITY_NORMAL = 1
#: Priority used by the kernel for urgent bookkeeping (process start-up).
PRIORITY_URGENT = 0
#: Wheel bucket width in seconds.
BUCKET_S = 1e-2
#: Number of wheel buckets (a power of two, so a tick's bucket is a mask).
N_BUCKETS = 8192


class SimulationError(RuntimeError):
    """An unhandled failure escaped a process and aborted the run."""


class StopSimulation(Exception):
    """Raised internally to halt ``run(until=event)`` when ``event`` fires."""

    def __init__(self, value: object):
        super().__init__(value)
        self.value = value


class Environment:
    """Simulation environment: clock + event queue + process factory.

    The clock starts at 0.  The queue's geometry is fixed: delays
    shorter than the horizon ``BUCKET_S * N_BUCKETS`` (81.92 s) enqueue
    in O(1); longer ones wait in the overflow heap and migrate into the
    wheel when their tick comes within the horizon.
    """

    __slots__ = (
        "_now", "_seq", "_cur", "_buckets", "_occupied", "_nbuckets",
        "_mask", "_tick", "_inv_width", "_overflow", "_nevents", "_trace",
    )

    def __init__(self):
        self._now = 0.0
        self._seq = 0  # FIFO tie-break for same-time, same-priority events
        # Invariants: _cur holds exactly the entries with tick == _tick;
        # each bucket holds entries of exactly one tick (ticks within the
        # horizon are unique modulo N_BUCKETS); _occupied is a heap of the
        # non-empty bucket ticks; _overflow holds ticks >= _tick +
        # N_BUCKETS.  The geometry is copied into slots because
        # Process._resume's inlined schedule reads it off the instance.
        self._cur: list[tuple[float, int, int, Event]] = []
        self._buckets: list[list | None] = [None] * N_BUCKETS
        self._occupied: list[int] = []
        self._nbuckets = N_BUCKETS
        self._mask = N_BUCKETS - 1
        self._inv_width = 1.0 / BUCKET_S
        self._tick = 0
        self._overflow: list[tuple[float, int, int, Event]] = []
        self._nevents = 0
        self._trace: typing.Callable[[float, int, Event], None] | None = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events processed since construction (perf gauge)."""
        return self._nevents

    def set_trace(
        self, hook: typing.Callable[[float, int, Event], None] | None,
    ) -> None:
        """Install an opt-in per-event hook ``hook(time, priority, event)``.

        Called for every processed event; pass ``None`` to disable.  While
        a hook is installed ``run()`` uses the observable step path, so
        tracing costs nothing when off and everything is visible when on.
        Installing a hook mid-run takes effect at the next ``run()`` call.
        """
        self._trace = hook

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """Create a new pending :class:`Event` bound to this environment."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: typing.Generator) -> Process:
        """Start a new process running ``generator`` and return it."""
        return Process(self, generator)

    # -- scheduling ---------------------------------------------------------

    def schedule(self, event: Event, priority: int = PRIORITY_NORMAL,
                 delay: float = 0.0) -> None:
        """Place a triggered event on the queue ``delay`` seconds from now."""
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        entry = (time, priority, seq, event)
        tick = int(time * self._inv_width)
        cur_tick = self._tick
        if tick <= cur_tick:
            heappush(self._cur, entry)
        elif tick - cur_tick < self._nbuckets:
            index = tick & self._mask
            bucket = self._buckets[index]
            if bucket is None:
                self._buckets[index] = [entry]
                heappush(self._occupied, tick)
            else:
                bucket.append(entry)
        else:
            heappush(self._overflow, entry)

    def _migrate(self) -> None:
        """Pull overflow entries whose tick has entered the wheel horizon."""
        overflow = self._overflow
        inv_width = self._inv_width
        horizon = self._tick + self._nbuckets
        cur_tick = self._tick
        while overflow:
            entry = overflow[0]
            tick = int(entry[0] * inv_width)
            if tick >= horizon:
                break
            heappop(overflow)
            if tick <= cur_tick:
                heappush(self._cur, entry)
            else:
                index = tick & self._mask
                bucket = self._buckets[index]
                if bucket is None:
                    self._buckets[index] = [entry]
                    heappush(self._occupied, tick)
                else:
                    bucket.append(entry)

    def _advance(self) -> bool:
        """Move the wheel to the next occupied tick.

        Refills ``_cur`` and returns True, or returns False if the whole
        queue is empty.  Only called when ``_cur`` is drained.
        """
        occupied = self._occupied
        if occupied:
            tick = heappop(occupied)
            index = tick & self._mask
            bucket = self._buckets[index]
            self._buckets[index] = None
            self._tick = tick
            if len(bucket) > 1:
                heapify(bucket)
            self._cur = bucket
            overflow = self._overflow
            if overflow and (int(overflow[0][0] * self._inv_width)
                             < tick + self._nbuckets):
                self._migrate()
            return True
        if self._overflow:
            # Jump straight to the overflow head's tick; _migrate refills
            # _cur (the head itself) and any buckets now inside the horizon.
            self._tick = int(self._overflow[0][0] * self._inv_width)
            self._migrate()
            return True
        return False

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        if self._cur:
            return self._cur[0][0]
        if self._occupied:
            # Earliest entry of the earliest occupied bucket is the global
            # minimum: overflow entries all lie beyond the horizon, hence
            # strictly later.
            return min(self._buckets[self._occupied[0] & self._mask])[0]
        if self._overflow:
            return self._overflow[0][0]
        return _INF

    def _pop(self) -> tuple[float, int, int, Event]:
        """Remove and return the next queue entry (single-step path).

        Raises:
            IndexError: If the queue is empty.
        """
        if not self._cur and not self._advance():
            raise IndexError("pop from an empty event queue")
        return heappop(self._cur)

    def step(self) -> None:
        """Process the single next event.

        Raises:
            IndexError: If the queue is empty.
            SimulationError: If a failed event was never defused (no process
                was waiting on it to observe the exception).
        """
        when, priority, _seq, event = self._pop()
        self._now = when
        self._nevents += 1
        if self._trace is not None:
            self._trace(when, priority, event)

        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            exc = typing.cast(BaseException, event.value)
            raise SimulationError(
                f"unhandled failure in {event!r}: {exc!r}") from exc

    def run(self, until: float | Event | None = None) -> object:
        """Run the simulation.

        Args:
            until: ``None`` runs until the queue drains.  A number runs until
                the clock reaches that time.  An :class:`Event` runs until
                the event fires and returns its value.

        Returns:
            The value of ``until`` if it was an event, else ``None``.
        """
        stop_at = _INF
        if until is None:
            pass
        elif isinstance(until, Event):
            if until.processed:
                if not until.ok:
                    # Already failed elsewhere: surfacing it here is the
                    # report, so a later sweep must not re-raise it as an
                    # unhandled SimulationError too.
                    until.defuse()
                    raise typing.cast(BaseException, until.value)
                return until.value
            until.callbacks.append(_stop_callback)
        else:
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError(
                    f"until={stop_at} is in the past (now={self._now})")

        try:
            if self._trace is not None:
                # Observability path: one step() per event.
                while True:
                    when = self.peek()
                    if when > stop_at or when == _INF:
                        break
                    self.step()
            else:
                self._run_wheel(stop_at)
        except StopSimulation as stop:
            return stop.value

        if isinstance(until, Event):
            if until.triggered:
                # Fired during the final step but callback ordering let the
                # loop drain first; surface its value anyway.
                if not until.ok:
                    until.defuse()
                    raise typing.cast(BaseException, until.value)
                return until.value
            raise SimulationError(
                "run(until=event) exhausted the queue before the event fired")
        if stop_at != _INF:
            # Match SimPy semantics: the clock lands exactly on `until`.
            self._now = stop_at
        return None

    def _run_wheel(self, stop_at: float) -> None:
        """The inlined hot loop (no trace hook installed).

        Locals shadow attribute lookups; the event counter accumulates
        locally and flushes on exit (including via exceptions and
        nested-run unwinds).
        """
        advance = self._advance
        cur = self._cur
        nevents = 0
        try:
            while True:
                if not cur:
                    if not advance():
                        break
                    cur = self._cur
                first = cur[0]
                if first[0] > stop_at:
                    break
                heappop(cur)
                event = first[3]
                self._now = first[0]
                nevents += 1
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    exc = typing.cast(BaseException, event.value)
                    raise SimulationError(
                        f"unhandled failure in {event!r}: {exc!r}") from exc
                # A callback may have re-entered run() and advanced the
                # wheel, swapping _cur out from under the local.
                cur = self._cur
        finally:
            self._nevents += nevents


def _stop_callback(event: Event) -> None:
    """Abort ``run`` with the event's value (installed by run(until=event))."""
    if event.ok:
        raise StopSimulation(event.value)
    event.defuse()
    raise typing.cast(BaseException, event.value)
