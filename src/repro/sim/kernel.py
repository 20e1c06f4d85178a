"""The discrete-event simulation environment.

:class:`Environment` owns the simulated clock and the event queue.  Two
queue disciplines are available:

* ``queue="wheel"`` (default) — a bucketed calendar queue: events within a
  sliding horizon land in per-tick buckets (plain list appends), a small
  int-heap tracks which ticks are occupied, the current tick is drained
  through its own tiny heap, and far-future events wait in an overflow
  heap until their tick slides into the horizon.  This replaces the
  deep-heap ``heappop`` sift-down (the dominant queue cost at 10^4+
  pending timers) with shallow pops and O(1) bucket appends.
* ``queue="heap"`` — the original single binary heap.  Kept as the
  reference discipline; the property suite asserts both pop in identical
  order.

Queue entries are ``(time, priority, seq, event)`` tuples in both modes,
so ordering semantics (time, then priority, then FIFO sequence) are
byte-identical: the tick index is a monotone function of time, any two
entries that could ever be compared meet in the same heap, and they
compare by the same tuple.

``run()`` is a single inlined hot loop — the former ``peek()``/``step()``
pair survives for tests, single-stepping, and as the slow path that heap
mode and traced runs share.  An opt-in trace hook
(:meth:`Environment.set_trace`) restores per-event observability when
profiling.
"""

from __future__ import annotations

import typing
from heapq import heapify, heappop, heappush

from repro.sim.events import Event, Timeout, _Wake
from repro.sim.process import Process

#: Default priority for scheduled events.  Lower sorts first.
PRIORITY_NORMAL = 1
#: Priority used by the kernel for urgent bookkeeping (e.g. interrupts).
PRIORITY_URGENT = 0

_INF = float("inf")


class SimulationError(RuntimeError):
    """An unhandled failure escaped a process and aborted the run."""


class StopSimulation(Exception):
    """Raised internally to halt ``run(until=event)`` when ``event`` fires."""

    def __init__(self, value: object):
        super().__init__(value)
        self.value = value


class Environment:
    """Simulation environment: clock + event queue + process factory.

    Args:
        initial_time: Starting value of the simulated clock (seconds).
        queue: Queue discipline — ``"wheel"`` (bucketed calendar queue,
            default) or ``"heap"`` (single binary heap, the reference).
        bucket_s: Wheel bucket width in seconds.  Delays shorter than
            the horizon ``bucket_s * n_buckets`` (~82 s at the defaults)
            enqueue in O(1); longer delays fall back to the overflow heap
            and migrate in when due.  Size the horizon to cover the bulk
            of your delays — overflow traffic is handled twice.
        n_buckets: Number of wheel buckets (power of two).
    """

    __slots__ = (
        "_now", "_seq", "_heap_mode", "_queue", "_cur", "_buckets",
        "_occupied", "_nbuckets", "_mask", "_tick", "_inv_width",
        "_overflow", "_nevents", "_trace",
    )

    def __init__(self, initial_time: float = 0.0, *, queue: str = "wheel",
                 bucket_s: float = 1e-2, n_buckets: int = 8192):
        if queue not in ("wheel", "heap"):
            raise ValueError(f"unknown queue discipline {queue!r}")
        if initial_time < 0:
            raise ValueError(f"negative initial_time {initial_time!r}")
        if bucket_s <= 0:
            raise ValueError(f"bucket_s must be positive, got {bucket_s!r}")
        if n_buckets < 2 or n_buckets & (n_buckets - 1):
            raise ValueError(
                f"n_buckets must be a power of two >= 2, got {n_buckets!r}")
        self._now = float(initial_time)
        self._seq = 0  # FIFO tie-break for same-time, same-priority events
        self._heap_mode = queue == "heap"
        self._queue: list[tuple[float, int, int, Event]] = []
        # Wheel state (unused but cheap in heap mode).  Invariants:
        # _cur holds exactly the entries with tick == _tick; each bucket
        # holds entries of exactly one tick (ticks within the horizon are
        # unique modulo n_buckets); _occupied is a heap of the non-empty
        # bucket ticks; _overflow holds ticks >= _tick + n_buckets.
        self._cur: list[tuple[float, int, int, Event]] = []
        self._buckets: list[list | None] = [None] * n_buckets
        self._occupied: list[int] = []
        self._nbuckets = n_buckets
        self._mask = n_buckets - 1
        self._inv_width = 1.0 / bucket_s
        self._tick = int(self._now * self._inv_width)
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
        if self._heap_mode:
            heappush(self._queue, entry)
            return
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
        if self._heap_mode:
            return self._queue[0][0] if self._queue else _INF
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
        if self._heap_mode:
            return heappop(self._queue)
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
            if self._heap_mode or self._trace is not None:
                # Reference / observability path: one step() per event.
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
        """The inlined hot loop (wheel mode, no trace hook installed).

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
                if event.__class__ is _Wake:
                    # Restore the permanent resume callback for the next
                    # bare-number yield of the owning process.
                    event.callbacks = callbacks
                elif not event._ok and not event._defused:
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
