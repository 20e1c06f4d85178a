"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence that processes can wait on.
Events move through three states: *pending* (created, not yet scheduled),
*triggered* (scheduled on the event queue with a value), and *processed*
(callbacks have run).  Events may succeed with a value or fail with an
exception; a failed event re-raises its exception inside every waiting
process, which mirrors how a failed RPC surfaces at its call site.

Performance notes (the city-scale kernel pass):

* every event class is ``__slots__``-ed — at 10^7 events the per-instance
  ``__dict__`` was the single largest allocation cost;
* :class:`Timeout` initializes its fields inline (no ``super()`` chain)
  and hands itself straight to the environment's scheduling primitive;
* a bare-number ``yield`` allocates no event: each process reschedules
  its own private :class:`_Wake` event.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Environment

# Sentinel distinguishing "not yet triggered" from "triggered with None".
_PENDING = object()
_INF = float("inf")


class EventAlreadyTriggered(RuntimeError):
    """Raised when succeed()/fail() is called on a non-pending event."""


class Event:
    """A one-shot occurrence that processes can wait on.

    Attributes:
        env: The environment this event belongs to.
        callbacks: Functions invoked with the event once it is processed.
            ``None`` after processing (appending then is an error).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list | None = []
        self._value: object = _PENDING
        self._ok: bool | None = None
        # Failed events whose exception is never observed by a waiter
        # should crash the simulation rather than pass silently.
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise RuntimeError("event value is not yet available")
        return self._ok

    @property
    def value(self) -> object:
        """The event's value (or exception instance if it failed)."""
        if self._value is _PENDING:
            raise RuntimeError("event value is not yet available")
        return self._value

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised in every process waiting on this event.
        """
        if not isinstance(exception, BaseException):
            raise ValueError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def _settle(self, value: object = None) -> "Event":
        """Succeed with no queue entry: for an event nothing waits on yet."""
        self._ok = True
        self._value = value
        self.callbacks = None
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it won't crash the run."""
        self._defused = True

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: object = None):
        if not 0 <= delay < _INF:  # also rejects inf and nan
            raise ValueError(f"negative or non-finite delay {delay!r}")
        # Inlined Event.__init__ + immediate trigger: a Timeout is born
        # triggered-ok, so it skips the generic succeed() machinery and
        # goes straight onto the queue.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env.schedule(self, delay=delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class _Wake(Timeout):
    """A process's private, reusable wakeup event for bare-number yields.

    Each :class:`~repro.sim.process.Process` lazily owns one; when the
    generator yields a plain ``float``/``int`` delay the trampoline
    reschedules this single event instead of allocating a fresh timeout.
    Its callback list holds just the process resume; firing clears it
    like any event's, and the process re-arms it on its next bare-number
    yield.
    """

    __slots__ = ()

    def __init__(self, env: "Environment",
                 resume: typing.Callable[[Event], None]):
        # Born idle: triggered-ok but unscheduled until the first yield.
        self.env = env
        self.callbacks = [resume]
        self._value = None
        self._ok = True
        self._defused = False
        self.delay = 0.0

    def __repr__(self) -> str:
        return f"<_Wake delay={self.delay} at {id(self):#x}>"
