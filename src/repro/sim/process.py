"""Generator-based simulation processes.

A :class:`Process` drives a Python generator: each ``yield`` hands the
kernel an :class:`~repro.sim.events.Event` to wait on; when that event is
processed the generator resumes with the event's value (or the event's
exception is thrown into it).  Nothing queues for what has already
happened: a yielded event that is already processed (a finished process, a
slot :mod:`~repro.sim.resources` granted on the spot) resumes the generator
inside the same kernel event.  A process is itself an event that fires when
the generator returns, so processes can wait on each other.  Completion is
queued only for someone: a generator that returns with no waiter is marked
processed on the spot (later waiters find it finished), while one that
raises is always queued, so an unobserved crash still aborts the run.

The trampoline is the kernel's hottest callback, so the class is slotted
and caches its bound ``_resume`` plus the generator's ``send``/``throw``
once at creation — at 10^7 hops the per-resume bound-method allocation
was a measurable slice of the profile.
"""

from __future__ import annotations

import typing
from heapq import heappush

from repro.sim.events import _INF, Event, _Wake

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Environment


class ProcessCrashed(RuntimeError):
    """Wraps an exception that escaped a process generator."""


class _Initialize(Event):
    """Immediate event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume_cb)
        env.schedule(self, priority=0)


class Process(Event):
    """A running generator; also an event that fires on generator return.

    The value of the process-event is the generator's return value.  If the
    generator raises, the process-event fails with that exception — waiters
    see it re-raised; if nobody waits, the simulation aborts (errors should
    never pass silently).
    """

    __slots__ = ("_generator", "_resume_cb", "_send", "_throw", "_wake")

    def __init__(self, env: "Environment", generator: typing.Generator):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._resume_cb = self._resume
        self._send = generator.send
        self._throw = generator.throw
        self._wake: _Wake | None = None
        _Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def name(self) -> str:
        """The generator's function name (for diagnostics)."""
        return getattr(self._generator, "__name__", repr(self._generator))

    # -- kernel plumbing -----------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value/exception of ``event``,
        and again for as long as it yields events already processed."""
        while True:
            try:
                if event._ok:
                    target = self._send(event._value)
                else:
                    event._defused = True
                    target = self._throw(
                        typing.cast(BaseException, event._value))
            except StopIteration as stop:
                if self.callbacks:
                    self.succeed(stop.value)
                else:  # nobody waits: processed on the spot, no queue entry
                    self._settle(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - reported via event
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                self.fail(exc)
                return

            cls = target.__class__
            if cls is float or cls is int:
                # Bare-number yield: sleep that many seconds via the
                # process's private reusable wake event (the hottest hop
                # in large runs — no event allocation).
                if not 0 <= target < _INF:  # also catches inf and nan
                    self._crash(f"yielded negative or non-finite delay "
                                f"{target!r}")
                    return
                wake = self._wake
                if wake is None:
                    wake = self._wake = _Wake(self.env, self._resume_cb)
                elif wake.callbacks is None:
                    # The kernel processed the wake (it clears every
                    # event's callbacks as it fires it) — on consecutive
                    # bare-number yields that is this very resume — so
                    # re-arm it before it is queued again.
                    wake.callbacks = [self._resume_cb]
                wake.delay = target
                # Inlined env.schedule(wake, PRIORITY_NORMAL, target): this
                # is the hottest hop in large runs and the call frame is
                # measurable at 10^7 events.  Mirrors Environment.schedule.
                env = self.env
                time = env._now + target
                seq = env._seq
                env._seq = seq + 1
                entry = (time, 1, seq, wake)
                tick = int(time * env._inv_width)
                cur_tick = env._tick
                if tick <= cur_tick:
                    heappush(env._cur, entry)
                elif tick - cur_tick < env._nbuckets:
                    index = tick & env._mask
                    bucket = env._buckets[index]
                    if bucket is None:
                        env._buckets[index] = [entry]
                        heappush(env._occupied, tick)
                    else:
                        bucket.append(entry)
                else:
                    heappush(env._overflow, entry)
                return

            if not isinstance(target, Event):
                self._crash(f"yielded non-event {target!r}")
                return
            if target.env is not self.env:
                self._crash("yielded an event from a foreign environment")
                return

            if target.callbacks is not None:
                target.callbacks.append(self._resume_cb)
                return
            # Already processed: its outcome is known, so the generator
            # continues inside this kernel event instead of queueing for it.
            event = target

    def _crash(self, what: str) -> None:
        """Close the generator and fail the process with ``what``."""
        self._generator.close()
        self.fail(ProcessCrashed(f"process {self.name!r} {what}"))

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name} {state} at {id(self):#x}>"
