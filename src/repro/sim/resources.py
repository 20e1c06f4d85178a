"""Shared-resource primitives built on the event kernel.

These model contention: a :class:`Resource` is a semaphore with a FIFO wait
queue (e.g. a GPU that renders one frame at a time, a NIC transmitter), and
a :class:`Store` is an unbounded producer/consumer buffer (a host's inbox).

A resource slot is held like this::

    req = resource.request()
    yield req
    try:
        ...  # hold the resource
    finally:
        resource.release(req)

What is free is granted on the spot: ``request()`` with a free slot returns
an event that is already processed, so the ``yield`` costs no kernel event;
a contended request queues, FIFO, as ever.  ``Store.put`` is a plain call.
``Store.get`` always wakes its consumer through the queue (see
``docs/scenario_spec.md``, "Same-instant ordering").
"""

from __future__ import annotations

import typing
from collections import deque

from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Slotted: one request is allocated per worker/transmitter hop, which at
    city scale makes this the most-instantiated event after timeouts.
    """

    __slots__ = ()


class Resource:
    """A semaphore with ``capacity`` slots and a FIFO wait queue.

    Slotted and lean, because most resources sit idle: a city builds one
    transmitter per link direction, and nearly all of them belong to
    client access links that rarely carry two messages at once.  The
    holders live in a list (a holder count is at most ``capacity``),
    and the wait queue is built on the first contention.
    """

    __slots__ = ("env", "capacity", "_users", "_waiters")

    def __init__(self, env: "Environment", capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: list[Request] = []
        self._waiters: deque[Request] | None = None

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters) if self._waiters else 0

    def request(self) -> Request:
        """Claim a slot; the returned event fires when the slot is granted
        (a free slot on the spot: the event is born processed)."""
        req = Request(self.env)
        if len(self._users) < self.capacity:
            self._users.append(req)
            return req._settle()
        if self._waiters is None:
            self._waiters = deque()
        self._waiters.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot and wake the next waiter."""
        if request in self._users:
            self._users.remove(request)
        elif self._waiters and request in self._waiters:
            # Cancelling a queued request is allowed (e.g. timeout races).
            self._waiters.remove(request)
            return
        else:
            raise ValueError("release() of a request not held or queued")
        while self._waiters:
            nxt = self._waiters.popleft()
            if nxt.triggered:  # already cancelled via fail elsewhere
                continue
            self._users.append(nxt)
            nxt.succeed()
            break


class Store:
    """An unbounded FIFO buffer of Python objects (a host's inbox)."""

    def __init__(self, env: "Environment"):
        self.env = env
        self._items: deque = deque()
        self._getters: deque[Event] = deque()

    @property
    def items(self) -> list:
        """Snapshot of buffered items (oldest first)."""
        return list(self._items)

    def put(self, item: object) -> None:
        """Insert ``item`` now: there is always room, so nothing waits."""
        if self._getters:
            # Hand the item directly to the oldest waiting consumer.
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Remove the oldest item; the event fires with it when available."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event
