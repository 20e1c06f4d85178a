"""Shared-resource primitives built on the event kernel.

These model contention: a :class:`Resource` is a semaphore with a FIFO wait
queue (e.g. a GPU that renders one frame at a time), a
:class:`PriorityResource` lets urgent requests jump the queue, a
:class:`Store` is a producer/consumer buffer (e.g. a NIC transmit queue),
and a :class:`Container` holds continuous quantity (e.g. battery energy).

All follow the same usage pattern::

    req = resource.request()
    yield req
    try:
        ...  # hold the resource
    finally:
        resource.release(req)

What is free is granted on the spot: ``request()`` with a free slot and
``Store.put`` with room return an event that is already processed, so the
``yield`` costs no kernel event; a contended request or a full store
queues, FIFO, as ever.  ``Store.get`` always wakes its consumer through
the queue (see ``docs/scenario_spec.md``, "Same-instant ordering").
"""

from __future__ import annotations

import heapq
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
    """A semaphore with ``capacity`` slots and a FIFO wait queue."""

    def __init__(self, env: "Environment", capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: set[Request] = set()
        self._waiters: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when the slot is granted
        (a free slot on the spot: the event is born processed)."""
        req = Request(self.env)
        if len(self._users) < self.capacity:
            self._users.add(req)
            return req._settle()
        self._waiters.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot and wake the next waiter."""
        if request in self._users:
            self._users.remove(request)
        elif request in self._waiters:
            # Cancelling a queued request is allowed (e.g. timeout races).
            self._waiters.remove(request)
            return
        else:
            raise ValueError("release() of a request not held or queued")
        while self._waiters:
            nxt = self._waiters.popleft()
            if nxt.triggered:  # already cancelled via fail elsewhere
                continue
            self._users.add(nxt)
            nxt.succeed()
            break


class PriorityRequest(Request):
    """A claim with a priority; lower values are served first."""

    __slots__ = ("priority", "_key")

    def __init__(self, env: "Environment", priority: int, seq: int):
        super().__init__(env)
        self.priority = priority
        self._key = (priority, seq)

    def __lt__(self, other: "PriorityRequest") -> bool:
        return self._key < other._key


class PriorityResource(Resource):
    """A :class:`Resource` whose waiters are served in priority order."""

    def __init__(self, env: "Environment", capacity: int = 1):
        super().__init__(env, capacity)
        self._heap: list[PriorityRequest] = []
        self._seq = 0

    def request(self, priority: int = 0) -> PriorityRequest:  # type: ignore[override]
        req = PriorityRequest(self.env, priority, self._seq)
        self._seq += 1
        if len(self._users) < self.capacity:
            self._users.add(req)
            return req._settle()
        heapq.heappush(self._heap, req)
        return req

    @property
    def queue_length(self) -> int:
        return len(self._heap)

    def release(self, request: Request) -> None:
        if request in self._users:
            self._users.remove(request)
        else:
            # Lazy-cancel: mark and skip when popped.
            try:
                self._heap.remove(typing.cast(PriorityRequest, request))
                heapq.heapify(self._heap)
            except ValueError:
                raise ValueError("release() of a request not held or queued")
            return
        while self._heap:
            nxt = heapq.heappop(self._heap)
            if nxt.triggered:
                continue
            self._users.add(nxt)
            nxt.succeed()
            break


class Store:
    """An unbounded-or-bounded FIFO buffer of Python objects."""

    def __init__(self, env: "Environment", capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._items: deque = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, object]] = deque()

    @property
    def items(self) -> list:
        """Snapshot of buffered items (oldest first)."""
        return list(self._items)

    def put(self, item: object) -> Event:
        """Insert ``item``; the event fires once there is room (born
        processed when there is, or a consumer waits)."""
        event = Event(self.env)
        if self._getters:
            # Hand the item directly to the oldest waiting consumer.
            self._getters.popleft().succeed(item)
        elif len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._putters.append((event, item))
            return event
        return event._settle()

    def get(self) -> Event:
        """Remove the oldest item; the event fires with it when available."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
            if self._putters:
                put_event, item = self._putters.popleft()
                self._items.append(item)
                put_event.succeed()
        else:
            self._getters.append(event)
        return event


class Container:
    """A reservoir of continuous quantity (fluid semantics).

    ``get`` blocks until the requested amount is available; ``put`` blocks
    until there is headroom below ``capacity``.
    """

    def __init__(self, env: "Environment", capacity: float = float("inf"),
                 init: float = 0.0):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not 0 <= init <= capacity:
            raise ValueError(f"init={init} outside [0, {capacity}]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._getters: deque[tuple[Event, float]] = deque()
        self._putters: deque[tuple[Event, float]] = deque()

    @property
    def level(self) -> float:
        """Current stored amount."""
        return self._level

    def put(self, amount: float) -> Event:
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        event = Event(self.env)
        self._putters.append((event, amount))
        self._settle()
        return event

    def get(self, amount: float) -> Event:
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        event = Event(self.env)
        self._getters.append((event, amount))
        self._settle()
        return event

    def _settle(self) -> None:
        """Satisfy queued puts/gets in FIFO order while progress is possible."""
        progress = True
        while progress:
            progress = False
            if self._putters:
                event, amount = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.popleft()
                    self._level += amount
                    event.succeed()
                    progress = True
            if self._getters:
                event, amount = self._getters[0]
                if amount <= self._level:
                    self._getters.popleft()
                    self._level -= amount
                    event.succeed(amount)
                    progress = True
