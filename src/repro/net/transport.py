"""Request/response transport over multi-hop store-and-forward paths.

:class:`Rpc` gives node logic a call-style API; only a ``call`` costs a
process:

* ``send(msg)`` — one-way delivery into the destination host's inbox,
  hop by hop along the current shortest path (store-and-forward, like an
  HTTP proxy chain — the paper's edge relays requests to the cloud).
  A generator the sender drives inline (``yield from rpc.send(msg)``, as
  it in turn drives ``link.transfer``): it retries a lost hop up to
  ``max_retries`` times and returns ``msg`` or raises :class:`RpcError`.
* ``respond(request, ...)`` — ``send`` of the reply, same form; the
  caller's ``call`` event fires at the moment of delivery.
* ``call(msg, timeout)`` — an event that fires with the peer's response.
  The request travels in one process of its own (it must outlive the
  caller's deadline) which fails the call itself if delivery does.  A
  host's calls start delivering in the order they were made, so the
  order same-instant process starts pop in never reorders its requests
  on a link.

Handlers are plain simulation processes: a server loops on
``rpc.serve(host)`` pulling requests, computes, then
``yield from rpc.respond(...)``.
"""

from __future__ import annotations

import itertools
import typing

from repro.sim.events import Event
from repro.sim.kernel import Environment
from repro.net.link import LinkDown, TransferLost
from repro.net.message import Message
from repro.net.topology import Host, Topology


class RpcError(Exception):
    """The call could not be completed (retries exhausted or link down)."""


class RpcTimeout(RpcError):
    """No response arrived within the caller's deadline."""


class Rpc:
    """Messaging endpoint layer bound to a topology.

    Args:
        env: Simulation environment.
        topology: The network to route over.
        max_retries: Per-hop retransmissions after a loss before giving up.
    """

    def __init__(self, env: Environment, topology: Topology,
                 max_retries: int = 5):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.env = env
        self.topology = topology
        self.max_retries = max_retries
        self._rpc_ids = itertools.count(1)
        self._pending: dict[int, Event] = {}
        #: Per source host with a call not yet started: calls made and
        #: calls whose delivery began, and the event each call
        #: :meth:`_request` holds back waits on.
        self._called: dict[str, int] = {}
        self._started: dict[str, int] = {}
        self._held: dict[tuple[str, int], Event] = {}

    # -- one-way delivery ----------------------------------------------------

    def send(self, msg: Message) -> typing.Generator:
        """Deliver ``msg`` to ``msg.dst``'s inbox, inside the caller's process.

        A generator to be driven with ``yield from``: returns ``msg`` on
        delivery, raises :class:`RpcError`.
        """
        if not msg.src or not msg.dst:
            raise ValueError(f"message needs src and dst: {msg!r}")
        return self._deliver(msg)

    def _deliver(self, msg: Message):
        try:
            links = self.topology.path_links(msg.src, msg.dst)
        except Exception as exc:  # NoRouteError / KeyError
            raise RpcError(f"routing {msg!r}: {exc}") from exc

        for link in links:
            attempt = 0
            while True:
                try:
                    yield from link.transfer(msg)
                    break
                except TransferLost:
                    attempt += 1
                    if attempt > self.max_retries:
                        raise RpcError(
                            f"{msg!r} lost on {link.name} after "
                            f"{self.max_retries} retries")
                    # Immediate retransmit; the queue delay of re-entering
                    # the transmitter models the retransmission cost.
                except LinkDown as exc:
                    raise RpcError(str(exc))

        # A reply to an in-flight call resolves the caller's event directly
        # instead of landing in the host inbox (which belongs to server
        # loops) — mirroring how a TCP connection demultiplexes responses.
        # Replies whose call already expired are dropped, like packets
        # arriving for a closed socket.
        if "in_reply_to" in msg.headers:
            waiter = self._pending.pop(msg.headers.get("rpc_id"), None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(msg)
        else:
            self.topology.host(msg.dst).inbox.put(msg)
        return msg

    # -- request/response ----------------------------------------------------

    def call(self, msg: Message, timeout: float | None = None) -> Event:
        """Send a request and return an event that fires with the response.

        Fails with :class:`RpcTimeout` if ``timeout`` elapses first, or
        :class:`RpcError` on unrecoverable delivery problems.
        """
        rpc_id = next(self._rpc_ids)
        msg.headers["rpc_id"] = rpc_id
        src = msg.src
        ticket = self._called.get(src, 0)
        self._called[src] = ticket + 1
        self.env.process(self._request(rpc_id, src, ticket, self.send(msg)))
        response = self._pending[rpc_id] = self.env.event()
        if timeout is not None:
            # The deadline runs from the moment of the call, like a real
            # RPC budget — request transit time counts against it.
            self.env.timeout(timeout).callbacks.append(
                lambda _expiry: self._give_up(rpc_id, RpcTimeout(
                    f"timed out after {timeout}s")))
        return response

    def _request(self, rpc_id: int, src: str, ticket: int,
                 delivery: typing.Generator):
        # A host's calls leave in call order: its ``ticket``-th call
        # starts delivering (takes its place on the first link) only
        # after every earlier one did, whatever order same-instant
        # process starts pop in.
        if self._started.get(src, 0) != ticket:
            held = self._held[src, ticket] = self.env.event()
            yield held
        started = ticket + 1
        if self._called[src] == started:
            # Every call from src has started: its count starts over.
            del self._called[src]
            self._started.pop(src, None)
        else:
            self._started[src] = started
            held = self._held.pop((src, started), None)
            if held is not None:
                held.succeed()
        try:
            yield from delivery
        except RpcError as exc:
            self._give_up(rpc_id, exc)

    def _give_up(self, rpc_id: int, exc: RpcError) -> None:
        # Looked up, not captured: the expiry timer outlives most calls
        # and must not pin their responses.
        waiter = self._pending.pop(rpc_id, None)
        if waiter is not None and not waiter.triggered:
            waiter.fail(exc)

    def respond(self, request: Message, size_bytes: int,
                payload: typing.Any = None, kind: str = "reply",
                headers: dict | None = None) -> typing.Generator:
        """Send a response for ``request`` back to its source.

        A generator like :meth:`send`; the original caller's ``call``
        event fires at the moment of delivery.  ``headers`` are merged
        into the reply's metadata.
        """
        reply = request.reply(size_bytes=size_bytes, kind=kind, payload=payload)
        if headers:
            reply.headers.update(headers)
        return self.send(reply)

    # -- server side ---------------------------------------------------------

    def serve(self, host: Host) -> Event:
        """Wait for the next message in ``host``'s inbox (server loop step)."""
        return host.inbox.get()
