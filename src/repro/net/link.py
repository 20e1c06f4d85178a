"""Directed network links with bandwidth, delay, jitter and loss.

A :class:`Link` models one direction of a channel the way a real NIC +
cable behaves: messages wait in a FIFO transmit queue, each occupies the
transmitter for ``size_bits / rate`` seconds (serialization), then spends
``propagation + jitter`` seconds in flight.  Several messages can be in
flight simultaneously (pipelining), but only one serializes at a time.
A hop costs no process: :meth:`Link.transfer` is a generator the sending
process runs inline, so a message is one process however long its path.

Propagation, jitter and loss are fixed at construction.  The rate is
mutable at runtime, as ``tc`` reshapes the paper's backhaul: a scenario's
diurnal background load re-sets it with :meth:`Link.set_bandwidth`.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.sim.kernel import Environment
from repro.sim.resources import Resource

if typing.TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.net.message import Message


class TransferLost(Exception):
    """The message was dropped by the link's loss process."""

    def __init__(self, message: "Message"):
        super().__init__(f"{message!r} lost in transit")
        self.message = message


class LinkDown(Exception):
    """The link was administratively disabled mid-transfer."""


@dataclasses.dataclass(slots=True)
class LinkStats:
    """Counters accumulated over a link's lifetime."""

    messages_sent: int = 0
    messages_lost: int = 0
    bytes_sent: int = 0


def _check_bandwidth(bandwidth_bps: float) -> None:
    if not 0 < bandwidth_bps < math.inf:
        raise ValueError(
            f"bandwidth_bps must be finite and > 0, got {bandwidth_bps}")


class Link:
    """One direction of a point-to-point channel.

    Args:
        env: Simulation environment.
        name: Diagnostic name, e.g. ``"mobile->edge"``.
        bandwidth_bps: Transmit rate in bits/second.
        propagation_s: One-way propagation delay in seconds.
        jitter_s: Std-dev of Gaussian jitter added to propagation (>= 0).
        loss_rate: Probability a message is dropped (0..1).
        rng: Random generator for jitter/loss draws (required if either
            ``jitter_s`` > 0 or ``loss_rate`` > 0).

    Slotted, like its stats and its transmitter: a city builds a link
    per client and direction, and most of them idle.
    """

    __slots__ = ("env", "name", "bandwidth_bps", "propagation_s",
                 "jitter_s", "loss_rate", "up", "stats", "_rng",
                 "_transmitter")

    def __init__(self, env: Environment, name: str, bandwidth_bps: float,
                 propagation_s: float = 0.0, jitter_s: float = 0.0,
                 loss_rate: float = 0.0,
                 rng: "np.random.Generator | None" = None):
        _check_bandwidth(bandwidth_bps)
        # ``0 <= x < inf`` is False for NaN too.
        if not 0 <= propagation_s < math.inf:
            raise ValueError(
                f"propagation_s must be finite and >= 0, got {propagation_s}")
        if not 0 <= jitter_s < math.inf:
            raise ValueError(
                f"jitter_s must be finite and >= 0, got {jitter_s}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if (jitter_s > 0 or loss_rate > 0) and rng is None:
            raise ValueError("jitter/loss require an rng")
        self.env = env
        self.name = name
        self.bandwidth_bps = float(bandwidth_bps)
        self.propagation_s = float(propagation_s)
        self.jitter_s = float(jitter_s)
        self.loss_rate = float(loss_rate)
        self.up = True
        self.stats = LinkStats()
        self._rng = rng
        self._transmitter = Resource(env, capacity=1)

    # -- configuration -------------------------------------------------------

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        """Change the transmit rate; affects transfers that start later."""
        _check_bandwidth(bandwidth_bps)
        self.bandwidth_bps = float(bandwidth_bps)
        self._changed()

    def set_up(self, up: bool) -> None:
        """Administratively enable/disable the link."""
        self.up = bool(up)
        self._changed()

    def _changed(self) -> None:
        """Routing-relevant state (rate, admin status) changed.

        A standalone link has no one to tell; a topology's links
        override this to drop cached routes.
        """

    # -- timing model --------------------------------------------------------

    def serialization_delay(self, size_bytes: int) -> float:
        """Seconds to clock ``size_bytes`` onto the wire at the current rate."""
        return (size_bytes * 8) / self.bandwidth_bps

    def one_way_delay(self, size_bytes: int) -> float:
        """Deterministic transfer time ignoring queueing, jitter and loss."""
        return self.serialization_delay(size_bytes) + self.propagation_s

    # -- transfer ------------------------------------------------------------

    def transfer(self, message: "Message") -> typing.Generator:
        """Carry ``message`` across the link, inside the caller's process.

        A generator to be driven with ``yield from``: returns the message
        on delivery, raises :class:`TransferLost` / :class:`LinkDown`.
        """
        if not self.up:
            raise LinkDown(f"link {self.name} is down")
        req = self._transmitter.request()
        yield req
        try:
            if not self.up:
                raise LinkDown(f"link {self.name} is down")
            tx_time = self.serialization_delay(message.size_bytes)
            # Bare-number yield: allocation-free per-hop delay (these
            # dominate city-scale runs).
            yield tx_time
        finally:
            self._transmitter.release(req)

        # Loss is decided once the tail leaves the transmitter (tail drop on
        # the far side would look identical to the sender).
        if self.loss_rate > 0 and self._rng.random() < self.loss_rate:
            self.stats.messages_lost += 1
            raise TransferLost(message)

        flight = self.propagation_s
        if self.jitter_s > 0:
            flight += abs(float(self._rng.normal(0.0, self.jitter_s)))
        yield flight

        self.stats.messages_sent += 1
        self.stats.bytes_sent += message.size_bytes
        return message

    def __repr__(self) -> str:
        return (f"Link({self.name!r}, {self.bandwidth_bps / 1e6:.1f} Mbps, "
                f"{self.propagation_s * 1e3:.2f} ms)")
