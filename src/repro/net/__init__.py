"""Network substrate: links, topology and transport.

This package replaces the paper's physical testbed network (802.11ac WiFi
between phone and edge, a `tc`-shaped wired path between edge and cloud)
with a simulated equivalent:

* :class:`~repro.net.link.Link` — a directed channel with bandwidth,
  propagation delay, optional jitter and random loss; messages are
  serialized FIFO exactly like a NIC transmit queue.  Its rate can be
  re-set mid-run, as ``tc`` reshapes a backhaul.
* :class:`~repro.net.topology.Topology` — sites joined by links, with
  clients attached as leaves, and latency-weighted shortest-path
  routing.
* :class:`~repro.net.transport.Rpc` — request/response messaging over a
  multi-hop store-and-forward path, with timeouts and retries.

A deployment wires its WiFi and LTE access links from
:class:`~repro.core.config.NetworkConfig` directly.
"""

from repro.net.link import Link, LinkDown, TransferLost
from repro.net.message import Message
from repro.net.topology import NoRouteError, Topology
from repro.net.transport import Rpc, RpcError, RpcTimeout

__all__ = [
    "Link",
    "LinkDown",
    "Message",
    "NoRouteError",
    "Rpc",
    "RpcError",
    "RpcTimeout",
    "Topology",
    "TransferLost",
]
