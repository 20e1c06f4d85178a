"""Sites, leaves, links and latency-weighted routing.

A :class:`Topology` is the wiring harness of an experiment, in two
tiers.  *Sites* (edges, the cloud) are named :class:`Host` endpoints
joined by directed :class:`~repro.net.link.Link` objects; they carry
routes.  A *leaf* (a phone) hangs off one site, or two while it hands
off, by an access pair (:meth:`Topology.attach`) and is never a route's
interior hop.  Routing uses Dijkstra over per-link nominal latency for a
reference payload, so multi-hop paths (mobile -> edge -> cloud) need no
manual route tables; site-to-site routes are cached, and a leaf's own
churn never touches that cache.
"""

from __future__ import annotations

import functools
import heapq
import typing

from repro.sim.kernel import Environment
from repro.sim.resources import Store
from repro.net.link import Link

if typing.TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class NoRouteError(Exception):
    """No path exists between the requested hosts."""


class Host:
    """A network endpoint with an inbox.

    Node logic (edge/cloud server loops) consumes from ``inbox``; the
    transport deposits delivered one-way messages there.  The inbox is
    built on first access — a server's first ``serve`` or a message's
    first ``put`` — so a client, whose replies resolve its pending calls
    and never touch the inbox, carries none.
    """

    def __init__(self, env: Environment, name: str):
        self.env = env
        self.name = name

    @functools.cached_property
    def inbox(self) -> Store:
        return Store(self.env)

    def __repr__(self) -> str:
        return f"Host({self.name!r})"


class Leaf(Host):
    """A client-side host: routes start or end here, never pass through.

    ``attachments`` maps each site the leaf hangs off to its access pair
    ``(up, down)``: leaf->site and site->leaf.
    """

    def __init__(self, env: Environment, name: str):
        super().__init__(env, name)
        self.attachments: dict[str, tuple[Link, Link]] = {}


def _home(leaf: Leaf, side: int) -> str | None:
    """The site of ``leaf``'s one up uplink (``side`` 0) or downlink
    (``side`` 1); None when it has none up or several."""
    home = None
    for site, pair in leaf.attachments.items():
        if pair[side].up:
            if home is not None:
                return None
            home = site
    return home


class _RoutedLink(Link):
    """A site link: a change to it drops the cached site routes.

    ``remove_link`` unhooks it, so a stale handle changes nothing.
    """

    __slots__ = ("_topology",)

    def __init__(self, topology: Topology, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._topology: Topology | None = topology

    def _changed(self) -> None:
        if self._topology is not None:
            self._topology._routes.clear()


class Topology:
    """A mutable graph of sites and site links, with leaves attached."""

    #: Payload size used to weigh edges for routing (bytes).  Small, so
    #: routing prefers low-latency paths rather than high-bandwidth ones,
    #: like an IGP metric.
    ROUTE_PROBE_BYTES = 1500

    def __init__(self, env: Environment):
        self.env = env
        #: Sites by name.
        self.hosts: dict[str, Host] = {}
        #: Leaves by name.
        self.leaves: dict[str, Leaf] = {}
        # adjacency over sites: src name -> dst name -> Link, up or down
        self._adj: dict[str, dict[str, Link]] = {}
        # (src site, dst site) -> site names along the current shortest
        # path.  A change to any site link (added, removed, set up or
        # down, re-weighted) clears it; nothing a leaf does can.
        self._routes: dict[tuple[str, str], list[str]] = {}

    # -- construction --------------------------------------------------------

    def add_host(self, name: str) -> Host:
        """Create (or return the existing) site called ``name``.

        Raises:
            ValueError: If ``name`` is a leaf.
        """
        if name in self.leaves:
            raise ValueError(f"{name!r} is a leaf, not a site")
        host = self.hosts.get(name)
        if host is None:
            host = self.hosts[name] = Host(self.env, name)
            self._adj[name] = {}
        return host

    def add_link(self, src: str, dst: str, bandwidth_bps: float,
                 propagation_s: float = 0.0, jitter_s: float = 0.0,
                 loss_rate: float = 0.0,
                 rng: "np.random.Generator | None" = None) -> Link:
        """Add a directed site link; sites are created as needed.

        Raises:
            ValueError: On a self-link, a leaf end (use ``attach``), or if
                src->dst already exists — re-enable that link with
                ``set_up`` instead.
        """
        if src == dst:
            raise ValueError(f"self-link on {src!r}")
        if dst in self._adj.get(src, ()):
            raise ValueError(f"link {src}->{dst} already exists")
        self.add_host(src)
        self.add_host(dst)
        link = _RoutedLink(self, self.env, f"{src}->{dst}", bandwidth_bps,
                           propagation_s=propagation_s, jitter_s=jitter_s,
                           loss_rate=loss_rate, rng=rng)
        self._adj[src][dst] = link
        self._routes.clear()
        return link

    def remove_link(self, src: str, dst: str) -> Link:
        """Delete the site link src->dst, the inverse of ``add_link``.

        The link goes down first, so the route cache clears as on
        ``set_up(False)``; then it leaves the site map and is unhooked,
        so a stale reference can never reach the cache again.  The pair
        may be added again afresh.

        Raises:
            KeyError: If src->dst is not a site link.
        """
        link = self._adj[src][dst]
        link.set_up(False)
        link._topology = None
        del self._adj[src][dst]
        return link

    def add_duplex(self, a: str, b: str, bandwidth_bps: float,
                   propagation_s: float = 0.0, jitter_s: float = 0.0,
                   loss_rate: float = 0.0,
                   rng: "np.random.Generator | None" = None,
                   ) -> tuple[Link, Link]:
        """Add a symmetric pair of site links and return (a->b, b->a)."""
        if a in self._adj.get(b, ()):
            raise ValueError(f"link {b}->{a} already exists")
        forward = self.add_link(a, b, bandwidth_bps, propagation_s,
                                jitter_s, loss_rate, rng)
        backward = self.add_link(b, a, bandwidth_bps, propagation_s,
                                 jitter_s, loss_rate, rng)
        return forward, backward

    def attach(self, leaf: str, site: str, uplink_bps: float,
               downlink_bps: float, propagation_s: float = 0.0,
               jitter_s: float = 0.0, loss_rate: float = 0.0,
               rng: "np.random.Generator | None" = None,
               ) -> tuple[Link, Link]:
        """Hang ``leaf`` off ``site`` by an access pair; return (up, down).

        The leaf and the site are created as needed.  Both links share
        the delay, impairments and draw stream; the rates may differ
        (an LTE pair's uplink is slower than its downlink).

        Raises:
            ValueError: If ``leaf`` is a site, ``site`` is a leaf, or the
                leaf is already attached there.
        """
        if leaf in self.hosts:
            raise ValueError(f"{leaf!r} is a site, not a leaf")
        held = self.leaves.get(leaf)
        if held is not None and site in held.attachments:
            raise ValueError(f"{leaf!r} is already attached to {site!r}")
        self.add_host(site)
        pair = (Link(self.env, f"{leaf}->{site}", uplink_bps,
                     propagation_s=propagation_s, jitter_s=jitter_s,
                     loss_rate=loss_rate, rng=rng),
                Link(self.env, f"{site}->{leaf}", downlink_bps,
                     propagation_s=propagation_s, jitter_s=jitter_s,
                     loss_rate=loss_rate, rng=rng))
        if held is None:
            held = self.leaves[leaf] = Leaf(self.env, leaf)
        held.attachments[site] = pair
        return pair

    def detach(self, leaf: str, site: str) -> tuple[Link, Link]:
        """Take ``leaf``'s access pair at ``site`` down and forget it.

        Transfers still queued on the pair fail with ``LinkDown``; the
        handles are inert afterwards.  The leaf stays a leaf.

        Raises:
            KeyError: If the leaf is not attached to ``site``.
        """
        pair = self.leaves[leaf].attachments.pop(site)
        for link in pair:
            link.set_up(False)
        return pair

    # -- lookup --------------------------------------------------------------

    def host(self, name: str) -> Host:
        """The site or leaf called ``name``, or KeyError."""
        host = self.hosts.get(name)
        return host if host is not None else self.leaves[name]

    def link(self, src: str, dst: str) -> Link:
        """The directed link src->dst, site or access, or KeyError."""
        leaf = self.leaves.get(src)
        if leaf is not None:
            return leaf.attachments[dst][0]
        leaf = self.leaves.get(dst)
        if leaf is not None:
            return leaf.attachments[src][1]
        return self._adj[src][dst]

    def links(self) -> list[Link]:
        """All directed links in the topology, site links first."""
        return ([l for nbrs in self._adj.values() for l in nbrs.values()]
                + [l for leaf in self.leaves.values()
                   for pair in leaf.attachments.values() for l in pair])

    def neighbors(self, name: str) -> list[str]:
        """Hosts reachable from ``name`` in one hop over *up* links."""
        leaf = self.leaves.get(name)
        if leaf is not None:
            return [site for site, (up, _) in leaf.attachments.items()
                    if up.up]
        return ([dst for dst, link in self._adj.get(name, {}).items()
                 if link.up]
                + [leaf.name for leaf in self.leaves.values()
                   if name in leaf.attachments
                   and leaf.attachments[name][1].up])

    # -- routing -------------------------------------------------------------

    def shortest_path(self, src: str, dst: str) -> list[str]:
        """Host names along the minimum-latency path, inclusive of endpoints.

        A single-homed leaf end is its one access hop plus the cached
        site route from (or to) its site.  A dual-homed leaf end is
        routed by a fresh Dijkstra that starts on (or ends through) its
        up access links; leaves are never interior hops.

        Raises:
            NoRouteError: If dst is unreachable from src over up links.
            KeyError: If either host does not exist.
        """
        route = self._routes.get((src, dst))
        if route is not None:
            return route.copy()
        first = self.leaves.get(src)
        last = self.leaves.get(dst)
        if first is None and src not in self.hosts:
            raise KeyError(f"unknown host {src!r}")
        if last is None and dst not in self.hosts:
            raise KeyError(f"unknown host {dst!r}")
        if src == dst:
            return [src]
        head = tail = None
        if first is not None and (home := _home(first, 0)) is not None:
            head, src, first = src, home, None
        if last is not None and (home := _home(last, 1)) is not None:
            tail, dst, last = dst, home, None
        if first is not None or last is not None:
            path = self._dijkstra(src, dst, first, last)
        elif src == dst:
            path = [src]
        else:
            path = self._routes.get((src, dst))
            if path is None:
                path = self._routes[src, dst] = self._dijkstra(src, dst)
            path = path.copy()
        if head is not None:
            path.insert(0, head)
        if tail is not None:
            path.append(tail)
        return path

    def _dijkstra(self, src: str, dst: str, first: Leaf | None = None,
                  last: Leaf | None = None) -> list[str]:
        """Minimum-latency path by Dijkstra over up site links.

        A leaf ``src`` (``first``) expands to its up uplinks; a leaf
        ``dst`` (``last``) is relaxed from each expanded site that holds
        one of its up downlinks.  No other leaf is ever reached.
        """
        adj = self._adj
        probe_bits = self.ROUTE_PROBE_BYTES * 8
        inf = float("inf")
        dist: dict[str, float] = {src: 0.0}
        prev: dict[str, str] = {}
        frontier: list[tuple[float, str]] = [(0.0, src)]
        visited: set[str] = set()
        while frontier:
            d, here = heapq.heappop(frontier)
            if here in visited:
                continue
            if here == dst:
                break
            visited.add(here)
            hops = adj.get(here)
            if hops is None:  # the leaf src
                hops = {site: up for site, (up, _)
                        in first.attachments.items()}
            if last is not None and here in last.attachments:
                hops = {**hops, dst: last.attachments[here][1]}
            for nxt, link in hops.items():
                if not link.up:
                    continue
                nd = d + (probe_bits / link.bandwidth_bps
                          + link.propagation_s)
                if nd < dist.get(nxt, inf):
                    dist[nxt] = nd
                    prev[nxt] = here
                    heapq.heappush(frontier, (nd, nxt))
        if dst not in dist:
            raise NoRouteError(f"no route {src} -> {dst}")

        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    def path_links(self, src: str, dst: str) -> list[Link]:
        """The links along the shortest path src -> dst, in order."""
        names = self.shortest_path(src, dst)
        adj = self._adj
        # A loop, not a comprehension: cheaper for a route's 1-3 hops.
        links = []
        for a, b in zip(names, names[1:]):
            if a in adj and b in adj:
                links.append(adj[a][b])
            else:
                links.append(self.link(a, b))
        return links

    def nominal_latency(self, src: str, dst: str, size_bytes: int) -> float:
        """Deterministic one-way latency for a payload over the best path.

        Ignores queueing, jitter and loss — a planning estimate, not a
        measurement.
        """
        return sum(link.one_way_delay(size_bytes)
                   for link in self.path_links(src, dst))

    def __repr__(self) -> str:
        return (f"Topology({len(self.hosts)} sites, {len(self.leaves)} "
                f"leaves, {len(self.links())} links)")
