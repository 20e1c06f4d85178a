"""Hosts, duplex links and latency-weighted routing.

A :class:`Topology` is the wiring harness of an experiment: named
:class:`Host` endpoints joined by pairs of directed
:class:`~repro.net.link.Link` objects.  Routing uses Dijkstra over
per-link nominal latency for a reference payload, recomputed on demand, so
multi-hop paths (mobile -> edge -> cloud) need no manual route tables.
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


def _admits(rule: bool | str, p: str) -> bool:
    """Whether a host with transit ``rule`` is transit for in-neighbour ``p``."""
    return rule is True or (rule is not False and rule != p)


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


class _RoutedLink(Link):
    """A link wired into a :class:`Topology`.

    It knows its ends and its topology, so a change reaches the routing
    views without a closure per link.  ``remove_link`` unhooks it.
    """

    __slots__ = ("_topology", "_src", "_dst")

    def __init__(self, topology: Topology, src: str, dst: str,
                 *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._topology: Topology | None = topology
        self._src = src
        self._dst = dst

    def _changed(self) -> None:
        if self._topology is not None:
            self._topology._link_changed(self._src, self._dst, self)


class Topology:
    """A mutable graph of hosts and directed links."""

    #: Payload size used to weigh edges for routing (bytes).  Small, so
    #: routing prefers low-latency paths rather than high-bandwidth ones,
    #: like an IGP metric.
    ROUTE_PROBE_BYTES = 1500

    def __init__(self, env: Environment):
        self.env = env
        self.hosts: dict[str, Host] = {}
        # adjacency: src name -> dst name -> Link
        self._adj: dict[str, dict[str, Link]] = {}
        # reverse adjacency: dst name -> src name -> Link (for routing's
        # forced-last-hop peel; kept in lockstep with ``_adj``)
        self._radj: dict[str, dict[str, Link]] = {}
        # up-links-only mirrors of the two maps above, maintained on every
        # admin up/down transition.  Routing iterates these so its cost
        # tracks the *live* topology — a link set down stays in the
        # structural maps until ``remove_link``, and must not slow every
        # future route meanwhile.
        self._up_adj: dict[str, dict[str, Link]] = {}
        self._up_radj: dict[str, dict[str, Link]] = {}
        # Transit view: _transit_adj[p][n] holds the up link p->n iff n
        # could be an *interior* hop of some route through p — i.e. n is
        # not terminal and has an up out-link leading anywhere but
        # straight back to p.  This is the leaf-pruning rule precomputed
        # per node instead of re-derived per Dijkstra expansion: a metro
        # edge carries ~100 attached clients in _up_adj but only its
        # mesh/cloud neighbours here, so route searches scan a graph
        # whose size tracks the number of *sites*, not the number of
        # clients.
        self._transit_adj: dict[str, dict[str, Link]] = {}
        # Transit rule per host (see _refresh_transit): False admits no
        # in-neighbour, True every one, a host name every one but that.
        # A host's entries in its in-neighbours' views are rewritten only
        # when its rule changes, so a handoff moves O(1) entries however
        # many clients the edge carries.
        self._rules: dict[str, bool | str] = {}
        # Hosts declared pure access endpoints (mark_terminal): routes
        # may start or end there but never pass through, whatever the
        # momentary link degree says.
        self._terminal: set[str] = set()
        # (src, dst) -> host names along the current shortest path.  Any
        # change to routing-relevant state (new links, rate changes, admin
        # up/down) drops affected entries — the whole cache in general,
        # but only a terminal host's own routes when the change touches
        # one of its access links (no other route can use those links).
        # Entries are recomputed on demand from unchanged weights, so
        # cached and fresh answers are identical.
        self._route_cache: dict[tuple[str, str], list[str]] = {}
        # Cache-key indexes by endpoint, for the targeted invalidation.
        self._routes_from: dict[str, set[tuple[str, str]]] = {}
        self._routes_to: dict[str, set[tuple[str, str]]] = {}

    # -- construction --------------------------------------------------------

    def add_host(self, name: str) -> Host:
        """Create (or return the existing) host called ``name``."""
        if name in self.hosts:
            return self.hosts[name]
        host = Host(self.env, name)
        self.hosts[name] = host
        self._adj.setdefault(name, {})
        self._radj.setdefault(name, {})
        self._up_adj.setdefault(name, {})
        self._up_radj.setdefault(name, {})
        self._transit_adj.setdefault(name, {})
        self._rules.setdefault(name, False)
        return host

    def add_link(self, src: str, dst: str, bandwidth_bps: float,
                 propagation_s: float = 0.0, jitter_s: float = 0.0,
                 loss_rate: float = 0.0,
                 rng: "np.random.Generator | None" = None) -> Link:
        """Add a directed link; hosts are created as needed.

        Raises:
            ValueError: On a self-link, or if src->dst already exists —
                re-enable that link with ``set_up`` instead.
        """
        if src == dst:
            raise ValueError(f"self-link on {src!r}")
        if dst in self._adj.get(src, ()):
            raise ValueError(f"link {src}->{dst} already exists")
        self.add_host(src)
        self.add_host(dst)
        link = _RoutedLink(self, src, dst, self.env, f"{src}->{dst}",
                           bandwidth_bps, propagation_s=propagation_s,
                           jitter_s=jitter_s, loss_rate=loss_rate, rng=rng)
        self._adj[src][dst] = link
        self._radj[dst][src] = link
        self._raise_link(src, dst, link)
        self._drop_routes(src, dst)
        return link

    def remove_link(self, src: str, dst: str) -> Link:
        """Delete the directed link src->dst, the inverse of ``add_link``.

        The link goes down first, so the up and transit views and the
        route cache move exactly as on ``set_up(False)``; then it leaves
        the structural maps and is unhooked, so a stale reference can
        never re-enter the views.  The pair may be added again afresh.

        Raises:
            KeyError: If src->dst does not exist.
        """
        link = self._adj[src][dst]
        link.set_up(False)
        link._topology = None
        del self._adj[src][dst]
        del self._radj[dst][src]
        return link

    def mark_terminal(self, name: str, terminal: bool = True) -> None:
        """Declare ``name`` a pure access endpoint.

        Routes may start or end at a terminal host but never pass
        through it — a phone is not metro fabric, even while it is
        briefly dual-homed mid-handoff.  The payoff is locality: a
        change on a terminal host's access link can only affect that
        host's own routes, so the route cache survives everyone else's
        handoffs.
        """
        if name not in self.hosts:
            raise KeyError(f"unknown host {name!r}")
        if terminal:
            self._terminal.add(name)
        else:
            self._terminal.discard(name)
        self._refresh_transit(name)
        self._flush_routes()

    def is_terminal(self, name: str) -> bool:
        """Whether ``name`` is marked as a pure access endpoint."""
        return name in self._terminal

    def _link_changed(self, src: str, dst: str, link: Link) -> None:
        """A link's routing-relevant state changed: resync and forget routes.

        Weight-only changes (bandwidth, impairments) just drop routes;
        the adjacency and transit views only move on an admin up/down
        transition.  Either way src's out-links changed, so its rule may
        have; dst's did not, so only its entry in src's view moves.
        """
        present = dst in self._up_adj[src]
        if link.up and not present:
            self._raise_link(src, dst, link)
        elif not link.up and present:
            del self._up_adj[src][dst]
            del self._up_radj[dst][src]
            self._refresh_transit(src)
            self._transit_adj[src].pop(dst, None)
        self._drop_routes(src, dst)

    def _raise_link(self, src: str, dst: str, link: Link) -> None:
        """Enter the new up link src->dst into the up and transit views."""
        self._up_adj[src][dst] = link
        self._up_radj[dst][src] = link
        self._refresh_transit(src)
        if _admits(self._rules[dst], src):
            self._transit_adj[src][dst] = link

    def _refresh_transit(self, name: str) -> None:
        """Resync ``name``'s membership in its in-neighbours' transit views.

        The entries are rewritten only when ``name``'s rule changed.  The
        rule is never for a terminal host or one with no up out-link,
        always with two or more, and every in-neighbour but the far end
        with exactly one.  It covers the terminal mark, so marking or
        unmarking a host re-derives all of its entries too.
        """
        out = self._up_adj[name]
        if name in self._terminal or not out:
            rule: bool | str = False
        elif len(out) >= 2:
            rule = True
        else:
            rule = next(iter(out))
        if rule == self._rules[name]:
            return
        self._rules[name] = rule
        for p, link in self._up_radj[name].items():
            if _admits(rule, p):
                self._transit_adj[p][name] = link
            else:
                self._transit_adj[p].pop(name, None)

    # -- route-cache invalidation --------------------------------------------

    def _flush_routes(self) -> None:
        self._route_cache.clear()
        self._routes_from.clear()
        self._routes_to.clear()

    def _drop_routes(self, src: str, dst: str) -> None:
        """Forget routes a change to link src->dst could affect.

        A link whose tail is terminal can only ever be a route's first
        hop, and one whose head is terminal only its last — so only the
        terminal endpoint's own routes are stale.  Any other link may
        sit mid-path anywhere, which costs the whole cache.
        """
        terminal = self._terminal
        if src not in terminal and dst not in terminal:
            self._flush_routes()
            return
        cache = self._route_cache
        if src in terminal:
            for key in self._routes_from.pop(src, ()):
                cache.pop(key, None)
                self._routes_to[key[1]].discard(key)
        if dst in terminal:
            for key in self._routes_to.pop(dst, ()):
                cache.pop(key, None)
                self._routes_from[key[0]].discard(key)

    def add_duplex(self, a: str, b: str, bandwidth_bps: float,
                   propagation_s: float = 0.0, jitter_s: float = 0.0,
                   loss_rate: float = 0.0,
                   rng: "np.random.Generator | None" = None,
                   ) -> tuple[Link, Link]:
        """Add a symmetric pair of links and return (a->b, b->a)."""
        if a in self._adj.get(b, ()):
            raise ValueError(f"link {b}->{a} already exists")
        forward = self.add_link(a, b, bandwidth_bps, propagation_s,
                                jitter_s, loss_rate, rng)
        backward = self.add_link(b, a, bandwidth_bps, propagation_s,
                                 jitter_s, loss_rate, rng)
        return forward, backward

    def link(self, src: str, dst: str) -> Link:
        """The directed link src->dst, or KeyError."""
        return self._adj[src][dst]

    def links(self) -> list[Link]:
        """All directed links in the topology."""
        return [l for nbrs in self._adj.values() for l in nbrs.values()]

    def neighbors(self, name: str) -> list[str]:
        """Hosts reachable from ``name`` in one hop over *up* links."""
        return [dst for dst, link in self._adj.get(name, {}).items() if link.up]

    # -- routing -------------------------------------------------------------

    def shortest_path(self, src: str, dst: str) -> list[str]:
        """Host names along the minimum-latency path, inclusive of endpoints.

        Raises:
            NoRouteError: If dst is unreachable from src over up links.
            KeyError: If either host does not exist.
        """
        if src not in self.hosts:
            raise KeyError(f"unknown host {src!r}")
        if dst not in self.hosts:
            raise KeyError(f"unknown host {dst!r}")
        if src == dst:
            return [src]
        cached = self._route_cache.get((src, dst))
        if cached is not None:
            return cached.copy()

        path = self._peel_route(src, dst)
        if path is None:
            path = self._dijkstra(src, dst)
        key = (src, dst)
        self._route_cache[key] = path
        self._routes_from.setdefault(src, set()).add(key)
        self._routes_to.setdefault(dst, set()).add(key)
        return path.copy()

    def _peel_route(self, src: str, dst: str) -> list[str] | None:
        """Resolve forced hops at both ends of the route, if any.

        A node with a single up out-link has no routing choice — every
        path out of it starts with that hop.  Symmetrically, a node with
        a single up in-link is only reachable through it.  Peeling both
        ends reduces a city route (client -> edge -> ... -> edge ->
        client) to at most one small Dijkstra between well-connected
        interior nodes — and usually to none at all.  Returns ``None``
        when the peels collide, cycle or would pass through a terminal
        host; the caller falls back to a full Dijkstra, so this is an
        exact shortcut, not a heuristic.
        """
        up_adj = self._up_adj
        up_radj = self._up_radj
        prefix: list[str] = []
        peeled: set[str] = {src}
        while src != dst:
            out = up_adj.get(src)
            if not out or len(out) != 1:
                break
            prefix.append(src)
            src = next(iter(out))
            if src in peeled or (src != dst and src in self._terminal):
                return None
            peeled.add(src)
        suffix: list[str] = []
        while src != dst:
            into = up_radj.get(dst)
            if not into or len(into) != 1:
                break
            suffix.append(dst)
            dst = next(iter(into))
            if dst == src:
                break
            if dst in peeled or dst in self._terminal:
                return None
            peeled.add(dst)
        suffix.reverse()
        if src == dst:
            return prefix + [src] + suffix
        if not prefix and not suffix:
            return None
        return prefix + self._dijkstra(src, dst) + suffix

    def _dijkstra(self, src: str, dst: str) -> list[str]:
        """Minimum-latency path by Dijkstra over up links.

        Expansions scan the transit view — non-transit neighbours (the
        client fan-out of every metro edge) can never be interior hops,
        so they are excluded from the scan itself rather than skipped
        one by one.  The destination is the one node a route may end on
        without being transit, so it is relaxed separately whenever the
        expanded node has a direct up link to it.
        """
        transit = self._transit_adj
        up_adj = self._up_adj
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
            nbrs = transit.get(here, {})
            for nxt, link in nbrs.items():
                nd = d + (probe_bits / link.bandwidth_bps
                          + link.propagation_s)
                if nd < dist.get(nxt, inf):
                    dist[nxt] = nd
                    prev[nxt] = here
                    heapq.heappush(frontier, (nd, nxt))
            if dst not in nbrs:
                link = up_adj.get(here, {}).get(dst)
                if link is not None:
                    nd = d + (probe_bits / link.bandwidth_bps
                              + link.propagation_s)
                    if nd < dist.get(dst, inf):
                        dist[dst] = nd
                        prev[dst] = here
                        heapq.heappush(frontier, (nd, dst))
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
        return [self._adj[a][b] for a, b in zip(names, names[1:])]

    def nominal_latency(self, src: str, dst: str, size_bytes: int) -> float:
        """Deterministic one-way latency for a payload over the best path.

        Ignores queueing, jitter and loss — a planning estimate, not a
        measurement.
        """
        return sum(link.one_way_delay(size_bytes)
                   for link in self.path_links(src, dst))

    def __repr__(self) -> str:
        n_links = sum(len(v) for v in self._adj.values())
        return f"Topology({len(self.hosts)} hosts, {n_links} links)"
