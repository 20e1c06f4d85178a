"""Declarative deployment scenarios: the builder layer of the repo.

Architecture
============
Deployment wiring is layered so every topology — the paper's single
testbed edge, a federated street of cafes, a metro area with moving
users — is one *data structure* away:

1. **Spec layer (this module).**  A :class:`ScenarioSpec` is a plain,
   frozen, dict-serializable description of a deployment: edges (with
   positions and attached clients), the inter-edge backhaul graph,
   federation and impairment switches, optional cache warm-up and
   optional user mobility.  Specs carry *names only* — no simulation
   objects — so the CLI, experiments and config files can all produce
   them, and ``to_dict``/``from_dict`` round-trip them losslessly.
2. **Builder layer** (:class:`~repro.core.cluster.ClusterDeployment`).
   Turns a spec into a running simulated system: topology links routed
   via :mod:`repro.net.topology` (so inter-edge graphs need not be full
   meshes — Dijkstra handles multi-hop peer traffic), per-edge caches
   and :class:`~repro.core.edge.EdgeNode` instances (one class;
   ``federate`` only decides whether each gets a peer list), one
   shared cloud, clients with *mutable* edge attachment, and — when the
   spec has a :class:`MobilitySpec` — a handoff driver that replays
   :class:`~repro.workload.mobility.RandomWaypointUser` itineraries and
   re-attaches each client to its nearest edge mid-run.

There is no third layer: ``ClusterDeployment(spec)`` is the only way to
build a system, and the canned builders :meth:`ScenarioSpec.single_edge`,
:meth:`ScenarioSpec.federated` and :meth:`ScenarioSpec.metro` are the
one-call entry points (they validate their own arguments).

The per-link ``*_stream`` fields pin the :class:`~repro.sim.rng.RngStreams`
names used for jitter/loss draws, which is what keeps ``single_edge()``
and ``federated()`` bit-for-bit reproducible against the hand-wired
constructors the golden digests were captured on.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import numbers
import types
import typing


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


# -- the spec codec -----------------------------------------------------------
#
# One field-driven pair of functions serializes every spec class: the
# dataclass fields name the keys and supply the defaults, the field
# annotations say how to rebuild each value.


def _encode(value: typing.Any) -> typing.Any:
    """``value`` as plain JSON types: specs -> dicts, tuples -> lists."""
    if isinstance(value, _Spec):
        return {f.name: _encode(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


def _decode(annotation: typing.Any, value: typing.Any) -> typing.Any:
    """Plain JSON ``value`` as the field type ``annotation`` describes."""
    origin = typing.get_origin(annotation)
    args = typing.get_args(annotation)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = (a for a in args if a is not type(None))
        return _decode(inner, value)
    _require(value is not None, "must not be null")
    if origin is tuple:
        _require(isinstance(value, (list, tuple)),
                 f"expected a list, got {value!r}")
        if args[-1] is Ellipsis:
            return tuple(_decode(args[0], item) for item in value)
        _require(len(value) == len(args), f"expected {len(args)} items")
        return tuple(_decode(a, item) for a, item in zip(args, value))
    if isinstance(annotation, type) and issubclass(annotation, _Spec):
        return annotation.from_dict(value)
    if annotation is int:
        return _integer(value)
    if annotation is float:
        _require(isinstance(value, numbers.Real)
                 and not isinstance(value, bool),
                 f"expected a number, got {value!r}")
        return float(value)
    # bool and str: the JSON type must match, so "no" is not a truthy
    # switch and 0.5 not a flag.
    _require(isinstance(value, annotation),
             f"expected a {annotation.__name__}, got {value!r}")
    return value


def _integer(value: typing.Any) -> int:
    """``value`` as an ``int``: a bool, a non-finite number or a
    fraction raises."""
    _require(isinstance(value, numbers.Real) and not isinstance(value, bool)
             and math.isfinite(value) and value == int(value),
             f"expected an integer, got {value!r}")
    return int(value)


class _Spec:
    """Dict serialization shared by every spec dataclass."""

    def to_dict(self) -> dict:
        """Plain JSON types, one key per field in declaration order."""
        return _encode(self)

    @classmethod
    def from_dict(cls, data: dict):
        """Rebuild from :meth:`to_dict` output; omitted keys default.

        Spec files come from outside the program: an unknown key, a
        missing required key or a null where none is allowed raises
        ``ValueError`` naming the key and the spec class.
        """
        _require(isinstance(data, dict),
                 f"{cls.__name__}: expected a mapping, got {data!r}")
        annotations = _annotations(cls)
        for key in data:
            _require(key in annotations,
                     f"{cls.__name__}: unknown key {key!r}")
        kwargs = {}
        for field in dataclasses.fields(cls):
            if field.name in data:
                try:
                    kwargs[field.name] = _decode(annotations[field.name],
                                                 data[field.name])
                except (TypeError, ValueError) as exc:
                    raise ValueError(
                        f"{cls.__name__}.{field.name}: {exc}") from exc
            else:
                _require(field.default is not dataclasses.MISSING,
                         f"{cls.__name__}: missing required key "
                         f"{field.name!r}")
        return cls(**kwargs)


@functools.cache
def _annotations(cls: type) -> dict[str, typing.Any]:
    return typing.get_type_hints(cls)


@dataclasses.dataclass(frozen=True)
class ClientSpec(_Spec):
    """One mobile host attached (initially) to an edge.

    Attributes:
        name: Topology host name; must be unique across the scenario.
        access: Access network technology — ``"wifi"`` (the paper's
            802.11ac attachment) or ``"lte"`` (an asymmetric LTE EPC
            pair from the ``NetworkConfig.lte_*`` fields, with the
            core-network latency a raw bandwidth number hides).
            Handoffs preserve the client's access type.
        wifi_stream: RNG stream name for this access link's jitter/loss
            draws.  Empty selects ``net.wifi.<name>``.
    """

    name: str
    access: str = "wifi"
    wifi_stream: str = ""

    def __post_init__(self) -> None:
        _require(bool(self.name), "client name must be non-empty")
        _require(self.access in ("wifi", "lte"),
                 f"access must be 'wifi' or 'lte', got {self.access!r}")

    @classmethod
    def from_dict(cls, data: "dict | str") -> "ClientSpec":
        """Also accepts a bare host name (``"clients": ["m0", "m1"]``)."""
        return super().from_dict(
            {"name": data} if isinstance(data, str) else data)


@dataclasses.dataclass(frozen=True)
class EdgeSpec(_Spec):
    """One edge site: position, initial clients, backhaul stream, peers.

    Attributes:
        name: Topology host name; must be unique across the scenario.
        clients: Hosts initially attached here over WiFi.
        x, y: Site position in metres (drives nearest-edge handoff).
        backhaul_stream: RNG stream for the edge->cloud link.  Empty
            selects ``net.backhaul.<name>``.
        peers: Federation probe order (host names).  None means "all
            other edges, in scenario order".
        cache_mb: Per-site IC-cache capacity override in MB; None uses
            the deployment config's ``cache.capacity_mb``.  Lets one
            scenario mix big metro boxes with small street cabinets —
            capacity pressure at the small sites is what makes cache
            *placement* (and affinity-aware offload) matter.
        operator: Operator domain this site belongs to.  Empty (the
            default) means "no operator model" — the scenario behaves
            exactly as before operators existed.  Non-empty names must
            reference an :class:`OperatorSpec` declared on the
            scenario; cross-operator offload/federation/pre-warm then
            goes through the deployment's
            :class:`~repro.core.market.FederationBroker`.
    """

    name: str
    clients: tuple[ClientSpec, ...] = ()
    x: float = 0.0
    y: float = 0.0
    backhaul_stream: str = ""
    peers: tuple[str, ...] | None = None
    cache_mb: float | None = None
    operator: str = ""

    def __post_init__(self) -> None:
        _require(bool(self.name), "edge name must be non-empty")
        # A NaN position is nearest to no place: the first move would
        # hand off to no edge.
        for axis in ("x", "y"):
            _require(math.isfinite(getattr(self, axis)),
                     f"edge {axis} must be finite")
        object.__setattr__(self, "clients", tuple(self.clients))
        if self.peers is not None:
            object.__setattr__(self, "peers", tuple(self.peers))
        if self.cache_mb is not None:
            _require(0 < self.cache_mb < math.inf,
                     "cache_mb must be finite and > 0")


@dataclasses.dataclass(frozen=True)
class OperatorSpec(_Spec):
    """One operator domain in a multi-operator federation market.

    Cross-domain work (peer offload, federation cache probes, handoff
    pre-warm pushes) between edges of *different* operators is a priced
    transaction: the consumer operator pays the provider operator per
    job, settled on the deployment recorder's simulated ledger.  Within
    one operator everything stays free, exactly as before.

    Attributes:
        name: Operator domain name; referenced by ``EdgeSpec.operator``.
        price: Floor price (credits per cross-domain job) this operator
            charges consumers with no bilateral agreement.  0 models an
            open free-peering market.
        budget: Max credits this operator will pay per job when *buying*
            remote service.  None means unlimited willingness to pay;
            providers quoting above the budget are never used.
        allow: Operators allowed to buy service from us, or None for
            "anyone not denied".
        deny: Operators refused service outright (consent denylist).
            A denied consumer's edges never even probe ours.
        agreements: Bilateral price agreements ``((peer_op, price), ...)``
            overriding the floor price for specific consumers.
    """

    name: str
    price: float = 0.0
    budget: float | None = None
    allow: tuple[str, ...] | None = None
    deny: tuple[str, ...] = ()
    agreements: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        _require(bool(self.name), "operator name must be non-empty")
        _require(self.price >= 0, "operator price must be >= 0")
        if self.budget is not None:
            _require(self.budget >= 0, "operator budget must be >= 0")
        if self.allow is not None:
            object.__setattr__(self, "allow", tuple(self.allow))
        object.__setattr__(self, "deny", tuple(self.deny))
        agreements = tuple((str(peer), float(price))
                           for peer, price in self.agreements)
        object.__setattr__(self, "agreements", agreements)
        peers = [peer for peer, _ in agreements]
        _require(len(set(peers)) == len(peers),
                 "duplicate bilateral agreement peer")
        for peer, price in agreements:
            _require(price >= 0, f"agreement price for {peer!r} must be >= 0")

    def quote_for(self, consumer: str) -> float:
        """Price this operator charges ``consumer`` per job."""
        for peer, price in self.agreements:
            if peer == consumer:
                return price
        return self.price

    def consents_to(self, consumer: str) -> bool:
        """Would this operator serve ``consumer`` at all?"""
        if consumer == self.name:
            return True
        if consumer in self.deny:
            return False
        return self.allow is None or consumer in self.allow


@dataclasses.dataclass(frozen=True)
class InterEdgeLinkSpec(_Spec):
    """One duplex link of the inter-edge backhaul graph.

    The graph need not be a full mesh: routing is Dijkstra over
    :class:`~repro.net.topology.Topology`, so a ring or line of edges
    still federates (peer probes just pay the multi-hop latency).
    """

    a: str
    b: str
    mbps: float = 1000.0
    delay_ms: float = 2.0

    def __post_init__(self) -> None:
        _require(self.a != self.b, "inter-edge link endpoints must differ")
        _require(0 < self.mbps < math.inf,
                 "inter-edge mbps must be finite and > 0")
        _require(0 <= self.delay_ms < math.inf,
                 "inter-edge delay_ms must be finite and >= 0")


@dataclasses.dataclass(frozen=True)
class MobilitySpec(_Spec):
    """User mobility and handoff knobs for a scenario.

    Attributes:
        n_places: Points of interest in the world.
        objects_per_place: Distinct object classes visible per place.
        extent_m: World side length; edge positions live in this square.
        popularity_alpha: Zipf exponent for class-to-place assignment.
        mean_dwell_s: Average dwell before a user moves again.
        duration_s: Default itinerary length for ``start_mobility``.
        handoff_latency_s: Dead time while a client re-associates to a
            new access point (teardown + re-setup of the WiFi link).
        bias: Optional per-place gravity weights (length ``n_places``).
            Waypoint selection draws the next place proportionally to
            these instead of uniformly, so a stadium or transit hub can
            dominate — handoff rates become heavy-tailed and one cell
            runs hot.  None keeps the uniform random-waypoint model.
        bias_schedule: Optional piecewise gravity timetable
            ``((start_s, (w, ...)), ...)`` sorted by start time: the
            segment active at a hop's departure time drives the draw,
            so crowds migrate over the day — the stadium fills before
            full time and empties after it.  Before the first segment
            (or with no schedule) the static ``bias`` applies.
    """

    n_places: int = 16
    objects_per_place: int = 4
    extent_m: float = 1000.0
    popularity_alpha: float = 0.8
    mean_dwell_s: float = 30.0
    duration_s: float = 120.0
    handoff_latency_s: float = 0.05
    bias: tuple[float, ...] | None = None
    bias_schedule: tuple[tuple[float, tuple[float, ...]], ...] | None = None

    def __post_init__(self) -> None:
        _require(self.n_places >= 1, "n_places must be >= 1")
        _require(self.objects_per_place >= 1,
                 "objects_per_place must be >= 1")
        for name in ("extent_m", "mean_dwell_s", "duration_s",
                     "handoff_latency_s"):
            _require(math.isfinite(getattr(self, name)),
                     f"{name} must be finite")
        _require(self.extent_m > 0, "extent_m must be > 0")
        _require(self.mean_dwell_s > 0, "mean_dwell_s must be > 0")
        _require(self.duration_s > 0, "duration_s must be > 0")
        _require(self.handoff_latency_s >= 0,
                 "handoff_latency_s must be >= 0")
        if self.bias is not None:
            object.__setattr__(self, "bias",
                               tuple(float(w) for w in self.bias))
            self._check_weights(self.bias, "bias")
        if self.bias_schedule is not None:
            segments = tuple(
                (float(start), tuple(float(w) for w in weights))
                for start, weights in self.bias_schedule)
            object.__setattr__(self, "bias_schedule", segments)
            _require(len(segments) >= 1,
                     "bias_schedule must have at least one segment")
            starts = [s for s, _ in segments]
            _require(starts == sorted(starts),
                     "bias_schedule must be sorted by start time")
            for k, (start, weights) in enumerate(segments):
                _require(start >= 0, "bias_schedule starts must be >= 0")
                self._check_weights(weights, f"bias_schedule[{k}]")

    def _check_weights(self, weights: tuple[float, ...], label: str) -> None:
        _require(len(weights) == self.n_places,
                 f"{label} needs one weight per place")
        _require(all(0 <= w < math.inf for w in weights),
                 f"{label} weights must be finite and >= 0")
        _require(sum(weights) > 0, f"{label} weights must not all be zero")


@dataclasses.dataclass(frozen=True)
class BackgroundTrafficSpec(_Spec):
    """Diurnal background cross-traffic on the scenario's backhaul links.

    City backhauls are shared infrastructure: the capacity an edge sees
    varies over the day as everyone else's traffic ebbs and flows.  The
    builder models this as a sinusoidal *diurnal load curve* — at peak,
    background flows consume ``peak_util`` of each affected link's
    nominal capacity, at trough none of it — re-setting the links' rates
    every ``update_s`` with :meth:`~repro.net.link.Link.set_bandwidth`,
    as ``tc`` would (the deployment counts every change in
    ``rate_changes`` for experiment logs).

    Attributes:
        period_s: Length of one diurnal cycle in simulated seconds.
            City runs compress a day into the simulated window (e.g. a
            3600 s run with ``period_s=3600`` sweeps one full cycle).
        peak_util: Fraction of nominal link capacity the background
            traffic consumes at the peak of the cycle, in [0, 1).
        update_s: How often link rates are refreshed along the curve.
        phase_s: Offset into the cycle at time 0 — lets a scenario
            start at rush hour instead of dawn.  It, ``period_s`` and
            ``update_s`` must be finite.
        scope: Which links carry the cross-traffic — ``"backhaul"``
            (edge<->cloud), ``"inter_edge"`` (the metro graph), or
            ``"all"``.
    """

    period_s: float = 3600.0
    peak_util: float = 0.5
    update_s: float = 60.0
    phase_s: float = 0.0
    scope: str = "backhaul"

    def __post_init__(self) -> None:
        _require(0 < self.period_s < math.inf,
                 "period_s must be finite and > 0")
        _require(0.0 <= self.peak_util < 1.0, "peak_util must be in [0, 1)")
        _require(0 < self.update_s < math.inf,
                 "update_s must be finite and > 0")
        _require(0 <= self.phase_s < math.inf,
                 "phase_s must be finite and >= 0")
        _require(self.scope in ("backhaul", "inter_edge", "all"),
                 f"scope must be backhaul/inter_edge/all, got {self.scope!r}")

    def level(self, when: float) -> float:
        """The load curve in [0, 1] at simulated time ``when``."""
        import math

        angle = 2.0 * math.pi * (when + self.phase_s) / self.period_s
        return 0.5 * (1.0 - math.cos(angle))


@dataclasses.dataclass(frozen=True)
class EdgePolicySpec(_Spec):
    """Overload-management knobs for every edge in a scenario.

    Configures the pipeline's admission controller
    (:class:`~repro.core.pipeline.AdmissionControlStage`), the
    peer-offload balancer, and predictive handoff pre-warm.  The default
    instance is entirely inert (the paper's accept-everything edge).

    Attributes:
        admission: What a saturated edge does with a new recognition
            request when no offload target exists — ``"none"`` (queue it
            anyway), ``"shed"`` (refuse; the client records a ``shed``
            outcome), or ``"redirect"`` (relay to the cloud without
            spending edge compute).
        queue_limit: The edge counts as overloaded once this many
            extraction requests are waiting for a worker slot.  None
            disables the queue-length trigger.
        offload: ``"least_loaded"`` forwards overload recognition work
            to the least-loaded neighbouring edge over the inter-edge
            backhaul graph; ``"affinity"`` scores each neighbour by
            expected-cache-hit probability x load headroom using the
            gossiped cache summaries and targets the neighbour most
            likely to answer from cache (falling back to least-loaded
            on ties or while no summaries have arrived yet); ``"none"``
            disables peer offload.
        offload_margin: A peer is only used when its load is at least
            this far below the asking edge's (ping-pong hysteresis).
        summary_refresh_s: Gossip period for affinity cache summaries:
            every edge pushes a fresh ``CacheSummary`` to each backhaul
            neighbour this often (paying the summary's bytes on the
            routed inter-edge path), so a peer's view of a cache is
            stale by at most this plus the transfer time.  Ignored
            unless ``offload="affinity"``.
        prewarm_top_k: Before a mobility handoff completes, push this
            many of the hottest cache entries from the old edge to the
            next edge (``ICCache.hottest`` -> ``insert_batch``).  0
            disables pre-warm.
        prewarm_layers: Also ship up to this many of the hottest
            DNN-layer activation entries (``layer:*`` kinds, see
            :mod:`repro.core.layer_cache`) in the same pre-warm push,
            paying real backhaul bytes for the activation payloads, so
            the handoff target can resume inference mid-network instead
            of recomputing.  Enables the per-edge layer-cache managers
            on the deployment.  0 disables layer pre-warm.
        layer_reuse: Serve recognition requests by *partial inference*
            when a cached DNN-layer activation matches the request's
            cheap input sketch: the pipeline gains a
            :class:`~repro.core.pipeline.LayerReuseStage` just before
            lookup that plans against the edge's layer
            cache, pays only the remaining layers' compute on a usable
            plan, and answers with the ``partial`` outcome.  Also
            enables the per-edge layer-cache managers and seeds them
            with the taps every edge-side extraction computes anyway,
            so reuse compounds without any out-of-band population.
        layer_plan_margin_s: A reuse plan is only served when it saves
            at least this many seconds versus full inference on the
            edge device (``full_inference_s - partial_s >= margin``).
            0 accepts any resuming plan.  Ignored unless
            ``layer_reuse`` is set.
        shed_retries: How many times a client re-sends a shed
            recognition request after backing off for the response's
            ``retry_after_s`` queue-drain hint (jittered per client so
            a refused crowd does not re-stampede).  The deployment
            wires this into every :class:`~repro.core.client
            .CoICClient`.  0 keeps the pre-backoff behaviour: the app
            sees the ``shed`` outcome immediately.
    """

    admission: str = "none"
    queue_limit: int | None = 8
    offload: str = "none"
    offload_margin: int = 2
    summary_refresh_s: float = 5.0
    prewarm_top_k: int = 0
    prewarm_layers: int = 0
    layer_reuse: bool = False
    layer_plan_margin_s: float = 0.0
    shed_retries: int = 0

    def __post_init__(self) -> None:
        _require(self.admission in ("none", "shed", "redirect"),
                 f"admission must be none/shed/redirect, "
                 f"got {self.admission!r}")
        _require(self.offload in ("none", "least_loaded", "affinity"),
                 f"offload must be none/least_loaded/affinity, "
                 f"got {self.offload!r}")
        if self.queue_limit is not None:
            _require(self.queue_limit >= 0, "queue_limit must be >= 0")
        _require(self.offload_margin >= 0, "offload_margin must be >= 0")
        _require(0 < self.summary_refresh_s < math.inf,
                 "summary_refresh_s must be finite and > 0")
        _require(self.prewarm_top_k >= 0, "prewarm_top_k must be >= 0")
        _require(self.prewarm_layers >= 0, "prewarm_layers must be >= 0")
        _require(0 <= self.layer_plan_margin_s < math.inf,
                 "layer_plan_margin_s must be finite and >= 0")
        _require(self.shed_retries >= 0, "shed_retries must be >= 0")

    @property
    def gates_admission(self) -> bool:
        """Does this policy need the admission-control stage at all?"""
        return self.admission != "none" or self.offload != "none"

    @property
    def uses_layer_cache(self) -> bool:
        """Does this policy need per-edge layer-cache managers built?"""
        return self.prewarm_layers > 0 or self.layer_reuse


@dataclasses.dataclass(frozen=True)
class WarmupSpec(_Spec):
    """Cache pre-population applied at build time via ``insert_batch``.

    Attributes:
        classes: Object classes whose recognition prototypes are
            pre-inserted.
        models: Catalog model ids pre-inserted in loaded form.
        edges: Edge names to warm; None warms every edge.
    """

    classes: tuple[int, ...] = ()
    models: tuple[int, ...] = ()
    edges: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "models", tuple(self.models))
        if self.edges is not None:
            object.__setattr__(self, "edges", tuple(self.edges))


@dataclasses.dataclass(frozen=True)
class ScenarioSpec(_Spec):
    """A complete, serializable deployment description.

    Attributes:
        edges: Edge sites with their initial clients.
        inter_edge: The inter-edge backhaul graph (any shape; routed).
        federate: Give every edge its peer list, so a miss probes peer
            caches (``peer_lookup``) before the cloud; False builds
            isolated edges (no peers, never probes).
        peer_timeout_s: Per-peer probe deadline for federated edges.
        impairments: Apply the config's jitter/loss to access and
            cloud-backhaul links (:meth:`federated` sets this False, as
            the constructor its golden digests were captured on did).
        baselines: Also build Origin and Local baseline clients.
        mobility: User mobility/handoff model, or None for static users.
        warmup: Cache pre-population, or None.
        policy: Overload-management policy applied to every edge
            (admission control, peer offload, handoff pre-warm), or
            None for the paper's accept-everything edges.
        background: Diurnal background cross-traffic on backhaul links,
            or None for dedicated (constant-capacity) backhauls.
        operators: Operator domains for the federation marketplace, or
            empty for the classic single-administrative-domain model.
            Every non-empty ``EdgeSpec.operator`` must name one of
            these.
        backend: Execution backend the spec is meant to run on —
            ``"sim"`` (the discrete-event kernel, today's default) or
            ``"real"`` (a multiprocess asyncio deployment over
            localhost sockets, see :mod:`repro.backend`).  Purely a
            routing hint for runners and the CLI: the simulated build
            path ignores it entirely, so every pinned golden digest is
            unaffected.
    """

    edges: tuple[EdgeSpec, ...]
    inter_edge: tuple[InterEdgeLinkSpec, ...] = ()
    federate: bool = False
    peer_timeout_s: float = 1.0
    impairments: bool = True
    baselines: bool = False
    mobility: MobilitySpec | None = None
    warmup: WarmupSpec | None = None
    policy: EdgePolicySpec | None = None
    background: BackgroundTrafficSpec | None = None
    operators: tuple[OperatorSpec, ...] = ()
    backend: str = "sim"

    def __post_init__(self) -> None:
        _require(self.backend in ("sim", "real"),
                 f"backend must be 'sim' or 'real', got {self.backend!r}")
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "inter_edge", tuple(self.inter_edge))
        object.__setattr__(self, "operators", tuple(self.operators))
        _require(len(self.edges) >= 1, "a scenario needs at least one edge")
        _require(0 < self.peer_timeout_s < math.inf,
                 "peer_timeout_s must be finite and > 0")
        names = [e.name for e in self.edges]
        _require(len(set(names)) == len(names), "edge names must be unique")
        client_names = [c.name for e in self.edges for c in e.clients]
        _require(len(set(client_names)) == len(client_names),
                 "client names must be unique")
        _require(not set(client_names) & set(names),
                 "client and edge names must not collide")
        _require("cloud" not in names and "cloud" not in client_names,
                 "'cloud' is reserved for the cloud node")
        known = set(names)
        pairs: set[frozenset[str]] = set()
        for link in self.inter_edge:
            _require(link.a in known and link.b in known,
                     f"inter-edge link {link.a}<->{link.b} names unknown edge")
            pair = frozenset((link.a, link.b))
            _require(pair not in pairs,
                     f"duplicate inter-edge link {link.a}<->{link.b}")
            pairs.add(pair)
        for edge in self.edges:
            for peer in edge.peers or ():
                _require(peer in known, f"unknown peer {peer!r}")
        op_names = [o.name for o in self.operators]
        _require(len(set(op_names)) == len(op_names),
                 "operator names must be unique")
        declared = set(op_names)
        for edge in self.edges:
            _require(not edge.operator or edge.operator in declared,
                     f"edge {edge.name!r} references undeclared operator "
                     f"{edge.operator!r}")
        for op in self.operators:
            for peer in (op.deny + tuple(op.allow or ())
                         + tuple(p for p, _ in op.agreements)):
                _require(peer in declared,
                         f"operator {op.name!r} references undeclared "
                         f"operator {peer!r}")

    # -- introspection -------------------------------------------------------

    @property
    def edge_names(self) -> list[str]:
        return [e.name for e in self.edges]

    @property
    def client_names(self) -> list[str]:
        return [c.name for e in self.edges for c in e.clients]

    def edge(self, name: str) -> EdgeSpec:
        for edge in self.edges:
            if edge.name == name:
                return edge
        raise KeyError(f"no edge named {name!r}")

    def operator(self, name: str) -> OperatorSpec:
        for op in self.operators:
            if op.name == name:
                return op
        raise KeyError(f"no operator named {name!r}")

    def with_operators(self, operators: typing.Sequence[OperatorSpec],
                       by_edge: dict[str, str]) -> "ScenarioSpec":
        """A copy of this spec with operator domains assigned.

        ``by_edge`` maps edge names to operator names; unnamed edges
        keep their current (usually empty) assignment.  Lets the canned
        builders (``metro`` etc.) stay operator-free while experiments
        and tests layer a market on top.
        """
        unknown = set(by_edge) - set(self.edge_names)
        _require(not unknown, f"unknown edges in by_edge: {sorted(unknown)}")
        edges = tuple(
            dataclasses.replace(e, operator=by_edge.get(e.name, e.operator))
            for e in self.edges)
        return dataclasses.replace(self, edges=edges,
                                   operators=tuple(operators))

    # -- canned scenarios ----------------------------------------------------

    @classmethod
    def single_edge(cls, n_clients: int = 1) -> "ScenarioSpec":
        """The paper's testbed: one edge, one cloud, n WiFi clients.

        Link stream names replicate the hand-wired single-edge
        constructor the golden digests were captured on (seed-identical
        metrics).
        """
        _require(n_clients >= 1, "n_clients must be >= 1")
        clients = tuple(ClientSpec(name=f"mobile{i}",
                                   wifi_stream=f"net.wifi.mobile{i}")
                        for i in range(n_clients))
        edge = EdgeSpec(name="edge", clients=clients,
                        backhaul_stream="net.backhaul")
        return cls(edges=(edge,), baselines=True)

    @classmethod
    def federated(cls, n_edges: int = 2, clients_per_edge: int = 1,
                  metro_mbps: float = 1000.0, metro_delay_ms: float = 2.0,
                  federate: bool = True) -> "ScenarioSpec":
        """K fully-meshed edges, each with its own clients, one cloud.

        Link stream names and ``impairments=False`` replicate the
        hand-wired federated constructor the golden digests were
        captured on (seed-identical metrics).
        """
        _require(n_edges >= 1, "n_edges must be >= 1")
        _require(clients_per_edge >= 1, "clients_per_edge must be >= 1")
        names = [f"edge{k}" for k in range(n_edges)]
        edges = []
        for k, name in enumerate(names):
            clients = tuple(ClientSpec(name=f"mobile{k}_{i}",
                                       wifi_stream=f"net.wifi.{k}.{i}")
                            for i in range(clients_per_edge))
            edges.append(EdgeSpec(
                name=name, clients=clients,
                backhaul_stream=f"net.backhaul.{k}",
                peers=tuple(n for n in names if n != name)))
        inter = tuple(InterEdgeLinkSpec(a=a, b=b, mbps=metro_mbps,
                                        delay_ms=metro_delay_ms)
                      for a, b in itertools.combinations(names, 2))
        return cls(edges=tuple(edges), inter_edge=inter, federate=federate,
                   impairments=False)

    @classmethod
    def metro(cls, n_edges: int = 4, clients_per_edge: int = 2,
              metro_mbps: float = 1000.0, metro_delay_ms: float = 2.0,
              federate: bool = True,
              mobility: MobilitySpec | None = None,
              warmup: WarmupSpec | None = None,
              policy: "EdgePolicySpec | None" = None,
              background: "BackgroundTrafficSpec | None" = None,
              mesh: str = "full",
              ) -> "ScenarioSpec":
        """A mobile multi-edge city: edges on a grid, users on the move.

        Edges are placed at the cell centres of the smallest square grid
        that fits ``n_edges`` inside the mobility extent, so "nearest
        edge" partitions the world into cells and every waypoint hop has
        a real chance of demanding a handoff.

        ``mesh`` picks the inter-edge wiring: ``"full"`` links every
        edge pair directly (fine for a handful of sites, quadratic at
        city scale), ``"grid"`` links each edge to its 4-neighbourhood
        in the placement grid — the metro-aggregation shape a city-sized
        deployment would actually run, with multi-hop inter-edge routes.
        """
        _require(n_edges >= 1, "n_edges must be >= 1")
        _require(clients_per_edge >= 0, "clients_per_edge must be >= 0")
        _require(mesh in ("full", "grid"),
                 f"mesh must be 'full' or 'grid', got {mesh!r}")
        if mobility is None:
            mobility = MobilitySpec()
        side = 1
        while side * side < n_edges:
            side += 1
        cell = mobility.extent_m / side
        edges = []
        for k in range(n_edges):
            row, col = divmod(k, side)
            clients = tuple(
                ClientSpec(name=f"mobile{k}_{i}")
                for i in range(clients_per_edge))
            edges.append(EdgeSpec(
                name=f"edge{k}", clients=clients,
                x=(col + 0.5) * cell, y=(row + 0.5) * cell))
        names = [e.name for e in edges]
        if mesh == "full":
            pairs = itertools.combinations(names, 2)
        else:
            pairs = []
            for k in range(n_edges):
                row, col = divmod(k, side)
                if col + 1 < side and k + 1 < n_edges:
                    pairs.append((names[k], names[k + 1]))
                if k + side < n_edges:
                    pairs.append((names[k], names[k + side]))
        inter = tuple(InterEdgeLinkSpec(a=a, b=b, mbps=metro_mbps,
                                        delay_ms=metro_delay_ms)
                      for a, b in pairs)
        return cls(edges=tuple(edges), inter_edge=inter, federate=federate,
                   mobility=mobility, warmup=warmup, policy=policy,
                   background=background)


def load_spec(source: typing.Union[str, dict]) -> ScenarioSpec:
    """Build a spec from a dict, a JSON string, or a file path.

    File paths ending in ``.yml``/``.yaml`` are parsed with PyYAML when
    available; everything else is parsed as JSON.
    """
    import json
    import os

    if isinstance(source, dict):
        return ScenarioSpec.from_dict(source)
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
        if source.endswith((".yml", ".yaml")):
            try:
                import yaml
            except ImportError as exc:  # pragma: no cover
                raise ValueError(
                    "YAML spec files need PyYAML; re-encode as JSON") from exc
            return ScenarioSpec.from_dict(yaml.safe_load(text))
        return ScenarioSpec.from_dict(json.loads(text))
    return ScenarioSpec.from_dict(json.loads(source))
