"""A13 — partial-inference serving: the layer caches finally get read.

PR 4 gave the deployment layer-cache *transport* — handoff pre-warm and
federation sync move ``layer:*`` activation entries between edges — but
the serving path recomputed everything from the input anyway.  With
``EdgePolicySpec.layer_reuse`` the request pipeline gains a
:class:`~repro.core.pipeline.LayerReuseStage` that closes the
Potluck-style loop of the paper's §4: a request whose cheap input
sketch matches a cached intermediate resumes inference from that layer
and pays only the remaining FLOPs, answering with the ``partial``
outcome instead of an extraction + cloud round trip.

This experiment measures the loop on the **concert-hall drift
workload**: fans recognize a fixed set of stage scenes at one edge (the
hall), then pour out to the neighbouring edge (the hub) and re-capture
the same scenes from wildly drifted viewpoints — far enough that the
coarse descriptor cache misses, close enough that shallow/middle layer
activations still apply.  Three policy rungs:

* ``none`` — the PR 4 edge: every drifted re-capture pays full
  extraction and, on the frequent descriptor miss, a cloud forward over
  the thin backhaul.
* ``reuse`` — ``layer_reuse=True``: each edge seeds its own layer cache
  from the taps its extractions compute anyway, and drifted re-captures
  resume mid-network.  The hub starts cold but *self-warms*: the first
  few drifted captures seed activations the later ones chain off.
* ``reuse+prewarm`` — additionally ships the hall's hottest results and
  layer activations to the hub ahead of the handoff
  (``prewarm_top_k``/``prewarm_layers``), so the hub resumes
  mid-network from the first post-handoff request.

Measured effects (seed 0, the bench's full configuration): partial
serves absorb most of the drifted load, mean recognition latency drops
several-fold versus ``none``, and pre-warming the hub lifts its
post-handoff partial count above cold self-warming.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.cluster import ClusterDeployment
from repro.core.config import CoICConfig
from repro.core.metrics import (
    LatencySummary,
    OUTCOME_HIT,
    OUTCOME_MISS,
    OUTCOME_PARTIAL,
)
from repro.core.scenario import (
    ClientSpec,
    EdgePolicySpec,
    EdgeSpec,
    InterEdgeLinkSpec,
    ScenarioSpec,
)

#: Policy ladder, in presentation order.
POLICY_NAMES = ("none", "reuse", "reuse+prewarm")

#: Scenario shape (see the bench for the measured claim).
DEFAULT_FANS = 4
DEFAULT_SCENES = (3, 11, 19, 27, 35, 43)
DEFAULT_HALL_S = 40.0
DEFAULT_HUB_S = 40.0
DEFAULT_INTERVAL_S = 1.0
#: Hall-phase captures: near-frontal stage views.
HALL_VIEWPOINTS = (-0.5, 0.5)
#: Hub-phase captures: the same scenes, wildly drifted — past the
#: descriptor threshold, inside the shallow/middle layer thresholds.
HUB_VIEWPOINTS = (3.5, 6.5)
#: Pre-warm budgets for the ``reuse+prewarm`` rung.
PREWARM_RESULTS = 8
PREWARM_LAYERS = 12


def policy_spec(name: str,
                layer_plan_margin_s: float = 0.0) -> EdgePolicySpec | None:
    """The :class:`EdgePolicySpec` for one ladder rung (None = no policy)."""
    if name == "none":
        return None
    if name == "reuse":
        return EdgePolicySpec(layer_reuse=True,
                              layer_plan_margin_s=layer_plan_margin_s)
    if name == "reuse+prewarm":
        return EdgePolicySpec(layer_reuse=True,
                              layer_plan_margin_s=layer_plan_margin_s,
                              prewarm_top_k=PREWARM_RESULTS,
                              prewarm_layers=PREWARM_LAYERS)
    raise KeyError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")


@dataclasses.dataclass(frozen=True)
class LayerReuseRow:
    """One policy rung of the concert-hall drift comparison."""

    policy: str
    requests: int
    served: int
    partials: int
    hub_partials: int       # partial serves by the hub, post-handoff
    partial_ratio: float
    hit_ratio: float
    mean_ms: float
    p95_ms: float
    hub_mean_ms: float      # drifted re-captures only (the claim's phase)
    saved_compute_s: float  # summed saved_s across partial serves
    layer_entries_prewarmed: int
    prewarm_bytes: int
    layer_seeded: int       # taps cached off extraction passes


def build_concert_hall(seed: int = 0,
                       policy: EdgePolicySpec | None = None,
                       fans: int = DEFAULT_FANS,
                       config: CoICConfig | None = None
                       ) -> ClusterDeployment:
    """The hall edge (all the fans) linked to the idle hub edge.

    Edges are isolated (no federation) and the cloud backhaul is thin,
    so the measured differences come from what the layer caches serve —
    not from peer probes quietly answering the misses.
    """
    if config is None:
        config = CoICConfig(seed=seed)
        config.network.wifi_mbps = 100
        config.network.backhaul_mbps = 10
    clients = tuple(ClientSpec(name=f"fan{i}") for i in range(fans))
    spec = ScenarioSpec(
        edges=(EdgeSpec(name="hall", clients=clients),
               EdgeSpec(name="hub")),
        inter_edge=(InterEdgeLinkSpec(a="hall", b="hub"),),
        policy=policy)
    return ClusterDeployment(spec, config=config)


def _drive_phase(deployment: ClusterDeployment, phase: str,
                 scenes: typing.Sequence[int],
                 viewpoints: tuple[float, float],
                 duration_s: float, interval_s: float) -> None:
    """Closed-loop captures of the stage scenes from every fan.

    Each fan draws a scene and a viewpoint in ``viewpoints`` from its
    own named RNG stream (deterministic per seed), performs one
    recognition, thinks for ``interval_s``, and repeats until
    ``duration_s`` of simulated time elapses.
    """
    deadline = deployment.env.now + duration_s

    def loop(client, rng):
        seq = 0
        while deployment.env.now < deadline:
            scene = int(scenes[rng.integers(len(scenes))])
            viewpoint = float(rng.uniform(*viewpoints))
            task = deployment.recognition_task(
                scene, viewpoint=viewpoint, user=client.name, seq=seq)
            seq += 1
            yield deployment.env.process(client.perform(task))
            yield interval_s

    for client in deployment.all_clients:
        rng = deployment.rng.stream(
            f"workload.concert.{phase}.{client.name}")
        deployment.env.process(loop(client, rng))
    deployment.run_for(duration_s)


def drive_concert_drift(deployment: ClusterDeployment,
                        scenes: typing.Sequence[int] = DEFAULT_SCENES,
                        hall_s: float = DEFAULT_HALL_S,
                        hub_s: float = DEFAULT_HUB_S,
                        interval_s: float = DEFAULT_INTERVAL_S) -> int:
    """The two-act drift workload; returns the index of the first
    post-handoff record (so callers can split the phases).

    Act 1 — the show: every fan captures the stage scenes near-frontal
    at the hall.  Intermission — the policy's pre-warm budgets (if any)
    push the hall's hottest results + layer activations to the hub,
    then every fan hands off.  Act 2 — drifted re-captures of the same
    scenes at the hub.
    """
    _drive_phase(deployment, "hall", scenes, HALL_VIEWPOINTS,
                 hall_s, interval_s)
    deployment.prewarm("hall", "hub", client_name="fans")
    for client in deployment.all_clients:
        deployment.env.process(deployment.handoff(client, "hub"))
    deployment.run_for(5.0)  # drain in-flight work, land the push
    first_hub_record = len(deployment.recorder.records)
    _drive_phase(deployment, "hub", scenes, HUB_VIEWPOINTS,
                 hub_s, interval_s)
    return first_hub_record


def _summarize(deployment: ClusterDeployment, policy: str,
               first_hub_record: int) -> LayerReuseRow:
    recorder = deployment.recorder
    records = recorder.select(task_kind="recognition")
    served_outcomes = (OUTCOME_HIT, OUTCOME_MISS, OUTCOME_PARTIAL)
    served = [r for r in records if r.outcome in served_outcomes]
    summary = LatencySummary.of([r.latency_s for r in served])
    hub_phase = [r for r in recorder.records[first_hub_record:]
                 if r.task_kind == "recognition"
                 and r.outcome in served_outcomes]
    hub_summary = LatencySummary.of([r.latency_s for r in hub_phase])
    hub_partials = sum(1 for r in hub_phase
                       if r.outcome == OUTCOME_PARTIAL and r.edge == "hub")
    return LayerReuseRow(
        policy=policy,
        requests=len(records), served=len(served),
        partials=sum(1 for r in served if r.outcome == OUTCOME_PARTIAL),
        hub_partials=hub_partials,
        partial_ratio=recorder.partial_ratio(task_kind="recognition"),
        hit_ratio=recorder.hit_ratio(task_kind="recognition"),
        mean_ms=summary.mean * 1e3, p95_ms=summary.p95 * 1e3,
        hub_mean_ms=hub_summary.mean * 1e3,
        saved_compute_s=recorder.saved_compute_s(task_kind="recognition"),
        layer_entries_prewarmed=sum(e.layer_entries
                                    for e in deployment.prewarm_log),
        prewarm_bytes=sum(e.size_bytes for e in deployment.prewarm_log),
        layer_seeded=deployment.counts()["layer_seeded"])


def run_layer_reuse(policies: typing.Sequence[str] = POLICY_NAMES,
                    fans: int = DEFAULT_FANS,
                    scenes: typing.Sequence[int] = DEFAULT_SCENES,
                    hall_s: float = DEFAULT_HALL_S,
                    hub_s: float = DEFAULT_HUB_S,
                    interval_s: float = DEFAULT_INTERVAL_S,
                    layer_plan_margin_s: float = 0.0,
                    seed: int = 0) -> list[LayerReuseRow]:
    """Run the policy ladder over the concert-hall drift workload."""
    rows = []
    for name in policies:
        deployment = build_concert_hall(
            seed=seed,
            policy=policy_spec(name,
                               layer_plan_margin_s=layer_plan_margin_s),
            fans=fans)
        first_hub = drive_concert_drift(
            deployment, scenes=scenes, hall_s=hall_s, hub_s=hub_s,
            interval_s=interval_s)
        rows.append(_summarize(deployment, name, first_hub))
    return rows
