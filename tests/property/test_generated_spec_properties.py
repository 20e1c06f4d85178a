"""Conservation on generated scenarios.

Hypothesis draws small ``ScenarioSpec``s -- one to three edges, federated
or isolated, static or moving users, and an overload policy (admission,
peer offload, handoff pre-warm) -- and drives recognition traffic
through each for about twenty simulated seconds, then stops issuing and
drains.  Whatever the spec, the end state must balance:

* every issued request has exactly one terminal record;
* no client has a request in flight;
* the edges' reply-outcome counts equal the recorder's outcome counts;
* an inert ``EdgePolicySpec()`` behaves exactly like no policy.

Clients issue open loop, so a busy edge builds a backlog and its policy
acts (sheds, offloads, gossips summaries).  The client deadline is set
longer than any backlog here can last: an edge counts the replies it
sends (docs/real_backend.md, "The stats frame"), so a reply that lands
after its client gave up would count at the edge as well as an error
at the client, and the third line would not hold by definition.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core import CoICConfig
from repro.core.cluster import ClusterDeployment
from repro.core.metrics import (
    OUTCOME_ERROR,
    OUTCOME_HIT,
    OUTCOME_MISS,
    OUTCOME_PARTIAL,
    OUTCOME_SHED,
)
from repro.core.scenario import EdgePolicySpec, MobilitySpec, ScenarioSpec

SENDING_S = 20.0
#: Client deadline, and the longest the drain may take.
DEADLINE_S = 600.0
INTERVAL_S = 0.25
OUTCOMES = (OUTCOME_HIT, OUTCOME_MISS, OUTCOME_PARTIAL, OUTCOME_SHED,
            OUTCOME_ERROR)
#: What a static user looks at (a moving one sees its place's classes).
STATIC_CLASSES = tuple(range(8))
#: Few places and a short dwell, so moving users hand off within the
#: issuing window and classes repeat (hits as well as misses).
MOBILITY = MobilitySpec(n_places=6, objects_per_place=3, mean_dwell_s=4.0,
                        duration_s=SENDING_S)

policies = st.builds(
    EdgePolicySpec,
    admission=st.sampled_from(["none", "shed"]),
    queue_limit=st.sampled_from([1, 2, 8]),
    offload=st.sampled_from(["none", "least_loaded", "affinity"]),
    summary_refresh_s=st.just(2.0),
    prewarm_top_k=st.sampled_from([0, 2]))

scenarios = st.fixed_dictionaries({
    "n_edges": st.integers(min_value=1, max_value=3),
    "clients_per_edge": st.integers(min_value=1, max_value=3),
    "federate": st.booleans(),
    "mobility": st.booleans(),
    "policy": policies,
    "seed": st.integers(min_value=0, max_value=2**16),
})


def build(params: dict, policy) -> tuple[ClusterDeployment, int]:
    """Run one generated scenario to quiescence; (deployment, issued)."""
    spec = ScenarioSpec.metro(
        n_edges=params["n_edges"],
        clients_per_edge=params["clients_per_edge"],
        federate=params["federate"], mobility=MOBILITY, policy=policy)
    dep = ClusterDeployment(spec, config=CoICConfig(
        seed=params["seed"], request_timeout_s=DEADLINE_S))
    moving = params["mobility"]
    if moving:
        dep.start_mobility()
    issued = 0
    stopping = False

    def request_loop(client, rng):
        nonlocal issued
        yield float(rng.uniform(0.0, INTERVAL_S))
        seq = 0
        while not stopping:
            visible = dep.visible_classes(client) if moving \
                else STATIC_CLASSES
            task = dep.recognition_task(
                int(visible[rng.integers(len(visible))]),
                viewpoint=float(rng.uniform(-0.5, 0.5)),
                user=client.name, seq=seq)
            seq += 1
            issued += 1
            # Open loop: a slow reply does not hold the next frame back,
            # so a busy edge queues and the policy has to act.
            dep.env.process(client.perform(task))
            yield float(rng.exponential(INTERVAL_S))

    for i, client in enumerate(dep.all_clients):
        dep.env.process(request_loop(
            client, np.random.default_rng([params["seed"], i])))
    dep.run_for(SENDING_S)
    stopping = True
    drained = SENDING_S
    while (any(client.inflight for client in dep.all_clients)
           and drained < SENDING_S + DEADLINE_S):
        dep.run_for(10.0)
        drained += 10.0
    return dep, issued


def records_fingerprint(dep: ClusterDeployment) -> list[tuple]:
    return [(r.task_kind, r.outcome, r.user, r.start_s, r.end_s, r.edge,
             r.correct, r.detail) for r in dep.recorder.records]


@given(params=scenarios)
@settings(max_examples=12, deadline=None)
def test_generated_scenarios_conserve_requests(params):
    dep, issued = build(params, params["policy"])
    assert issued > 0
    assert issued == len(dep.recorder.records)
    for client in dep.all_clients:
        assert client.inflight == 0, client.name
    counted = dep.counts()
    assert {outcome: counted[outcome] for outcome in OUTCOMES
            if counted[outcome]} == dep.recorder.outcome_counts()


@given(params=scenarios)
@settings(max_examples=3, deadline=None)
def test_an_inert_policy_is_no_policy(params):
    none, _ = build(params, None)
    inert, _ = build(params, EdgePolicySpec())
    assert records_fingerprint(inert) == records_fingerprint(none)
