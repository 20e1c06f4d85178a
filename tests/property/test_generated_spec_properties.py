"""Conservation on generated scenarios, under every same-instant order.

Hypothesis draws small ``ScenarioSpec``s -- one to three edges, federated
or isolated, static or moving users, and an overload policy (admission,
peer offload, handoff pre-warm) -- and drives recognition traffic
(or all three task families: recognition, model loads, panoramas)
through each for about twenty simulated seconds, then stops issuing and
drains.  Whatever the spec, the end state must balance:

* every issued request has exactly one terminal record;
* no client has a request in flight;
* the edges' reply-outcome counts equal the recorder's outcome counts;
* every edge is idle: no compute slot busy or queued, no fetch in
  flight, and the offload balancer holds no pending dispatch;
* an inert ``EdgePolicySpec()`` behaves exactly like no policy.

Moving users draw their hops from a generated gravity timetable (an
optional static bias and an optional 1-3 segment schedule, zero weights
included).  And while any run is live, an edge never has two cloud
fetches of one content digest in flight at once: concurrent misses on a
hash-keyed task share one fetch.

The same spec is also run with the kernel's same-``(time, priority)``
ties popped in seeded random orders (``ordering.shuffle_ties``): each is
a legal schedule, so the end state must balance there too, with the
same outcome multiset as the FIFO run.

Clients issue open loop, so a busy edge builds a backlog and its policy
acts (sheds, offloads, gossips summaries).  The client deadline is set
longer than any backlog here can last: an edge counts the replies it
sends (docs/real_backend.md, "The stats frame"), so a reply that lands
after its client gave up would count at the edge as well as an error
at the client, and the third line would not hold by definition.
"""

import collections

import hypothesis.strategies as st
import numpy as np
from hypothesis import example, given, settings

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

from ordering import shuffle_ties

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
N_PLACES = 6

weights = st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.1,
                                                     max_value=10.0)),
                   min_size=N_PLACES, max_size=N_PLACES).filter(
    lambda w: sum(w) > 0).map(tuple)
mobilities = st.builds(
    MobilitySpec, n_places=st.just(N_PLACES), objects_per_place=st.just(3),
    mean_dwell_s=st.just(4.0), duration_s=st.just(SENDING_S),
    bias=st.one_of(st.none(), weights),
    bias_schedule=st.one_of(st.none(), st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=SENDING_S), weights),
        min_size=1, max_size=3).map(lambda segments: tuple(sorted(segments)))))

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
    "gravity": mobilities,
    "all_families": st.booleans(),
    "policy": policies,
    "seed": st.integers(min_value=0, max_value=2**16),
})


def build(params: dict, policy,
          shuffle_seed: int | None = None) -> tuple[ClusterDeployment, int]:
    """Run one generated scenario to quiescence; (deployment, issued).

    ``shuffle_seed`` pops same-instant ties in that seed's random order
    instead of FIFO.
    """
    spec = ScenarioSpec.metro(
        n_edges=params["n_edges"],
        clients_per_edge=params["clients_per_edge"],
        federate=params["federate"], mobility=params["gravity"],
        policy=policy)
    dep = ClusterDeployment(spec, config=CoICConfig(
        seed=params["seed"], request_timeout_s=DEADLINE_S))
    for edge in dep.edges:
        count_cloud_fetches(edge)
    if shuffle_seed is not None:
        shuffle_ties(dep.env, shuffle_seed)
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
            object_class = int(visible[rng.integers(len(visible))])
            # One frame in eight loads a model and one fetches a
            # panorama: the hash-keyed families, whose misses coalesce.
            family = rng.integers(8) if params["all_families"] else 0
            if family == 1:
                task = dep.model_load_task(object_class % 2)
            elif family == 2:
                task = dep.panorama_task(object_class % 2, seq % 3)
            else:
                task = dep.recognition_task(
                    object_class, viewpoint=float(rng.uniform(-0.5, 0.5)),
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


def count_cloud_fetches(edge) -> None:
    """Wrap ``edge._cloud_call``: at every call, at most one fetch of
    the task's content digest may be in flight from this edge."""
    forward = edge._cloud_call
    in_flight: collections.Counter = collections.Counter()

    def cloud_call(task):
        digest = getattr(task, "digest", None)
        pending = forward(task)
        if digest is not None:
            in_flight[digest] += 1
            assert in_flight[digest] <= 1, (edge.host.name, digest)
            pending.callbacks.append(
                lambda _: in_flight.__setitem__(digest,
                                                in_flight[digest] - 1))
        return pending

    edge._cloud_call = cloud_call


def records_fingerprint(dep: ClusterDeployment) -> list[tuple]:
    return [(r.task_kind, r.outcome, r.user, r.start_s, r.end_s, r.edge,
             r.correct, r.detail) for r in dep.recorder.records]


def assert_balanced(dep: ClusterDeployment, issued: int) -> None:
    """The end-state invariants every run must meet once drained."""
    assert issued > 0
    assert issued == len(dep.recorder.records)
    for client in dep.all_clients:
        assert client.inflight == 0, client.name
    counted = dep.counts()
    assert {outcome: counted[outcome] for outcome in OUTCOMES
            if counted[outcome]} == dep.recorder.outcome_counts()
    for edge in dep.edges:
        assert edge.load == 0, edge.name
        assert not edge._inflight, edge.name
    if dep.balancer is not None:
        assert not any(dep.balancer._pending.values())


@given(params=scenarios)
@settings(max_examples=12, deadline=None)
def test_generated_scenarios_conserve_requests(params):
    assert_balanced(*build(params, params["policy"]))


#: A handoff releases two stalled requests of ``mobile1_1`` (captures 15
#: and 16) in one instant; each call's delivery starts in a process of
#: its own, and capture 15 (class 3) must take the uplink first, as it
#: was issued first.  When the tie popped 16 first, 15 reached ``edge0``
#: after ``mobile0_0``'s class-3 miss was cached and hit: 261 hits / 40
#: misses against FIFO's 260 / 41.
HANDOFF_RELEASES_TWO_CALLS = {
    "n_edges": 2, "clients_per_edge": 2, "federate": False,
    "mobility": True,
    "gravity": MobilitySpec(n_places=N_PLACES, objects_per_place=3,
                            mean_dwell_s=4.0, duration_s=SENDING_S,
                            bias=(0.0, 0.0, 0.0, 1.0, 0.0, 0.0)),
    "all_families": True,
    "policy": EdgePolicySpec(queue_limit=1, summary_refresh_s=2.0),
    "seed": 65535,
}


@given(params=scenarios)
@example(params=HANDOFF_RELEASES_TWO_CALLS)
@settings(max_examples=8, deadline=None)
def test_every_same_instant_order_conserves_requests(params):
    fifo, issued = build(params, params["policy"])
    assert_balanced(fifo, issued)
    for seed in range(3):
        dep, issued = build(params, params["policy"], shuffle_seed=seed)
        assert_balanced(dep, issued)
        assert dep.recorder.outcome_counts() == \
            fifo.recorder.outcome_counts()


@given(params=scenarios)
@settings(max_examples=3, deadline=None)
def test_an_inert_policy_is_no_policy(params):
    none, _ = build(params, None)
    inert, _ = build(params, EdgePolicySpec())
    assert records_fingerprint(inert) == records_fingerprint(none)
