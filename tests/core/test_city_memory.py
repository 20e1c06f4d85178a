"""What a moving city keeps alive, measured with tracemalloc.

A city's memory sets how large a crowd the simulator can study.  Most
of its links idle (a client's access pair carries a request a minute),
so an idle link must cost little; and a client's mobility stream is read
once, to draw its itinerary, so nothing may keep it afterwards.
"""

import gc
import tracemalloc

import numpy as np

from repro.core import CoICConfig
from repro.core.cluster import ClusterDeployment
from repro.core.scenario import MobilitySpec, ScenarioSpec

#: Bytes the network layer (links, their stats and transmitters, the
#: topology's sites, leaves and maps) may keep per idle link: about
#: 540 B on CPython 3.11; 1 084 B while every client was a host with
#: five per-host routing maps, and 2 400 B while links, their stats and
#: transmitters carried instance dicts, an empty wait queue and holder
#: set, and a change hook closure each.
LINK_BUDGET_B = 1600

#: Marginal bytes a moving client may keep (its client, leaf, access
#: pair, itinerary and replay process): about 2 990 B on CPython 3.11;
#: 4 167 B while a client was a routed host held in the deployment's
#: access-link map too, and 8 100 B while the network layer was
#: unslotted and the deployment kept the client's mobility stream.
CLIENT_BUDGET_B = 6000

NETWORK_FILES = ("*/repro/net/*", "*/repro/sim/resources.py")


def _city(clients_per_edge: int) -> ScenarioSpec:
    return ScenarioSpec.metro(
        n_edges=4, clients_per_edge=clients_per_edge,
        mobility=MobilitySpec(n_places=16, mean_dwell_s=60.0,
                              duration_s=120.0))


def _build(spec: ScenarioSpec):
    """A moving city, the bytes it keeps and its network layer's share."""
    gc.collect()
    tracemalloc.start()
    try:
        dep = ClusterDeployment(spec, config=CoICConfig(seed=0))
        dep.start_mobility()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    network = snapshot.filter_traces(
        [tracemalloc.Filter(True, pattern) for pattern in NETWORK_FILES])
    return (dep, sum(s.size for s in snapshot.statistics("filename")),
            sum(s.size for s in network.statistics("filename")))


def test_a_moving_city_keeps_lean_links_and_no_mobility_stream():
    _build(_city(1))        # imports and first-use caches out of the way
    small, small_bytes, _ = _build(_city(25))
    dep, kept, network = _build(_city(50))

    links = dep.topology.links()
    assert len(links) == 2 * (200 + 4 + len(dep.spec.inter_edge))
    assert sum(link._transmitter.count for link in links) == 0
    assert network / len(links) < LINK_BUDGET_B
    added = len(dep.all_clients) - len(small.all_clients)
    assert (kept - small_bytes) / added < CLIENT_BUDGET_B

    # Every itinerary is drawn; no generator of a client's stream lives
    # on, in the deployment or anywhere else.
    assert len(dep.itineraries) == 200
    assert not [name for name in dep.rng._streams
                if name.startswith("mobility.user.")]
    names = {f"mobility.user.{c.name}" for c in dep.all_clients}
    assert not [o for o in gc.get_objects()
                if isinstance(o, np.random.Generator)
                and _stream_name(o) in names]


def _stream_name(gen: np.random.Generator) -> str | None:
    """The name a seed-0 :class:`RngStreams` stream was keyed on, if the
    generator is one: its entropy is ``[0, *name_bytes]``."""
    entropy = getattr(gen.bit_generator.seed_seq, "entropy", None)
    if (not isinstance(entropy, np.ndarray) or len(entropy) < 2
            or entropy[0] != 0 or (entropy[1:] > 255).any()):
        return None
    return bytes(entropy[1:].astype(np.uint8)).decode("utf-8", "replace")
