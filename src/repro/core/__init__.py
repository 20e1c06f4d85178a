"""CoIC core: the paper's contribution.

The cooperative immersive-computing framework, assembled from:

* :mod:`~repro.core.descriptors` — feature descriptors: vectors for DNN
  recognition (threshold matching), content hashes for 3D models and
  panoramas (exact matching).
* :mod:`~repro.core.index` — descriptor indexes: exact table, linear
  scan and hyperplane LSH, over the row stores of
  :mod:`~repro.core.store`; :mod:`~repro.core.sketch` — input and
  affinity sketches.
* :mod:`~repro.core.cache` / :mod:`~repro.core.policies` — the edge IC
  cache with byte-capacity enforcement and pluggable eviction.
* :mod:`~repro.core.client` / :mod:`~repro.core.edge` /
  :mod:`~repro.core.cloud` — the three node roles of Figure 1 (one
  edge class: federation is a peer list, not a subclass).
* :mod:`~repro.core.pipeline` — the edge request pipeline (lookup ->
  resolve -> respond, behind admit / layer_reuse stages only when the
  policy asks for them; resolve owns the miss order
  hit / peers / cloud, respond is the only ``ic_result`` sender) and its
  overload layer: admission control, peer offload, predictive handoff
  pre-warm.
* :mod:`~repro.core.federation` — the edge-to-edge ``peer_lookup``
  protocol and its asking side (probe order, probe loop, settlement).
* :mod:`~repro.core.balancer` — the one place that ranks neighbours:
  the least-loaded / affinity offload balancers (every pick an auction,
  free and open without a broker) and the summary scores ``probe_order``
  sorts by.
* :mod:`~repro.core.baselines` — the paper's Origin baseline (full
  offload, no cache) and a local-only reference.
* :mod:`~repro.core.scenario` / :mod:`~repro.core.cluster` — the
  declarative scenario layer: dict-serializable deployment specs and the
  one builder that wires any of them —
  ``ClusterDeployment(ScenarioSpec.single_edge(n) | .federated(...) |
  .metro(...))`` is the only way to build a system.
* :mod:`~repro.core.layer_cache`, :mod:`~repro.core.privacy` — the §4
  future-work directions: per-DNN-layer result reuse and descriptor
  privacy protection.
"""

from repro.core.cache import ICCache
from repro.core.cluster import ClusterDeployment
from repro.core.config import CoICConfig
from repro.core.scenario import ScenarioSpec

__all__ = ["ClusterDeployment", "CoICConfig", "ScenarioSpec"]
