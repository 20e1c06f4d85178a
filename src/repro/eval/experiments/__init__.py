"""One module per reproduced figure / ablation.

========================  ===================================================
Module                    Reproduces
========================  ===================================================
``fig2a``                 Figure 2a — recognition latency vs bandwidth pairs
``fig2b``                 Figure 2b — 3D model load latency vs model size
``thresholds``            A1 — similarity threshold vs hit ratio & accuracy
``sharing``               A2 — co-located users vs cooperative benefit
``eviction``              A3 — eviction policy comparison under Zipf load
``layers``                A4 — fine-grained DNN-layer cache (paper §4)
``privacy_exp``           A5 — descriptor privacy / utility trade-off (§4)
``panorama_exp``          A6 — VR panorama streaming benefit
``index_scaling``         A7 — linear vs LSH scaling
``speculative``           A8 — speculative cloud forwarding on misses
``federation_exp``        A9 — cache cooperation between edges
``mobility_exp``          A10 — mobile multi-edge metro with handoff
``overload_exp``          A11 — overload policies at the hot cell
``affinity_exp``          A12 — cache-affinity vs least-loaded offload
``layer_reuse_exp``       A13 — partial-inference serving from layer caches
``city_scale``            A14 — city-scale kernel gauge (simulated hour)
``federation_economics``  A15 — paid peer cache vs cloud round trip
``real_throughput``       A16 — simulator vs real socket backend, wall clock
``motivation``            M1 — offered-workload redundancy (paper §1.2)
========================  ===================================================
"""

from repro.eval.experiments.fig2a import Fig2aRow, PAPER_BANDWIDTH_PAIRS, run_fig2a
from repro.eval.experiments.fig2b import Fig2bRow, PAPER_MODEL_SIZES_KB, run_fig2b

__all__ = [
    "Fig2aRow",
    "Fig2bRow",
    "PAPER_BANDWIDTH_PAIRS",
    "PAPER_MODEL_SIZES_KB",
    "run_fig2a",
    "run_fig2b",
]
