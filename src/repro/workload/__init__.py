"""Workload generation: who asks for what, when, and from where.

CoIC's benefit is entirely workload-dependent — it exists because
"computation-intensive tasks of mobile IC applications can be similar or
redundant, especially when applications/users are in the close location"
(paper §1.2).  This package turns that observation into controllable
generators:

* :mod:`~repro.workload.zipf` — popularity skew over objects/models.
* :mod:`~repro.workload.mobility` — places, user movement, co-location.
* :mod:`~repro.workload.ar_trace` — AR recognition request streams.
* :mod:`~repro.workload.render_trace` — shared-arena 3D model loads.
* :mod:`~repro.workload.vr_trace` — multi-viewer panorama streams.
* :mod:`~repro.workload.apps` — the redundancy report behind the
  paper's 30-app study.
"""

from repro.workload.apps import RedundancyStats, redundancy_report
from repro.workload.ar_trace import ArRequest, ArTraceGenerator
from repro.workload.mobility import Gravity, Place, RandomWaypointUser, World
from repro.workload.render_trace import ArenaTraceGenerator, LoadRequest
from repro.workload.vr_trace import PanoRequest, VrTraceGenerator
from repro.workload.zipf import ZipfSampler

__all__ = [
    "ArTraceGenerator",
    "ArenaTraceGenerator",
    "RandomWaypointUser",
    "VrTraceGenerator",
    "World",
    "redundancy_report",
]
