"""The workload trace both backends replay.

The trace is the contract between the two backends: both replay the
*same* deterministic per-client capture sequence, drawn from the same
named RNG streams (``workload.mobile.<client>``) the simulated driver
uses, with globally unique capture ids.  :func:`build_workload`
materializes that trace once; each item becomes one
``RecognitionTask`` that a ``CoICClient`` performs — on the simulator,
or over real sockets (:mod:`repro.backend.runner`).
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

from repro.sim.rng import RngStreams
from repro.vision.image import RESOLUTIONS, CameraFrame

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import CoICConfig
    from repro.core.scenario import ScenarioSpec


@dataclasses.dataclass(frozen=True)
class WorkloadItem:
    """One recognition request of the deterministic replay trace."""

    client: str
    edge: str
    seq: int
    capture_id: int
    object_class: int
    viewpoint: float

    def frame(self, config: "CoICConfig") -> CameraFrame:
        """The simulated capture this item stands for (parity replay)."""
        rec = config.recognition
        return CameraFrame(object_class=self.object_class,
                           viewpoint=self.viewpoint,
                           resolution=RESOLUTIONS[rec.resolution],
                           quality=rec.quality, user=self.client,
                           seq=self.seq, capture_id=self.capture_id)


def build_workload(spec: "ScenarioSpec", config: "CoICConfig",
                   requests_per_client: int) -> list[WorkloadItem]:
    """The deterministic replay trace for ``spec`` under ``config``.

    Per client (spec order), the class/viewpoint draws replicate the
    simulated driver exactly: ``rng.integers(n_classes)`` then
    ``rng.uniform(-0.5, 0.5)`` on the client's ``workload.mobile.*``
    stream.  Capture ids count up globally in trace order, mirroring
    the deployment's shared capture counter under sequential replay.
    """
    rng_streams = RngStreams(seed=config.seed)
    rec = config.recognition
    capture_ids = itertools.count(1)
    items: list[WorkloadItem] = []
    for espec in spec.edges:
        for cspec in espec.clients:
            rng = rng_streams.stream(f"workload.mobile.{cspec.name}")
            for seq in range(requests_per_client):
                object_class = int(rng.integers(rec.n_classes))
                viewpoint = float(rng.uniform(-0.5, 0.5))
                items.append(WorkloadItem(
                    client=cspec.name, edge=espec.name, seq=seq,
                    capture_id=next(capture_ids),
                    object_class=object_class, viewpoint=viewpoint))
    return items
