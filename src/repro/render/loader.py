"""The three-stage model loading pipeline measured by Figure 2b.

"To execute a rendering task, the renderer has to load the 3D model into
memory first and draw objects on the display."  Loading decomposes into:

1. **fetch** — move the bytes to the device (network; priced by links).
2. **parse** — decode the file format into engine-ready structures
   (CPU-bound; proportional to file size at the device's parse rate).
3. **upload** — copy the parsed geometry to the GPU (bus-bound;
   proportional to *loaded* size at the bus rate).

The edge caches the *loaded data* (parsed form), so a cache hit skips the
parse stage entirely and fetches over the fast access link — the two
effects that produce the up-to-75.86% reduction.
"""

from __future__ import annotations

import dataclasses

from repro.render.mesh import LOADED_EXPANSION


@dataclasses.dataclass(frozen=True)
class GpuProfile:
    """Device-side loading rates.

    Attributes:
        name: Diagnostic name.
        parse_mb_per_s: File-format decode throughput (CPU).
        upload_mb_per_s: Host-to-GPU copy throughput (bus).
        parse_overhead_s: Fixed per-model decode setup cost.
    """

    name: str
    parse_mb_per_s: float
    upload_mb_per_s: float
    parse_overhead_s: float = 0.002

    def __post_init__(self) -> None:
        if self.parse_mb_per_s <= 0 or self.upload_mb_per_s <= 0:
            raise ValueError("rates must be > 0")
        if self.parse_overhead_s < 0:
            raise ValueError("parse_overhead_s must be >= 0")


#: Pixel-class phone: modest single-core decode, mobile bus.
MOBILE_GPU_2018 = GpuProfile("pixel-gpu-2018",
                             parse_mb_per_s=12.0, upload_mb_per_s=60.0)
#: Edge server: faster decode (desktop cores), PCIe upload.
EDGE_GPU_2018 = GpuProfile("edge-gpu-2018",
                           parse_mb_per_s=45.0, upload_mb_per_s=250.0)


@dataclasses.dataclass(frozen=True)
class LoadCost:
    """Seconds per stage for loading one model."""

    parse_s: float
    upload_s: float

    @property
    def total_s(self) -> float:
        return self.parse_s + self.upload_s


class ModelLoader:
    """Computes the stage costs of loading a model on a device."""

    def __init__(self, profile: GpuProfile):
        self.profile = profile

    def parse_time(self, file_bytes: int) -> float:
        """Seconds to decode ``file_bytes`` of RMSH on this device."""
        if file_bytes < 0:
            raise ValueError("file_bytes must be >= 0")
        return (self.profile.parse_overhead_s
                + file_bytes / (self.profile.parse_mb_per_s * 1e6))

    def upload_time(self, loaded_bytes: int) -> float:
        """Seconds to copy ``loaded_bytes`` of geometry to the GPU."""
        if loaded_bytes < 0:
            raise ValueError("loaded_bytes must be >= 0")
        return loaded_bytes / (self.profile.upload_mb_per_s * 1e6)

    def load_cost_from_file(self, file_bytes: int) -> LoadCost:
        """Cost of the full parse+upload path (cache miss / Origin)."""
        return LoadCost(parse_s=self.parse_time(file_bytes),
                        upload_s=self.upload_time(
                            int(file_bytes * LOADED_EXPANSION)))

    def load_cost_from_loaded(self, loaded_bytes: int) -> LoadCost:
        """Cost when parsed data arrives ready-made (cache hit)."""
        return LoadCost(parse_s=0.0, upload_s=self.upload_time(loaded_bytes))
