"""Deployment configuration for a CoIC experiment.

One :class:`CoICConfig` fully determines a run: network shape, task
calibration, cache behaviour, and seed.  Benches sweep fields of this
object; everything else flows from it, so every figure is reproducible
from its parameter set alone.
"""

from __future__ import annotations

import dataclasses
import math
import numbers


# Each range check below is one chained comparison against ``math.inf``,
# which a NaN also fails: an inf or NaN rate, delay or time would build a
# deployment whose first request then crashes on a non-finite timeout
# or clocks every message in zero time.


@dataclasses.dataclass
class NetworkConfig:
    """The two-hop network of Figure 1: mobile -- edge -- cloud.

    Defaults reproduce the paper's testbed: 802.11ac WiFi on the access
    side ("up to 400 Mbps"), a `tc`-shaped backhaul to the cloud.  The
    ``lte_*`` fields parameterize the alternative attachment the
    architecture slide names ("LTE EPC or WiFi AP"): asymmetric
    up/downlink plus the EPC core's extra forwarding latency, selected
    per client via ``ClientSpec(access="lte")``.
    """

    wifi_mbps: float = 400.0
    wifi_delay_ms: float = 1.0
    wifi_jitter_ms: float = 0.0
    backhaul_mbps: float = 40.0
    backhaul_delay_ms: float = 10.0
    backhaul_jitter_ms: float = 0.0
    loss_rate: float = 0.0
    lte_downlink_mbps: float = 80.0
    lte_uplink_mbps: float = 20.0
    lte_radio_delay_ms: float = 10.0
    lte_core_delay_ms: float = 15.0
    lte_jitter_ms: float = 3.0

    def __post_init__(self) -> None:
        if not all(0 < mbps < math.inf for mbps in (
                self.wifi_mbps, self.backhaul_mbps,
                self.lte_downlink_mbps, self.lte_uplink_mbps)):
            raise ValueError("bandwidths must be finite and > 0")
        if not all(0 <= ms < math.inf for ms in (
                self.wifi_delay_ms, self.backhaul_delay_ms,
                self.wifi_jitter_ms, self.backhaul_jitter_ms,
                self.lte_radio_delay_ms, self.lte_core_delay_ms,
                self.lte_jitter_ms)):
            raise ValueError("delays/jitters must be finite and >= 0")
        if not 0 <= self.loss_rate < 1:
            raise ValueError("loss_rate must be in [0, 1)")


@dataclasses.dataclass
class RecognitionConfig:
    """Object-recognition workload calibration.

    Attributes:
        network: Zoo network name (``vgg16``/``resnet50``/``mobilenet_v2``).
        descriptor_dim: Compact descriptor dimension.
        resolution / quality: Camera frame encoding (drives upload size).
        n_classes: Distinct objects in the world.
        viewpoint_scale / noise_sigma: Embedding geometry knobs.
        threshold: Cosine-distance match threshold; None derives one from
            the geometry via ``EmbeddingSpace.suggest_threshold``.
        max_viewpoint_delta: Viewpoint spread the derived threshold must
            tolerate between two users of the same object.
        descriptor_source: ``"edge"`` — the client uploads the frame and
            the edge extracts the descriptor (GPU-poor 2018 phones);
            ``"client"`` — the phone extracts and uploads only the
            descriptor (+ frame if ``attach_input``).
        attach_input: With client-side descriptors, whether the frame
            rides along for the miss path (single round trip) or is
            fetched on demand (extra RTT on miss).
        speculative_forward: Edge optimization — forward the frame to the
            cloud *concurrently* with extraction+lookup, so a miss costs
            max(edge work, cloud round trip) instead of their sum.  Hits
            waste the forwarded bytes; the A8 ablation quantifies the
            trade.  Off by default (not in the paper).
    """

    network: str = "vgg16"
    descriptor_dim: int = 128
    resolution: str = "4k"
    quality: int = 85
    n_classes: int = 500
    viewpoint_scale: float = 0.10
    noise_sigma: float = 0.02
    threshold: float | None = None
    max_viewpoint_delta: float = 1.0
    descriptor_source: str = "edge"
    attach_input: bool = True
    speculative_forward: bool = False

    def __post_init__(self) -> None:
        if self.descriptor_source not in ("edge", "client"):
            raise ValueError(
                f"descriptor_source must be 'edge' or 'client', "
                f"got {self.descriptor_source!r}")
        # A NaN threshold passes ``< 0`` and then misses every lookup
        # (``d <= nan``); an infinite one hits every lookup.
        if self.threshold is not None and not (
                math.isfinite(self.threshold) and self.threshold >= 0):
            raise ValueError("threshold must be finite and >= 0")
        if not math.isfinite(self.max_viewpoint_delta):
            raise ValueError("max_viewpoint_delta must be finite")


@dataclasses.dataclass
class RenderingConfig:
    """3D model loading calibration (Figure 2b).

    ``catalog_sizes_kb`` are the file sizes in the world's model catalog;
    the Figure 2b defaults span the poster's 231 KB .. ~15 MB range.
    """

    catalog_sizes_kb: tuple = (231, 1949, 5013, 10737, 15053)
    #: Cloud model store read latency (disk/object storage).
    storage_read_ms: float = 20.0
    #: Fixed per-load client cost: engine scheduling, GL context, request
    #: serialization.  Dominates for tiny models, vanishes for big ones —
    #: which is why Figure 2b's relative reduction grows with model size.
    client_overhead_ms: float = 30.0

    def __post_init__(self) -> None:
        if not self.catalog_sizes_kb:
            raise ValueError("catalog must be non-empty")
        if not all(0 < size < math.inf for size in self.catalog_sizes_kb):
            raise ValueError("catalog sizes must be finite and > 0")
        if not 0 <= self.storage_read_ms < math.inf:
            raise ValueError("storage_read_ms must be finite and >= 0")
        if not 0 <= self.client_overhead_ms < math.inf:
            raise ValueError("client_overhead_ms must be finite and >= 0")


@dataclasses.dataclass
class VrConfig:
    """Panorama streaming calibration.

    ``render_ms`` is the cloud GPU's time to render one panoramic frame
    (FlashBack-class engines: tens of ms for 4K equirect).
    """

    resolution: str = "4k"
    quality: int = 80
    render_ms: float = 30.0
    yaw_cells: int = 1
    pitch_cells: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.render_ms < math.inf:
            raise ValueError("render_ms must be finite and >= 0")


@dataclasses.dataclass
class CacheConfig:
    """Edge cache shape."""

    capacity_mb: float = 2048.0
    policy: str = "lru"
    vector_index: str = "linear"
    #: Fixed edge-side bookkeeping time charged per insert.
    insert_ms: float = 1.0
    #: Vector storage dtype ("float32" or "float64").  Descriptors are
    #: float32 at the source, so the "float32" default stores them
    #: value-exactly and the memory-bound scan streams half the bytes;
    #: "float64" is the oracle tier (every pinned golden digest is
    #: bit-identical under both; see docs/index_tiers.md).
    vector_dtype: str = "float32"

    def __post_init__(self) -> None:
        if not 0 < self.capacity_mb < math.inf:
            raise ValueError("capacity_mb must be finite and > 0")
        if not 0 <= self.insert_ms < math.inf:
            raise ValueError("insert_ms must be finite and >= 0")
        if self.vector_dtype not in ("float32", "float64"):
            raise ValueError(
                f"vector_dtype must be float32/float64, "
                f"got {self.vector_dtype!r}")

    @property
    def capacity_bytes(self) -> int:
        return int(self.capacity_mb * 1e6)


@dataclasses.dataclass
class CoICConfig:
    """Everything a deployment needs, in one place."""

    network: NetworkConfig = dataclasses.field(default_factory=NetworkConfig)
    recognition: RecognitionConfig = dataclasses.field(
        default_factory=RecognitionConfig)
    rendering: RenderingConfig = dataclasses.field(
        default_factory=RenderingConfig)
    vr: VrConfig = dataclasses.field(default_factory=VrConfig)
    cache: CacheConfig = dataclasses.field(default_factory=CacheConfig)
    seed: int = 0
    #: Parallel request handlers at the edge / cloud (compute slots).
    edge_workers: int = 4
    cloud_workers: int = 8
    #: Client-side RPC deadline.
    request_timeout_s: float = 60.0

    def __post_init__(self) -> None:
        # A worker count sizes a Resource, which admits while fewer
        # than ``capacity`` hold it: 2.5 would serve as 3, inf as
        # unbounded.
        for name in ("edge_workers", "cloud_workers"):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral) or value < 1):
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")
        if not 0 < self.request_timeout_s < math.inf:
            raise ValueError("request_timeout_s must be finite and > 0")
