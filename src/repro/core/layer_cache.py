"""Fine-grained DNN-layer caching (paper §4, ongoing work).

The poster caches whole task results; §4 proposes "efficiently and
accurately identify reusable IC workload in fine-grained (e.g., the
result of a specific DNN layer)".  This module implements that idea in
the style of Potluck [ASPLOS'18, cited by the paper]:

* Requests are keyed by a *cheap* input descriptor (a perceptual sketch
  computed in milliseconds, not a backbone pass — otherwise there would
  be nothing left to save).
* The cache stores, per past input, the activations of selected tap
  layers.
* A new input that matches a past input within a layer's reuse threshold
  resumes inference from that layer's cached activation and runs only
  the remaining layers.  Deeper layers demand *tighter* input similarity:
  shallow features tolerate larger input drift than class-level features.

The result interpolates between "full recompute" (no match) and "full
result reuse" (match at the final layer = the poster's coarse cache).
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from repro.core.cache import ICCache
from repro.core.descriptors import VectorDescriptor

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.vision.dnn import ComputeDevice, DnnModel

__all__ = ["LAYER_KIND_PREFIX", "LayerReusePlan", "LayerCacheManager"]

#: Descriptor-kind namespace of layer-activation entries; the transport
#: layer (handoff pre-warm) filters on this prefix.
LAYER_KIND_PREFIX = "layer:"


@dataclasses.dataclass(frozen=True)
class LayerReusePlan:
    """What a layer-cache lookup decided.

    Attributes:
        resume_after: Deepest layer whose activation we can reuse, or
            None for a full recompute.
        compute_gflops: FLOPs that still must run.
        full_result: True when the final result itself was reusable
            (equivalent to a coarse-cache hit).
    """

    resume_after: str | None
    compute_gflops: float
    full_result: bool


class LayerCacheManager:
    """Per-layer activation cache over an :class:`ICCache` backend.

    Args:
        network: The DNN whose layers are cached.
        cache: Byte-budgeted backing store (shared with other IC kinds).
        tap_layers: Which layers' activations are cached, shallow to deep.
            Defaults to every layer.
        base_threshold: Input-sketch match threshold for the *shallowest*
            tap; deeper taps tighten linearly down to ``tighten`` x base.
        tighten: Threshold multiplier at the deepest tap (0 < tighten <= 1).
        device: The compute device that produced the cached activations;
            prices each entry's ``cost_s`` (what re-producing it would
            cost, in *seconds*) for cost-aware eviction in the shared
            cache.  None stores the raw GFLOP count instead (legacy
            behaviour — only comparable to other layer entries, not to
            result entries priced in seconds).
    """

    def __init__(self, network: "DnnModel", cache: ICCache,
                 tap_layers: typing.Sequence[str] | None = None,
                 base_threshold: float = 0.10, tighten: float = 0.4,
                 device: "ComputeDevice | None" = None):
        if not 0 < tighten <= 1:
            raise ValueError("tighten must be in (0, 1]")
        if base_threshold <= 0:
            raise ValueError("base_threshold must be > 0")
        self.network = network
        self.cache = cache
        self.tap_layers = (list(tap_layers) if tap_layers is not None
                           else [layer.name for layer in network.layers])
        for name in self.tap_layers:
            network.layer_index(name)  # validate
        self.base_threshold = base_threshold
        self.tighten = tighten
        self.device = device

    # -- thresholds -------------------------------------------------------------

    def threshold_for(self, layer_name: str) -> float:
        """Reuse threshold for a tap layer (deeper = tighter)."""
        position = self.tap_layers.index(layer_name)
        if len(self.tap_layers) == 1:
            return self.base_threshold
        frac = position / (len(self.tap_layers) - 1)
        scale = 1.0 + frac * (self.tighten - 1.0)
        return self.base_threshold * scale

    @staticmethod
    def _kind(layer_name: str) -> str:
        return f"{LAYER_KIND_PREFIX}{layer_name}"

    # -- tap selection -----------------------------------------------------------

    def layers_through(self, layer_name: str) -> list[str]:
        """Tap layers at or before ``layer_name`` (network order).

        What an extraction pass leaves behind: the backbone runs every
        layer up to the feature tap, so exactly these taps' activations
        exist and can be cached for free.
        """
        cutoff = self.network.layer_index(layer_name)
        return [name for name in self.tap_layers
                if self.network.layer_index(name) <= cutoff]

    def layers_after(self, layer_name: str) -> list[str]:
        """Tap layers strictly after ``layer_name`` (network order).

        What a partial inference resumed at ``layer_name`` computes for
        the *current* input — the only activations that are fresh enough
        to re-cache under the new input's sketch.
        """
        cutoff = self.network.layer_index(layer_name)
        return [name for name in self.tap_layers
                if self.network.layer_index(name) > cutoff]

    # -- operations --------------------------------------------------------------

    def insert(self, sketch: np.ndarray, now: float = 0.0,
               layers: typing.Sequence[str] | None = None,
               result: typing.Any = None,
               source_class: int | None = None) -> int:
        """Cache activations of ``layers`` (default: all taps) under the
        input sketch.  Returns how many entries were stored.

        ``result`` attaches the inference result produced for this
        input to the *final-layer* tap (the last layer's activation is
        the result), so a later full-result reuse returns what was
        actually cached — a false sketch match then surfaces as an
        incorrect record instead of being silently oracle-corrected.

        ``source_class`` records which object class the cached
        activations were computed *from*.  A resumed pass whose input
        has drifted past the coarse match threshold inherits the cached
        input's class-level features, so the serving stage needs to
        know what class that was to score the (possibly wrong) resumed
        result honestly.  None (legacy inserts) keeps the historical
        oracle behaviour.
        """
        final_layer = self.network.layers[-1].name
        targets = list(layers if layers is not None else self.tap_layers)
        if result is not None and final_layer not in targets:
            # Silently dropping the result would invisibly disable
            # full-result reuse (servable() rejects marker-only final
            # taps) — surface the misconfiguration instead.
            raise ValueError(
                f"cannot attach a result: final layer {final_layer!r} "
                f"is not among the inserted taps {targets!r}")
        stored = 0
        for name in targets:
            layer = self.network.layer(name)
            descriptor = VectorDescriptor(kind=self._kind(name),
                                          vector=sketch)
            payload = ("activation", name, None, source_class)
            size_bytes = layer.output_bytes
            if result is not None and name == final_layer:
                payload = ("activation", name, result, source_class)
                # The attached result rides the entry through capacity
                # accounting and prewarm/federation transfers — it must
                # pay its own bytes, like any cached result.
                size_bytes += getattr(result, "size_bytes", 64)
            gflops = self.network.gflops_between(None, name)
            entry = self.cache.insert(
                descriptor, result=payload,
                size_bytes=size_bytes, now=now,
                cost_s=(self.device.seconds_for_gflops(gflops)
                        if self.device is not None else gflops))
            if entry is not None:
                stored += 1
        return stored

    @staticmethod
    def cached_result(entry) -> typing.Any:
        """The inference result riding a final-layer cache entry, or
        None when the entry carries only the activation marker."""
        payload = entry.result
        if isinstance(payload, tuple) and len(payload) > 2:
            return payload[2]
        return None

    @staticmethod
    def source_class(entry) -> int | None:
        """The object class the cached activation was computed from, or
        None for legacy entries that never recorded one."""
        payload = entry.result
        if isinstance(payload, tuple) and len(payload) > 3:
            return payload[3]
        return None

    def servable(self, layer_name: str, entry) -> bool:
        """Can a probe match at ``layer_name`` actually be served?

        A final-tap match is a *full-result* reuse: there are no layers
        left to run, so the entry must carry the result itself — a
        marker-only entry (legacy :meth:`insert` without ``result``)
        has nothing to return.  Matches at any other tap resume real
        compute and are always servable.
        """
        return (layer_name != self.network.layers[-1].name
                or self.cached_result(entry) is not None)

    def probe_sequence(self) -> typing.Iterator[tuple[str, str, float]]:
        """``(layer_name, cache_kind, threshold)`` triples deep-to-shallow.

        The probe order behind :meth:`plan`, exposed so simulated
        callers (the pipeline's layer-reuse stage) can pay each probe's
        lookup cost at the simulated instant it happens instead of
        batching the charge.
        """
        for name in reversed(self.tap_layers):
            yield name, self._kind(name), self.threshold_for(name)

    def plan_for(self, resume_after: str | None) -> LayerReusePlan:
        """The plan for a probe walk that matched at ``resume_after``
        (None = nothing matched, full recompute)."""
        if resume_after is None:
            return LayerReusePlan(resume_after=None,
                                  compute_gflops=self.network.total_gflops,
                                  full_result=False)
        final_layer = self.network.layers[-1].name
        return LayerReusePlan(
            resume_after=resume_after,
            compute_gflops=self.network.gflops_between(resume_after,
                                                       final_layer),
            full_result=(resume_after == final_layer))

    def plan(self, sketch: np.ndarray, now: float = 0.0) -> LayerReusePlan:
        """Find the deepest reusable layer for this input sketch.

        Agrees with the pipeline's serving walk: a final-tap match
        without an attached result is not :meth:`servable` and is
        skipped, so plan() never promises a free full-result reuse the
        serving stage would decline.
        """
        # Walk taps deep-to-shallow: the deepest servable match wins.
        for name, kind, threshold in self.probe_sequence():
            entry = self.cache.lookup(
                VectorDescriptor(kind=kind, vector=sketch),
                now=now, threshold=threshold)
            if entry is not None and self.servable(name, entry):
                return self.plan_for(name)
        return self.plan_for(None)

    def compute_time(self, plan: LayerReusePlan,
                     device: "ComputeDevice") -> float:
        """Seconds the planned (partial) inference takes on ``device``."""
        if plan.full_result:
            return 0.0
        return (device.invocation_overhead_s
                + device.seconds_for_gflops(plan.compute_gflops))

    def default_chain_cost_s(self, kind: str, extraction_s: float,
                             lookup_s: float, hit_ratio: float,
                             full_s: float) -> float:
        """Expected cost of the default chain a partial serve replaces.

        The chain being short-circuited is extract -> coarse lookup ->
        resolve: extraction and the lookup always run; with probability
        ``1 - hit_ratio`` the coarse lookup misses and the request pays
        the forward path.  That miss cost is estimated from the mean
        observed ``cost_s`` of the kind's live entries — each records
        what resolving its own miss actually cost (cloud round trip,
        federation probe, partial recompute) — falling back to a full
        inference pass on this device when no history exists.

        This is the honest serving baseline: comparing savings against
        *full* inference alone overstates the win whenever a cheap
        coarse hit was likely, letting partial serving lose to the very
        path it replaced.
        """
        costs = [entry.cost_s for entry in self.cache.entries()
                 if entry.kind == kind and entry.cost_s > 0]
        miss_s = (sum(costs) / len(costs)) if costs else full_s
        return extraction_s + lookup_s + (1.0 - hit_ratio) * miss_s
