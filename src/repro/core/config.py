"""Deployment configuration for a CoIC experiment.

One :class:`CoICConfig` fully determines a run: network shape, task
calibration, cache behaviour, and seed.  Benches sweep fields of this
object; everything else flows from it, so every figure is reproducible
from its parameter set alone.

Every config and spec field states its domain once, in its annotation
(``wifi_mbps: Positive = 400.0``), and :class:`Declared` refuses a value
outside it whenever the field is set, not when a request first crashes.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import math
import numbers
import types
import typing
from typing import Annotated, Literal


@dataclasses.dataclass(frozen=True)
class Domain:
    """What a number field may hold: ``text`` completes "<field> must
    be ...", ``admits`` tests a value already known to be a number of
    the field's type."""

    text: str
    admits: typing.Callable[[typing.Any], bool]


# Each range below is one chained comparison, which a NaN fails: an inf
# or NaN rate, delay or time would build a deployment whose first
# request then crashes on a non-finite timeout or clocks every message
# in zero time.  "finite" leads the text of every finite kind.
Positive = Annotated[float, Domain("finite and > 0",
                                   lambda v: 0 < v < math.inf)]
NonNegative = Annotated[float, Domain("finite and >= 0",
                                      lambda v: 0 <= v < math.inf)]
Finite = Annotated[float, Domain("finite", math.isfinite)]
Probability = Annotated[float, Domain("in [0, 1)", lambda v: 0 <= v < 1)]
#: A price or budget: inf means unlimited.
Unbounded = Annotated[float, Domain(">= 0 (inf allowed)",
                                    lambda v: v >= 0)]
#: A size or count of things there must be at least one of.
Count = Annotated[int, Domain("an int >= 1", lambda v: v >= 1)]
#: A count, limit or id that may be zero.
Natural = Annotated[int, Domain("an int >= 0", lambda v: v >= 0)]
#: A JPEG quality level, the range ``vision.image`` prices.
Quality = Annotated[int, Domain("an int in 1..100",
                                lambda v: 1 <= v <= 100)]
#: A host or operator name.
Name = Annotated[str, Domain("a non-empty str", bool)]


def _refuse() -> typing.NoReturn:
    raise ValueError


def _rule(hint: typing.Any) -> tuple[str, typing.Callable]:
    """The domain text of a field annotation and its check, which
    returns the value it admits (a list as a tuple) or raises
    ``ValueError``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Annotated:
        kind, domain = args[0], hint.__metadata__[0]
        # A bool is not a number, and an int field takes no float.  The
        # exact type, the common case, skips the ABC check.
        base = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
        return domain.text, lambda v: (
            v if (v.__class__ is kind or isinstance(v, base)
                  and not isinstance(v, bool))
            and domain.admits(v) else _refuse())
    if origin is Literal:
        return (f"one of {', '.join(map(repr, args))}",
                lambda v: v if v in args else _refuse())
    if origin in (typing.Union, types.UnionType):
        (inner,) = (a for a in args if a is not type(None))
        text, check = _rule(inner)
        return f"{text} or None", lambda v: None if v is None else check(v)
    if origin is tuple:
        if args[-1] is Ellipsis:
            text, check = _rule(args[0])
            return f"{text} (each item)", lambda v: tuple(
                check(item) for item in _items(v))
        rules = [_rule(a) for a in args]

        def fixed(v):
            items = _items(v)
            if len(items) != len(rules):
                _refuse()
            return tuple(check(item)
                         for (_, check), item in zip(rules, items))
        return f"[{', '.join(t for t, _ in rules)}]", fixed
    article = "an" if hint.__name__[0] in "AEIOU" else "a"
    return f"{article} {hint.__name__}", lambda v: (
        v if isinstance(v, hint) else _refuse())


def _items(value: typing.Any) -> tuple:
    """A tuple field's items: any iterable but a string or a mapping,
    whose iteration would build a wrong value that looks right."""
    if value.__class__ is tuple:
        return value
    if (isinstance(value, (str, bytes, collections.abc.Mapping))
            or not isinstance(value, collections.abc.Iterable)):
        _refuse()
    return tuple(value)


def _hold(label: str, rule: tuple[str, typing.Callable],
          value: typing.Any) -> typing.Any:
    text, admit = rule
    try:
        return admit(value)
    except ValueError:
        raise _refusal(label, text, value) from None


def _refusal(label: str, text: str, value: typing.Any) -> ValueError:
    return ValueError(f"{label} must be {text}, got {value!r}")


def check(kind: typing.Any, value: typing.Any, label: str) -> typing.Any:
    """``value`` if it is in ``kind``'s domain, else a ``ValueError``
    naming ``label``: the field check, for an argument."""
    return _hold(label, _rule(kind), value)


@functools.cache
def _checks(cls: type) -> dict:
    """``{field: ("Class.field", annotation, rule)}`` for ``cls``: the
    declarations read once per class."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return {f.name: (f"{cls.__name__}.{f.name}", hints[f.name],
                     _rule(hints[f.name]))
            for f in dataclasses.fields(cls)}


@functools.cache
def _each(cls: type) -> tuple:
    """``(field, "Class.field", text, admit)`` per field of ``cls``,
    flat: what a frozen instance's construction walks."""
    return tuple((name, label, text, admit) for name, (label, _, (
        text, admit)) in _checks(cls).items())


class Declared:
    """Base of every config and spec dataclass: each field is held to
    its annotation whenever it is set, and a list is stored as a
    tuple."""

    def __post_init__(self) -> None:
        # A mutable class's __init__ sets each field through
        # __setattr__, which holds it; a frozen one's bypasses it.
        if not self.__dataclass_params__.frozen:
            return
        fields = self.__dict__
        for name, label, text, admit in _each(type(self)):
            value = fields[name]
            try:
                held = admit(value)
            except ValueError:
                raise _refusal(label, text, value) from None
            if held is not value:
                fields[name] = held

    def __setattr__(self, name: str, value: typing.Any) -> None:
        checks = _checks(type(self))
        if name not in checks:
            raise AttributeError(
                f"{type(self).__name__} has no field {name!r}")
        label, _, rule = checks[name]
        object.__setattr__(self, name, _hold(label, rule, value))


@dataclasses.dataclass
class NetworkConfig(Declared):
    """The two-hop network of Figure 1: mobile -- edge -- cloud.

    Defaults reproduce the paper's testbed: 802.11ac WiFi on the access
    side ("up to 400 Mbps"), a `tc`-shaped backhaul to the cloud.  The
    ``lte_*`` fields parameterize the alternative attachment the
    architecture slide names ("LTE EPC or WiFi AP"): asymmetric
    up/downlink plus the EPC core's extra forwarding latency, selected
    per client via ``ClientSpec(access="lte")``.
    """

    wifi_mbps: Positive = 400.0
    wifi_delay_ms: NonNegative = 1.0
    wifi_jitter_ms: NonNegative = 0.0
    backhaul_mbps: Positive = 40.0
    backhaul_delay_ms: NonNegative = 10.0
    backhaul_jitter_ms: NonNegative = 0.0
    loss_rate: Probability = 0.0
    lte_downlink_mbps: Positive = 80.0
    lte_uplink_mbps: Positive = 20.0
    lte_radio_delay_ms: NonNegative = 10.0
    lte_core_delay_ms: NonNegative = 15.0
    lte_jitter_ms: NonNegative = 3.0


@dataclasses.dataclass
class RecognitionConfig(Declared):
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
    descriptor_dim: Count = 128
    resolution: str = "4k"
    quality: Quality = 85
    n_classes: Count = 500
    viewpoint_scale: NonNegative = 0.10
    noise_sigma: NonNegative = 0.02
    #: A NaN threshold would miss every lookup (``d <= nan``), an
    #: infinite one hit every lookup.
    threshold: NonNegative | None = None
    max_viewpoint_delta: NonNegative = 1.0
    descriptor_source: Literal["edge", "client"] = "edge"
    attach_input: bool = True
    speculative_forward: bool = False


@dataclasses.dataclass
class RenderingConfig(Declared):
    """3D model loading calibration (Figure 2b).

    ``catalog_sizes_kb`` are the file sizes in the world's model catalog;
    the Figure 2b defaults span the poster's 231 KB .. ~15 MB range.
    """

    catalog_sizes_kb: tuple[Positive, ...] = (231, 1949, 5013, 10737, 15053)
    #: Cloud model store read latency (disk/object storage).
    storage_read_ms: NonNegative = 20.0
    #: Fixed per-load client cost: engine scheduling, GL context, request
    #: serialization.  Dominates for tiny models, vanishes for big ones —
    #: which is why Figure 2b's relative reduction grows with model size.
    client_overhead_ms: NonNegative = 30.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.catalog_sizes_kb:
            raise ValueError("catalog must be non-empty")


@dataclasses.dataclass
class VrConfig(Declared):
    """Panorama streaming calibration.

    ``render_ms`` is the cloud GPU's time to render one panoramic frame
    (FlashBack-class engines: tens of ms for 4K equirect).
    """

    resolution: str = "4k"
    quality: Quality = 80
    render_ms: NonNegative = 30.0
    yaw_cells: Count = 1
    pitch_cells: Count = 1


@dataclasses.dataclass
class CacheConfig(Declared):
    """Edge cache shape."""

    capacity_mb: Positive = 2048.0
    policy: str = "lru"
    vector_index: str = "linear"
    #: Fixed edge-side bookkeeping time charged per insert.
    insert_ms: NonNegative = 1.0
    #: Vector storage dtype ("float32" or "float64").  Descriptors are
    #: float32 at the source, so the "float32" default stores them
    #: value-exactly and the memory-bound scan streams half the bytes;
    #: "float64" is the oracle tier (every pinned golden digest is
    #: bit-identical under both; see docs/index_tiers.md).
    vector_dtype: Literal["float32", "float64"] = "float32"

    @property
    def capacity_bytes(self) -> int:
        return int(self.capacity_mb * 1e6)


@dataclasses.dataclass
class CoICConfig(Declared):
    """Everything a deployment needs, in one place."""

    network: NetworkConfig = dataclasses.field(default_factory=NetworkConfig)
    recognition: RecognitionConfig = dataclasses.field(
        default_factory=RecognitionConfig)
    rendering: RenderingConfig = dataclasses.field(
        default_factory=RenderingConfig)
    vr: VrConfig = dataclasses.field(default_factory=VrConfig)
    cache: CacheConfig = dataclasses.field(default_factory=CacheConfig)
    seed: Natural = 0
    #: Parallel request handlers at the edge / cloud (compute slots).  A
    #: worker count sizes a Resource, which admits while fewer than
    #: ``capacity`` hold it: 2.5 would serve as 3, inf as unbounded.
    edge_workers: Count = 4
    cloud_workers: Count = 8
    #: Client-side RPC deadline.
    request_timeout_s: Positive = 60.0
