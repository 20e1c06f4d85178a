"""Property tests for the scenario spec codec.

Every spec class round-trips through its dict form —
``from_dict(to_dict(spec)) == spec`` — and the dict form is plain JSON
(``json.loads(json.dumps(d)) == d``), over generated instances of all
nine classes.  The strategies were run against the hand-written
``to_dict`` / ``from_dict`` pairs first, so the field-driven codec that
replaced them is pinned to that format.  Runs under the derandomized
``tier1`` profile.

Every ``int`` field of every spec class — inside ``| None`` and
``tuple[int, ...]`` too — decodes an integral number as an ``int`` and
rejects a bool, a non-finite value or a fraction with a ``ValueError``
that names ``Class.field``.  Every ``bool``, ``str`` and ``float``
field, nested ones included, rejects a value of another JSON type the
same way (a ``float`` field takes any number but a bool).
"""

import dataclasses
import json
import math
import re
import typing

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import scenario
from repro.core.scenario import (
    BackgroundTrafficSpec,
    ClientSpec,
    EdgePolicySpec,
    EdgeSpec,
    InterEdgeLinkSpec,
    MobilitySpec,
    OperatorSpec,
    ScenarioSpec,
    WarmupSpec,
)

names = st.text(alphabet="abcdefgh_0123", min_size=1, max_size=6)
streams = st.one_of(st.just(""), names)


def reals(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False,
                     allow_infinity=False)


positive = reals(1e-3, 1e4)
non_negative = reals(0.0, 1e4)


def tuples_of(elements, **kwargs):
    return st.lists(elements, **kwargs).map(tuple)


def optional(strategy):
    return st.one_of(st.none(), strategy)


clients = st.builds(ClientSpec, name=names,
                    access=st.sampled_from(("wifi", "lte")),
                    wifi_stream=streams)

edges = st.builds(
    EdgeSpec, name=names, clients=tuples_of(clients, max_size=3),
    x=reals(-1e4, 1e4), y=reals(-1e4, 1e4), backhaul_stream=streams,
    peers=optional(tuples_of(names, max_size=3)),
    cache_mb=optional(positive), operator=streams)

operators = st.builds(
    OperatorSpec, name=names, price=non_negative,
    budget=optional(non_negative),
    allow=optional(tuples_of(names, max_size=3)),
    deny=tuples_of(names, max_size=3),
    agreements=st.dictionaries(names, non_negative, max_size=3).map(
        lambda d: tuple(d.items())))

links = st.builds(
    InterEdgeLinkSpec, a=st.just("a"), b=names.filter(lambda n: n != "a"),
    mbps=positive, delay_ms=non_negative)


@st.composite
def mobilities(draw):
    n_places = draw(st.integers(min_value=1, max_value=4))
    weights = tuples_of(reals(0.5, 9.0), min_size=n_places,
                        max_size=n_places)
    starts = draw(st.lists(non_negative, min_size=1, max_size=3,
                           unique=True).map(sorted))
    schedule = tuple((start, draw(weights)) for start in starts)
    return MobilitySpec(
        n_places=n_places,
        objects_per_place=draw(st.integers(min_value=1, max_value=8)),
        extent_m=draw(positive), popularity_alpha=draw(reals(0.0, 3.0)),
        mean_dwell_s=draw(positive), duration_s=draw(positive),
        handoff_latency_s=draw(non_negative), bias=draw(optional(weights)),
        bias_schedule=draw(optional(st.just(schedule))))


backgrounds = st.builds(
    BackgroundTrafficSpec, period_s=positive, peak_util=reals(0.0, 0.99),
    update_s=positive, phase_s=non_negative,
    scope=st.sampled_from(("backhaul", "inter_edge", "all")))

policies = st.builds(
    EdgePolicySpec,
    admission=st.sampled_from(("none", "shed", "redirect")),
    queue_limit=optional(st.integers(min_value=0, max_value=64)),
    offload=st.sampled_from(("none", "least_loaded", "affinity")),
    offload_margin=st.integers(min_value=0, max_value=8),
    summary_refresh_s=positive,
    prewarm_top_k=st.integers(min_value=0, max_value=32),
    prewarm_layers=st.integers(min_value=0, max_value=8),
    layer_reuse=st.booleans(), layer_plan_margin_s=non_negative,
    shed_retries=st.integers(min_value=0, max_value=4))

warmups = st.builds(
    WarmupSpec, classes=tuples_of(st.integers(0, 99), max_size=4),
    models=tuples_of(st.integers(0, 9), max_size=3),
    edges=optional(tuples_of(names, max_size=3)))


@st.composite
def scenarios(draw):
    """A consistent scenario: unique names, links/peers/operators known."""
    n_edges = draw(st.integers(min_value=1, max_value=3))
    op_names = [f"op{k}" for k in range(draw(st.integers(0, 2)))]
    ops = tuple(
        OperatorSpec(name=name, price=draw(non_negative),
                     budget=draw(optional(non_negative)),
                     deny=tuple(o for o in op_names
                                if o != name and draw(st.booleans())))
        for name in op_names)
    edge_names = [f"e{k}" for k in range(n_edges)]
    site_list = []
    for k, name in enumerate(edge_names):
        others = [n for n in edge_names if n != name]
        site_list.append(EdgeSpec(
            name=name,
            clients=tuple(
                ClientSpec(name=f"m{k}_{i}",
                           access=draw(st.sampled_from(("wifi", "lte"))))
                for i in range(draw(st.integers(0, 2)))),
            x=draw(reals(0.0, 1e3)), y=draw(reals(0.0, 1e3)),
            peers=draw(optional(st.just(tuple(others)))),
            cache_mb=draw(optional(positive)),
            operator=draw(st.sampled_from([""] + op_names))))
    inter = tuple(
        InterEdgeLinkSpec(a=a, b=b, mbps=draw(positive),
                          delay_ms=draw(non_negative))
        for a, b in zip(edge_names, edge_names[1:]))
    return ScenarioSpec(
        edges=tuple(site_list), inter_edge=inter,
        federate=draw(st.booleans()), peer_timeout_s=draw(positive),
        impairments=draw(st.booleans()),
        baselines=draw(st.booleans()),
        mobility=draw(optional(mobilities())),
        warmup=draw(optional(warmups)), policy=draw(optional(policies)),
        background=draw(optional(backgrounds)), operators=ops,
        backend=draw(st.sampled_from(("sim", "real"))))


any_spec = st.one_of(clients, edges, operators, links, mobilities(),
                     backgrounds, policies, warmups, scenarios())


@given(spec=any_spec)
@settings(max_examples=300)
def test_spec_round_trips_through_its_plain_json_dict(spec):
    data = spec.to_dict()
    assert json.loads(json.dumps(data)) == data
    assert type(spec).from_dict(data) == spec
    assert type(spec).from_dict(data).to_dict() == data
    assert list(data) == [f.name for f in dataclasses.fields(spec)]


STRATEGIES = {
    ClientSpec: clients, EdgeSpec: edges, OperatorSpec: operators,
    InterEdgeLinkSpec: links, MobilitySpec: mobilities(),
    BackgroundTrafficSpec: backgrounds, EdgePolicySpec: policies,
    WarmupSpec: warmups, ScenarioSpec: scenarios()}


def _names(annotation, kind: type) -> bool:
    return annotation is kind or any(
        _names(arg, kind) for arg in typing.get_args(annotation))


def _fields_naming(kind: type) -> list:
    return [(cls, field.name)
            for cls in scenario._Spec.__subclasses__()
            for field in dataclasses.fields(cls)
            if _names(typing.get_type_hints(cls)[field.name], kind)]


INT_FIELDS = _fields_naming(int)

#: Values of other JSON types, per scalar kind.
WRONG_TYPE = {
    bool: st.one_of(st.integers(), reals(-1e3, 1e3), st.text(max_size=3)),
    str: st.one_of(st.integers(), reals(-1e3, 1e3), st.booleans()),
    float: st.one_of(st.booleans(), st.text(max_size=3)),
}
SCALAR_FIELDS = [(kind, cls, name) for kind in WRONG_TYPE
                 for cls, name in _fields_naming(kind)]

not_integers = st.one_of(
    st.booleans(),
    st.floats().filter(lambda x: not math.isfinite(x)
                       or not x.is_integer()))


def test_every_spec_class_has_a_strategy_and_int_fields_are_found():
    assert set(STRATEGIES) == set(scenario._Spec.__subclasses__())
    assert {("MobilitySpec", "n_places"), ("EdgePolicySpec", "queue_limit"),
            ("EdgePolicySpec", "prewarm_top_k"), ("WarmupSpec", "classes")} \
        <= {(cls.__name__, name) for cls, name in INT_FIELDS}
    assert {(bool, "ScenarioSpec", "federate"),
            (bool, "EdgePolicySpec", "layer_reuse"),
            (str, "OperatorSpec", "agreements"),
            (str, "WarmupSpec", "edges"),
            (float, "MobilitySpec", "bias_schedule"),
            (float, "EdgeSpec", "cache_mb")} \
        <= {(kind, cls.__name__, name)
            for kind, cls, name in SCALAR_FIELDS}


@pytest.mark.parametrize("cls, name", INT_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, n in INT_FIELDS])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_an_int_field_takes_only_an_integral_number(cls, name, data):
    spec = data.draw(STRATEGIES[cls])
    payload = spec.to_dict()
    value = payload[name]
    many = isinstance(value, list)
    # An integral float builds as the int it names.
    as_float = ([float(v) for v in value] if many
                else None if value is None else float(value))
    rebuilt = cls.from_dict({**payload, name: as_float})
    assert rebuilt == spec
    got = getattr(rebuilt, name)
    assert all(type(v) is int for v in (got if many else [got])
               if v is not None)
    # A bool, a non-finite value or a fraction is refused by name.
    bad = data.draw(not_integers)
    with pytest.raises(ValueError, match=re.escape(f"{cls.__name__}.{name}")):
        cls.from_dict({**payload, name: [bad] if many else bad})


def _holding(annotation, kind: type, bad):
    """A smallest JSON value of ``annotation`` whose ``kind`` leaves are
    all ``bad`` (other leaves valid)."""
    args = typing.get_args(annotation)
    if annotation is kind:
        return bad
    if typing.get_origin(annotation) is tuple:
        items = args[:1] if args[-1] is Ellipsis else args
        return [_holding(a, kind, bad) for a in items]
    if args:                                   # X | None
        (inner,) = (a for a in args if a is not type(None))
        return _holding(inner, kind, bad)
    return {bool: True, str: "a", float: 1.0, int: 1}[annotation]


@pytest.mark.parametrize(
    "kind, cls, name", SCALAR_FIELDS,
    ids=[f"{k.__name__}-{c.__name__}.{n}" for k, c, n in SCALAR_FIELDS])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_a_scalar_field_takes_only_its_own_type(kind, cls, name, data):
    spec = data.draw(STRATEGIES[cls])
    payload = spec.to_dict()
    annotation = typing.get_type_hints(cls)[name]
    bad = data.draw(WRONG_TYPE[kind])
    with pytest.raises(ValueError, match=re.escape(f"{cls.__name__}.{name}")):
        cls.from_dict({**payload, name: _holding(annotation, kind, bad)})
