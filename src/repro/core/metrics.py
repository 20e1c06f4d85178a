"""Per-request measurement and aggregation.

Every completed request produces a :class:`RequestRecord`; the
:class:`MetricsRecorder` collects them and answers the questions the
paper's figures ask: latency distributions per (task kind, outcome),
hit ratios, and reductions versus a baseline.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

#: Request outcomes.
OUTCOME_HIT = "hit"
OUTCOME_MISS = "miss"
OUTCOME_ORIGIN = "origin"   # baseline: offload without cache
OUTCOME_LOCAL = "local"     # baseline: on-device execution
OUTCOME_ERROR = "error"
OUTCOME_SHED = "shed"       # refused by an overloaded edge's admission
OUTCOME_PARTIAL = "partial"  # served by partial inference from a cached layer


@dataclasses.dataclass(frozen=True)
class RequestRecord:
    """One completed IC request.

    ``edge`` is the id of the edge that actually served the request —
    the ``served_by`` tag stamped on every edge response — so offloaded
    and post-handoff requests are attributable to the box that did the
    work, not just the one the client was attached to.  Baselines
    (origin/local) leave it empty.
    """

    task_kind: str
    outcome: str
    user: str
    start_s: float
    end_s: float
    correct: bool | None = None
    detail: dict = dataclasses.field(default_factory=dict)
    edge: str = ""

    @property
    def latency_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def resume_layer(self) -> str | None:
        """The layer a ``partial`` serve resumed after (else None)."""
        return self.detail.get("resume_layer")

    @property
    def saved_s(self) -> float:
        """Compute seconds a ``partial`` serve saved vs full inference."""
        return float(self.detail.get("saved_s", 0.0))

    @property
    def billed_to(self) -> str | None:
        """Operator billed for cross-domain service on this request."""
        return self.detail.get("billed_to")

    @property
    def price(self) -> float:
        """Credits charged for cross-domain service on this request."""
        return float(self.detail.get("price", 0.0))


#: Ledger transaction kinds.
LEDGER_OFFLOAD = "offload"        # admission-control peer offload
LEDGER_FEDERATION = "federation"  # federated peer cache probe hit
LEDGER_PREWARM = "prewarm"        # handoff pre-warm push


@dataclasses.dataclass(frozen=True)
class LedgerEntry:
    """One cross-operator settlement on the simulated ledger.

    ``consumer`` pays ``provider`` exactly ``price`` credits — double
    entry by construction, so the market can never create or destroy
    credits (the invariant the property suite pins).  Zero-price
    transactions are still posted: an open free market keeps a full
    audit trail, it just settles to all-zero balances.
    """

    time_s: float
    consumer: str
    provider: str
    price: float
    kind: str
    detail: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class SettlementSummary:
    """Per-operator aggregate over the ledger."""

    operator: str
    earned: float
    spent: float
    transactions: int

    @property
    def net(self) -> float:
        return self.earned - self.spent


@dataclasses.dataclass(frozen=True)
class LatencySummary:
    """Distribution summary of a set of latencies (seconds)."""

    n: int
    mean: float
    std: float
    p50: float
    p90: float
    p95: float
    p99: float
    min: float
    max: float

    @classmethod
    def of(cls, values: typing.Sequence[float]) -> "LatencySummary":
        if len(values) == 0:
            return cls(0, *([float("nan")] * 8))
        arr = np.asarray(values, dtype=float)
        return cls(
            n=int(arr.size),
            mean=float(arr.mean()),
            std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
            p50=float(np.percentile(arr, 50)),
            p90=float(np.percentile(arr, 90)),
            p95=float(np.percentile(arr, 95)),
            p99=float(np.percentile(arr, 99)),
            min=float(arr.min()),
            max=float(arr.max()),
        )


class MetricsRecorder:
    """Collects request records and computes figure-level aggregates."""

    def __init__(self):
        self.records: list[RequestRecord] = []
        self.ledger: list[LedgerEntry] = []

    def record(self, record: RequestRecord) -> None:
        if record.end_s < record.start_s:
            raise ValueError("end_s precedes start_s")
        self.records.append(record)

    # -- simulated ledger --------------------------------------------------------

    def post(self, entry: LedgerEntry) -> None:
        """Append one cross-operator settlement to the ledger."""
        if entry.price < 0:
            raise ValueError("ledger price must be >= 0")
        if entry.consumer == entry.provider:
            raise ValueError("ledger entries are cross-operator only")
        self.ledger.append(entry)

    def operator_balances(self) -> dict[str, float]:
        """Net credit position per operator (+earned, -spent).

        Sums to zero across operators for every ledger state: each
        entry credits the provider exactly what it debits the consumer.
        """
        balances: dict[str, float] = {}
        for entry in self.ledger:
            balances[entry.provider] = (
                balances.get(entry.provider, 0.0) + entry.price)
            balances[entry.consumer] = (
                balances.get(entry.consumer, 0.0) - entry.price)
        return balances

    def settlement_summary(self) -> dict[str, SettlementSummary]:
        """Earned/spent/transaction-count breakdown per operator."""
        earned: dict[str, float] = {}
        spent: dict[str, float] = {}
        count: dict[str, int] = {}
        for entry in self.ledger:
            earned[entry.provider] = (
                earned.get(entry.provider, 0.0) + entry.price)
            spent[entry.consumer] = (
                spent.get(entry.consumer, 0.0) + entry.price)
            count[entry.provider] = count.get(entry.provider, 0) + 1
            count[entry.consumer] = count.get(entry.consumer, 0) + 1
        out = {}
        for op in sorted(set(earned) | set(spent)):
            out[op] = SettlementSummary(
                operator=op, earned=earned.get(op, 0.0),
                spent=spent.get(op, 0.0), transactions=count.get(op, 0))
        return out

    # -- selection ---------------------------------------------------------------

    def select(self, task_kind: str | None = None, outcome: str | None = None,
               user: str | None = None,
               edge: str | None = None) -> list[RequestRecord]:
        """Records matching all given filters."""
        out = self.records
        if task_kind is not None:
            out = [r for r in out if r.task_kind == task_kind]
        if outcome is not None:
            out = [r for r in out if r.outcome == outcome]
        if user is not None:
            out = [r for r in out if r.user == user]
        if edge is not None:
            out = [r for r in out if r.edge == edge]
        return list(out)

    def latencies(self, **filters) -> list[float]:
        """Latencies (seconds) of matching records."""
        return [r.latency_s for r in self.select(**filters)]

    def summary(self, **filters) -> LatencySummary:
        """Latency distribution of matching records."""
        return LatencySummary.of(self.latencies(**filters))

    # -- headline metrics -----------------------------------------------------------

    def hit_ratio(self, task_kind: str | None = None) -> float:
        """hits / (hits + misses) among cache-served outcomes."""
        hits = len(self.select(task_kind=task_kind, outcome=OUTCOME_HIT))
        misses = len(self.select(task_kind=task_kind, outcome=OUTCOME_MISS))
        total = hits + misses
        return hits / total if total else 0.0

    def partial_ratio(self, task_kind: str | None = None) -> float:
        """partial / (hits + misses + partials) among cache-served outcomes.

        How much of the served load partial inference absorbed.  Shed
        and error outcomes are excluded, mirroring :meth:`hit_ratio`
        (which itself keeps counting only full hits — a partial serve
        is cheaper than a miss but is not a coarse-cache hit).
        """
        partials = len(self.select(task_kind=task_kind,
                                   outcome=OUTCOME_PARTIAL))
        hits = len(self.select(task_kind=task_kind, outcome=OUTCOME_HIT))
        misses = len(self.select(task_kind=task_kind, outcome=OUTCOME_MISS))
        total = hits + misses + partials
        return partials / total if total else 0.0

    def saved_compute_s(self, task_kind: str | None = None,
                        edge: str | None = None) -> float:
        """Total compute seconds partial serves saved vs full inference.

        Sums the ``saved_s`` of every ``partial`` record (optionally
        restricted to one task kind / serving edge) — the aggregate the
        layer-reuse bench reports next to the latency distribution.
        """
        return sum(r.saved_s for r in self.select(
            task_kind=task_kind, outcome=OUTCOME_PARTIAL, edge=edge))

    def outcome_counts(self, task_kind: str | None = None) -> dict[str, int]:
        """Record counts keyed by outcome, sorted by outcome name.

        The shape both execution backends print in their summary
        tables — a quick structural fingerprint of a run (and what the
        sim/real parity suite compares).
        """
        counts: dict[str, int] = {}
        for record in self.select(task_kind=task_kind):
            counts[record.outcome] = counts.get(record.outcome, 0) + 1
        return dict(sorted(counts.items()))

    def accuracy(self, task_kind: str | None = None) -> float:
        """Fraction of correctness-checked requests that were correct.

        False hits (threshold too loose) lower this below 1.0.
        """
        checked = [r for r in self.select(task_kind=task_kind)
                   if r.correct is not None]
        if not checked:
            return float("nan")
        return sum(r.correct for r in checked) / len(checked)
