"""The client's attach gate: a queue entry only when a request stalled on it."""

from repro.core.cluster import ClusterDeployment
from repro.core.scenario import ScenarioSpec


def handoff_with_gate(dep, client, request_at=None):
    """Hand ``client`` to edge1 over 0.5 s; ``(gate, processed events)``."""
    processed, gates = [], []
    dep.env.set_trace(lambda when, priority, event: processed.append(event))

    def observer():
        yield dep.env.timeout(0.01)
        gates.append(client._attach_gate)

    dep.env.process(dep.handoff(client, "edge1", latency_s=0.5))
    dep.env.process(observer())
    if request_at is not None:
        dep.run_concurrent([(request_at, client, dep.recognition_task(1))])
    dep.env.run()
    assert client.attached and client.edge_name == "edge1"
    return gates[0], processed


def test_request_issued_mid_handoff_stalls_and_is_released():
    dep = ClusterDeployment(ScenarioSpec.federated(n_edges=2))
    client = dep.clients_by_edge[0][0]
    gate, processed = handoff_with_gate(dep, client, request_at=0.1)
    record = dep.recorder.records[0]
    # The dead time is part of the latency; the new edge serves it.
    assert record.start_s == 0.1 and record.end_s > 0.5
    assert record.outcome in ("hit", "miss") and record.edge == "edge1"
    assert processed.count(gate) == 1 and gate.processed


def test_idle_handoff_adds_no_gate_event():
    dep = ClusterDeployment(ScenarioSpec.federated(n_edges=2))
    client = dep.clients_by_edge[0][0]
    gate, processed = handoff_with_gate(dep, client)
    assert gate is not None and gate not in processed
    # Requests after the handoff never see the old gate.
    record = dep.run_tasks(client, [dep.recognition_task(1)])[0]
    assert record.outcome in ("hit", "miss") and record.edge == "edge1"
