"""Real execution backend: the simulated deployment over real sockets.

Every :class:`~repro.core.scenario.ScenarioSpec` can run two ways:

* ``backend="sim"`` — the deterministic discrete-event simulation the
  rest of the repo pins with golden digests (the default; nothing in
  this package is imported on that path).
* ``backend="real"`` — the same spec deployed as a multiprocess
  asyncio system: one OS process per edge around the simulator's own
  ``EdgeNode``, one ``CoICClient`` per spec client replaying the same
  workload trace (:mod:`repro.backend.loadgen`) — both driven on
  asyncio by :mod:`repro.backend.runtime` and speaking the
  length-prefixed socket protocol of :mod:`repro.backend.protocol` —
  and the cloud as a latency-shimmed stub process
  (:mod:`repro.backend.cloud_server`).  Wall-clock latencies land in
  the identical :class:`~repro.core.metrics.MetricsRecorder` schema, so
  every aggregate the eval layer computes works unchanged.

Entry point: :func:`repro.backend.runner.run_real_scenario`.
"""

from repro.backend.runner import run_real_scenario, run_simulated_trace

__all__: list[str] = []
