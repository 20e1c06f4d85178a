"""Discrete-event simulation kernel.

This package is the bottom-most substrate of the CoIC reproduction: a
generator-based discrete-event simulator in the style of SimPy, but
self-contained and deterministic.  Every other subsystem (network links,
DNN compute, cache nodes) runs as processes on this kernel.

Quick example::

    from repro.sim import Environment

    env = Environment()

    def hello(env):
        yield env.timeout(1.5)
        print("t =", env.now)

    env.process(hello(env))
    env.run()
"""

from repro.sim.events import EventAlreadyTriggered
from repro.sim.kernel import Environment, SimulationError
from repro.sim.resources import Resource, Store
from repro.sim.rng import RngStreams

__all__ = [
    "Environment",
    "EventAlreadyTriggered",
    "Resource",
    "RngStreams",
    "SimulationError",
    "Store",
]
