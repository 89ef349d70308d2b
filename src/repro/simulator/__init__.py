"""Simulation of the one-port full-overlap platform model (section 2),
with trace validation for the section 5.1 model variants.

Two executors: the fluid :class:`PeriodicRunner` runs every reconstructed
schedule (master-slave, scatter, gather, all-to-all) commodity by
commodity, and the message-level
:class:`~repro.simulator.event_executor.EventExecutor` runs master-slave
schedules one whole task file at a time.
"""

from .engine import SimulationError, Simulator
from .periodic_runner import (
    PeriodicRunner,
    PeriodicRunResult,
    max_route_length,
    primed_rate,
    steady_state_reached_after,
)
from .trace import Interval, ModelViolation, Trace

__all__ = [
    "SimulationError",
    "Simulator",
    "PeriodicRunner",
    "PeriodicRunResult",
    "max_route_length",
    "primed_rate",
    "steady_state_reached_after",
    "Interval",
    "ModelViolation",
    "Trace",
]
