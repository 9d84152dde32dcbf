"""Discrete-event cluster simulator.

Replaces the paper's 20-host Kubernetes testbed.  Hosts carry background
(batch-job) load; each microservice runs in identical containers with a
fixed thread pool; requests walk their service's dependency graph, queueing
at containers and holding a thread for an exponentially distributed
processing time whose mean is inflated by host interference.  Shared
microservices schedule queued requests either FCFS or with Erms'
δ-probabilistic priority policy (paper §5.3.2).

The emergent per-container load → tail latency curve has exactly the
piecewise-linear shape of paper Fig. 3, so the simulator doubles as the
ground truth that :mod:`repro.profiling` profiles and Erms controls.
"""

from repro.simulator.events import EventQueue
from repro.simulator.scheduler import PriorityQueuePolicy
from repro.simulator.simulation import (
    ClusterSimulator,
    SimulatedMicroservice,
    SimulationConfig,
    SimulationResult,
)
from repro.simulator.interference import InterferenceModel
from repro.simulator.injection import InterferenceSchedule
from repro.simulator.autoscaled import (
    AutoscaleConfig,
    AutoscaledResult,
    AutoscaledSimulation,
)

__all__ = [
    "EventQueue",
    "PriorityQueuePolicy",
    "ClusterSimulator",
    "SimulatedMicroservice",
    "SimulationConfig",
    "SimulationResult",
    "InterferenceModel",
    "InterferenceSchedule",
    "AutoscaleConfig",
    "AutoscaledResult",
    "AutoscaledSimulation",
]
