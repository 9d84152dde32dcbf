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

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "events": ("EventQueue",),
    "scheduler": ("PriorityQueuePolicy",),
    "simulation": (
        "ClusterSimulator", "SimulatedMicroservice", "SimulationConfig",
        "SimulationResult",
    ),
    "injection": ("InterferenceSchedule",),
    "autoscaled": (
        "AutoscaleConfig", "AutoscaledResult", "AutoscaledSimulation",
    ),
})
