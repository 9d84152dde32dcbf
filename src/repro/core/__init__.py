"""Erms core: the paper's primary contribution.

Submodules:

* :mod:`repro.core.model` — latency/resource model types (piecewise linear
  tail latency, dominant resource demand, service specs, allocations).
* :mod:`repro.core.merge` — dependency-graph merge into virtual
  microservices (paper §4.2, Algorithm 1, Eqs. 6–12).
* :mod:`repro.core.latency_targets` — optimal latency-target computation
  via the KKT closed form (Eq. 5) with §5.3.1 interval selection.
* :mod:`repro.core.multiplexing` — priority scheduling at shared
  microservices (Eqs. 13–14) and the Theorem 1 analytics.
* :mod:`repro.core.scaling` — the ``ErmsScaler`` pipeline and the common
  ``Autoscaler`` interface.
* :mod:`repro.core.provisioning` — interference-aware container placement
  with POP host-group decomposition (§5.4).
* :mod:`repro.core.controller` — the periodic ``ControlLoop`` (observe →
  plan → act, Fig. 6) and ``ErmsController``, the loop that deploys.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "model": (
        "Allocation", "ContainerSpec", "InfeasibleSLAError", "LatencySegment",
        "MicroserviceProfile", "PiecewiseLatencyModel", "ServiceSpec",
        "containers_for_target",
    ),
    "merge": (
        "MergedGraph", "VirtualParams", "clear_merge_cache", "distribute_targets",
        "merge_graph", "merge_tree_cache", "parallel_merge", "sequential_merge",
    ),
    "latency_targets": (
        "ServiceTargets", "clear_targets_memo", "compute_service_targets",
        "predicted_end_to_end", "set_targets_memo", "targets_memo_stats",
    ),
    "multiplexing": (
        "MultiplexedAllocation", "SharedScenario", "assign_priorities",
        "modified_workloads", "resource_usage_fcfs_sharing",
        "resource_usage_non_sharing", "resource_usage_priority_bound",
        "scale_with_priorities", "shared_microservices",
    ),
    "scaling": ("Autoscaler", "ErmsScaler", "delta_schedule_probabilities"),
    "controller": ("ControlLoop", "ControllerReport", "ErmsController"),
    "provisioning": (
        "Cluster", "ClusterIndex", "Host", "InterferenceAwareProvisioner",
        "KubernetesDefaultProvisioner", "PlacementAction", "PlacementPlan",
        "Provisioner",
    ),
})
