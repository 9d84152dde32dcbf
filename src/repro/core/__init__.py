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
* :mod:`repro.core.controller` — the periodic ``ErmsController`` tying
  profiling, scaling, provisioning, and deployment together (Fig. 6).
"""

from repro.core.model import (
    Allocation,
    ContainerSpec,
    InfeasibleSLAError,
    LatencySegment,
    MicroserviceProfile,
    PiecewiseLatencyModel,
    ServiceSpec,
    containers_for_target,
)
from repro.core.merge import (
    MergedGraph,
    MergeTreeCache,
    VirtualParams,
    clear_merge_cache,
    distribute_targets,
    merge_graph,
    merge_tree_cache,
    parallel_merge,
    sequential_merge,
)
from repro.core.latency_targets import (
    ServiceTargets,
    clear_targets_memo,
    compute_service_targets,
    predicted_end_to_end,
    set_targets_memo,
    targets_memo_stats,
)
from repro.core.multiplexing import (
    MultiplexedAllocation,
    SharedScenario,
    assign_priorities,
    modified_workloads,
    resource_usage_fcfs_sharing,
    resource_usage_non_sharing,
    resource_usage_priority_bound,
    scale_with_priorities,
    shared_microservices,
)
from repro.core.scaling import (
    Autoscaler,
    ErmsScaler,
    ScalingReport,
    delta_schedule_probabilities,
)
from repro.core.controller import ControllerReport, ErmsController
from repro.core.provisioning import (
    Cluster,
    ClusterIndex,
    Host,
    InterferenceAwareProvisioner,
    KubernetesDefaultProvisioner,
    PlacementAction,
    PlacementPlan,
    Provisioner,
)

__all__ = [
    "Allocation",
    "ContainerSpec",
    "InfeasibleSLAError",
    "LatencySegment",
    "MicroserviceProfile",
    "PiecewiseLatencyModel",
    "ServiceSpec",
    "containers_for_target",
    "MergedGraph",
    "MergeTreeCache",
    "VirtualParams",
    "clear_merge_cache",
    "distribute_targets",
    "merge_graph",
    "merge_tree_cache",
    "parallel_merge",
    "sequential_merge",
    "ServiceTargets",
    "clear_targets_memo",
    "compute_service_targets",
    "predicted_end_to_end",
    "set_targets_memo",
    "targets_memo_stats",
    "MultiplexedAllocation",
    "SharedScenario",
    "assign_priorities",
    "modified_workloads",
    "resource_usage_fcfs_sharing",
    "resource_usage_non_sharing",
    "resource_usage_priority_bound",
    "scale_with_priorities",
    "shared_microservices",
    "Autoscaler",
    "ErmsScaler",
    "ScalingReport",
    "delta_schedule_probabilities",
    "ControllerReport",
    "ErmsController",
    "Cluster",
    "ClusterIndex",
    "Host",
    "InterferenceAwareProvisioner",
    "KubernetesDefaultProvisioner",
    "PlacementAction",
    "PlacementPlan",
    "Provisioner",
]
