"""Interference-aware resource provisioning (paper §5.4).

Containers of one microservice may land on hosts with very different
background load; the resulting performance imbalance causes SLA violations.
Erms therefore places (and releases) containers so as to minimize *resource
unbalance*: the summed absolute deviation of each host's utilization from
the cluster-wide mean.  Solving this exactly is a non-linear integer program
(NP-hard), so Erms follows the POP technique — statically partition the
hosts into equal groups, split the work across groups, and solve each small
subproblem greedily.

Two provisioners are exposed:

* :class:`InterferenceAwareProvisioner` — the Erms policy.  Host utilization
  includes background (batch-job) load, so interference is balanced out.
* :class:`KubernetesDefaultProvisioner` — the baseline of §6.4.3: spreads by
  container *requests* only, blind to background interference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.model import ContainerSpec, MicroserviceProfile


@dataclass
class Host:
    """One physical host: capacity, background load, and placed containers.

    Background load models colocated batch applications (paper §2.2's
    interference source); it contributes to utilization but is not under
    the provisioner's control.
    """

    host_id: str
    cpu_capacity: float = 32.0
    memory_capacity_mb: float = 64_000.0
    background_cpu: float = 0.0
    background_memory_mb: float = 0.0
    containers: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("cpu_capacity", "memory_capacity_mb"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(
                    f"host {self.host_id}: {name} must be positive and finite, "
                    f"got {value}"
                )

    def __setattr__(self, name: str, value) -> None:
        # background loads change between periods; checked on every write
        if name in ("background_cpu", "background_memory_mb") and not (
            0 <= value < math.inf
        ):
            raise ValueError(
                f"host {self.host_id}: {name} must be non-negative and "
                f"finite, got {value}"
            )
        object.__setattr__(self, name, value)

    def place(self, microservice: str, count: int = 1) -> None:
        """Place ``count`` containers of ``microservice`` on this host."""
        self.containers[microservice] = self.containers.get(microservice, 0) + count

    def release(self, microservice: str, count: int = 1) -> None:
        """Remove ``count`` containers; raises if none are present."""
        current = self.containers.get(microservice, 0)
        if current < count:
            raise ValueError(
                f"host {self.host_id}: cannot release {count} containers of "
                f"{microservice!r}, only {current} placed"
            )
        remaining = current - count
        if remaining:
            self.containers[microservice] = remaining
        else:
            del self.containers[microservice]

    def container_count(self, microservice: Optional[str] = None) -> int:
        if microservice is None:
            return sum(self.containers.values())
        return self.containers.get(microservice, 0)

    def requested(self, sizes: Mapping[str, ContainerSpec]) -> Tuple[float, float]:
        """Σ size × count over the placed containers, as ``(cpu, memory_mb)``.

        What the kube-scheduler scores (requests, no background), and the
        one walk of ``containers`` every usage figure below, every
        :class:`ClusterIndex` row and the cluster-wide means derive from.
        """
        cpu = memory = 0
        for name, count in self.containers.items():
            spec = sizes[name]
            cpu += spec.cpu * count
            memory += spec.memory_mb * count
        return cpu, memory

    def cpu_used(self, sizes: Mapping[str, ContainerSpec]) -> float:
        return self.background_cpu + self.requested(sizes)[0]

    def memory_used(self, sizes: Mapping[str, ContainerSpec]) -> float:
        return self.background_memory_mb + self.requested(sizes)[1]

    def utilization(self, sizes: Mapping[str, ContainerSpec]) -> Tuple[float, float]:
        """``(cpu, memory)`` utilization, the containers walked once."""
        cpu, memory = self.requested(sizes)
        return (
            (self.background_cpu + cpu) / self.cpu_capacity,
            (self.background_memory_mb + memory) / self.memory_capacity_mb,
        )

    def cpu_utilization(self, sizes: Mapping[str, ContainerSpec]) -> float:
        return self.utilization(sizes)[0]

    def memory_utilization(self, sizes: Mapping[str, ContainerSpec]) -> float:
        return self.utilization(sizes)[1]


@dataclass
class Cluster:
    """A set of hosts plus per-microservice container sizes."""

    hosts: List[Host]
    sizes: Dict[str, ContainerSpec] = field(default_factory=dict)

    @classmethod
    def homogeneous(
        cls,
        host_count: int,
        cpu_capacity: float = 32.0,
        memory_capacity_mb: float = 64_000.0,
    ) -> "Cluster":
        """Build the paper's testbed shape: N identical two-socket hosts."""
        hosts = [
            Host(
                host_id=f"host-{i:03d}",
                cpu_capacity=cpu_capacity,
                memory_capacity_mb=memory_capacity_mb,
            )
            for i in range(host_count)
        ]
        return cls(hosts=hosts)

    def register(self, profiles: Mapping[str, MicroserviceProfile]) -> None:
        """Record the container sizes of the given microservices."""
        for name, profile in profiles.items():
            self.sizes[name] = profile.container

    def placement(self) -> Dict[str, int]:
        """Total containers per microservice across all hosts."""
        totals: Dict[str, int] = {}
        for host in self.hosts:
            for name, count in host.containers.items():
                totals[name] = totals.get(name, 0) + count
        return totals

    def _utilizations(self) -> Tuple[List[Tuple[float, float]], Tuple[float, float]]:
        """Per-host (cpu, memory) utilization and the two cluster-wide means."""
        per_host = [host.utilization(self.sizes) for host in self.hosts]
        count = len(per_host) or 1
        cpu = sum(u[0] for u in per_host)
        mem = sum(u[1] for u in per_host)
        return per_host, (cpu / count, mem / count)

    def mean_utilization(self) -> Tuple[float, float]:
        """Cluster-wide mean (cpu, memory) utilization."""
        return self._utilizations()[1]

    def imbalance(self) -> float:
        """Σ_h |util_h − mean| summed over CPU and memory (paper §5.4)."""
        per_host, (mean_cpu, mean_mem) = self._utilizations()
        total = 0.0
        for cpu, mem in per_host:
            total += abs(cpu - mean_cpu)
            total += abs(mem - mean_mem)
        return total


class ClusterIndex:
    """Vectorized per-host usage state for fast placement decisions.

    Per-host ``cpu_used``/``memory_used`` (and k8s-style *requested*)
    totals live in numpy arrays, so a decision is one vectorized argmin
    over hosts rather than a re-summation of every candidate host's
    container dict, and a placement/release updates only the mutated
    host's row.

    Exactness: a row is ``background + Host.requested(sizes)`` — the
    expression ``Host.cpu_used``/``memory_used`` evaluate, re-summed over
    the host's containers in one walk (O(microservices-on-host)), never an
    incremental ``+=`` — so every array entry is bit-identical to the
    scalar re-summation and argmin tie-breaking (numpy returns the first
    extremum, like ``min``/``max``) reproduces the scalar host choice
    exactly.

    Lifetime: an index is valid only while every mutation of the cluster
    is routed through :meth:`place`/:meth:`release`, so it is built where
    a batch of decisions starts and dropped where it ends —
    ``Provisioner.apply`` builds one per call, and
    ``DeploymentController.reconcile`` one per pass (none when no
    deployment's replica count changed).  It is deliberately not kept
    longer: ``Host.background_cpu``/``background_memory_mb`` are plain
    attributes that experiments and operators reassign between control
    periods, and ``Cluster.sizes`` may gain entries; a per-pass build
    (one re-summation of every host, ≈ 2 ms at 100 hosts × 2.7k pods)
    sees all of that without an invalidation protocol.  The
    ``choose_*_host`` methods still build a throwaway index when called
    without one — correct for a single ad-hoc decision, O(hosts ×
    placed microservices) if done per pod.  After out-of-band mutations
    within a batch call :meth:`rebuild`.
    """

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.rebuild()

    def rebuild(self) -> None:
        """Recompute every row from the cluster's current state."""
        hosts = self.cluster.hosts
        self._pos = {id(host): i for i, host in enumerate(hosts)}
        self.cpu_capacity = np.array([h.cpu_capacity for h in hosts], dtype=float)
        self.memory_capacity = np.array(
            [h.memory_capacity_mb for h in hosts], dtype=float
        )
        requested = [h.requested(self.cluster.sizes) for h in hosts]
        self.cpu_requested = np.array([r[0] for r in requested], dtype=float)
        self.memory_requested = np.array([r[1] for r in requested], dtype=float)
        self.cpu_used = (
            np.array([h.background_cpu for h in hosts], dtype=float)
            + self.cpu_requested
        )
        self.memory_used = (
            np.array([h.background_memory_mb for h in hosts], dtype=float)
            + self.memory_requested
        )
        self._counts: Dict[str, np.ndarray] = {}
        for i, host in enumerate(hosts):
            for name, count in host.containers.items():
                self.counts(name)[i] = count

    def counts(self, microservice: str) -> np.ndarray:
        """Per-host container counts of one microservice (int64 array)."""
        array = self._counts.get(microservice)
        if array is None:
            array = np.zeros(len(self.cluster.hosts), dtype=np.int64)
            self._counts[microservice] = array
        return array

    def utilization(self) -> np.ndarray:
        """Per-host ``cpu_util + mem_util`` (the §5.4 balancing signal)."""
        return (
            self.cpu_used / self.cpu_capacity
            + self.memory_used / self.memory_capacity
        )

    def refresh_host(self, host: Host) -> None:
        """Re-derive one host's row from its container dict (exact)."""
        i = self._pos[id(host)]
        cpu, memory = host.requested(self.cluster.sizes)
        self.cpu_requested[i] = cpu
        self.memory_requested[i] = memory
        self.cpu_used[i] = host.background_cpu + cpu
        self.memory_used[i] = host.background_memory_mb + memory

    def place(self, host: Host, microservice: str, count: int = 1) -> None:
        """Place containers on ``host`` and update its row in place."""
        host.place(microservice, count)
        self.counts(microservice)[self._pos[id(host)]] += count
        self.refresh_host(host)

    def release(self, host: Host, microservice: str, count: int = 1) -> None:
        """Release containers from ``host`` and update its row in place."""
        host.release(microservice, count)
        self.counts(microservice)[self._pos[id(host)]] -= count
        self.refresh_host(host)


@dataclass
class PlacementAction:
    """One placement or release decision."""

    host_id: str
    microservice: str
    delta: int  # +1 place, -1 release


@dataclass
class PlacementPlan:
    """The actions realizing a scaling decision, in execution order."""

    actions: List[PlacementAction] = field(default_factory=list)

    def placements(self) -> int:
        return sum(1 for a in self.actions if a.delta > 0)

    def releases(self) -> int:
        return sum(1 for a in self.actions if a.delta < 0)


class Provisioner:
    """Base class: computes deltas and delegates host choice to subclasses."""

    name = "provisioner"

    def apply(self, cluster: Cluster, desired: Mapping[str, int]) -> PlacementPlan:
        """Mutate ``cluster`` so each microservice reaches its desired count.

        Builds one :class:`ClusterIndex` and routes every placement and
        release through it, so each decision costs a vectorized argmin
        plus a single-host refresh instead of re-summing every host.
        """
        plan = PlacementPlan()
        current = cluster.placement()
        names = sorted(set(desired) | set(current))
        for name in names:
            if name not in cluster.sizes:
                cluster.sizes[name] = ContainerSpec()
        index = ClusterIndex(cluster)
        for name in names:
            delta = desired.get(name, 0) - current.get(name, 0)
            for _ in range(delta):
                host = self.choose_placement_host(cluster, name, index=index)
                index.place(host, name)
                plan.actions.append(PlacementAction(host.host_id, name, +1))
            for _ in range(-delta):
                host = self.choose_release_host(cluster, name, index=index)
                index.release(host, name)
                plan.actions.append(PlacementAction(host.host_id, name, -1))
        return plan

    def choose_placement_host(
        self,
        cluster: Cluster,
        microservice: str,
        index: Optional[ClusterIndex] = None,
    ) -> Host:
        raise NotImplementedError

    def choose_release_host(
        self,
        cluster: Cluster,
        microservice: str,
        index: Optional[ClusterIndex] = None,
    ) -> Host:
        raise NotImplementedError


class InterferenceAwareProvisioner(Provisioner):
    """Erms' provisioning policy (paper §5.4).

    Greedy imbalance minimization within POP host groups: hosts are divided
    into ``groups`` equal partitions once; each placement considers only the
    partition currently offering the best (lowest) utilization headroom,
    keeping per-decision cost :math:`O(hosts / groups)` in the spirit of the
    POP decomposition.
    """

    name = "erms-interference-aware"

    def __init__(self, groups: int = 1):
        if groups < 1:
            raise ValueError(f"groups must be >= 1, got {groups}")
        self.groups = groups

    def _partition_size(self, host_count: int) -> int:
        return max(1, (host_count + self.groups - 1) // self.groups)

    def _partitions(self, cluster: Cluster) -> List[List[Host]]:
        hosts = cluster.hosts
        size = self._partition_size(len(hosts))
        return [hosts[i : i + size] for i in range(0, len(hosts), size)]

    def choose_placement_host(
        self,
        cluster: Cluster,
        microservice: str,
        index: Optional[ClusterIndex] = None,
    ) -> Host:
        if index is None:
            index = ClusterIndex(cluster)
        if not cluster.hosts:
            raise ValueError("cannot place on a cluster with no hosts")
        spec = cluster.sizes[microservice]
        utilization = index.utilization()
        count = len(cluster.hosts)
        size = self._partition_size(count)
        # First partition attaining the lowest per-host utilization
        # minimum (min() keeps the first minimal element; so do we).
        best_start = 0
        best_value = None
        for start in range(0, count, size):
            value = utilization[start : start + size].min()
            if best_value is None or value < best_value:
                best_value = value
                best_start = start
        stop = min(best_start + size, count)
        score = (index.cpu_used[best_start:stop] + spec.cpu) / index.cpu_capacity[
            best_start:stop
        ] + (
            index.memory_used[best_start:stop] + spec.memory_mb
        ) / index.memory_capacity[
            best_start:stop
        ]
        # np.argmin returns the first minimum, matching min()'s tie-break.
        return cluster.hosts[best_start + int(np.argmin(score))]

    def choose_release_host(
        self,
        cluster: Cluster,
        microservice: str,
        index: Optional[ClusterIndex] = None,
    ) -> Host:
        if index is None:
            index = ClusterIndex(cluster)
        candidates = np.flatnonzero(index.counts(microservice) > 0)
        if candidates.size == 0:
            raise ValueError(f"no host has containers of {microservice!r}")
        # Releasing from the most utilized host best reduces imbalance
        # (np.argmax keeps the first maximum, matching max()).
        utilization = index.utilization()
        return cluster.hosts[
            int(candidates[np.argmax(utilization[candidates])])
        ]


class KubernetesDefaultProvisioner(Provisioner):
    """K8s-default spreading: least *requested* host wins, interference-blind.

    This mirrors the kube-scheduler's LeastAllocated scoring, which only
    sees container resource requests — not the batch jobs colocated on the
    host — and is the baseline of paper §6.4.3.
    """

    name = "k8s-default"

    def choose_placement_host(
        self,
        cluster: Cluster,
        microservice: str,
        index: Optional[ClusterIndex] = None,
    ) -> Host:
        if index is None:
            index = ClusterIndex(cluster)
        if not cluster.hosts:
            raise ValueError("cannot place on a cluster with no hosts")
        score = (
            index.cpu_requested / index.cpu_capacity
            + index.memory_requested / index.memory_capacity
        )
        return cluster.hosts[int(np.argmin(score))]

    def choose_release_host(
        self,
        cluster: Cluster,
        microservice: str,
        index: Optional[ClusterIndex] = None,
    ) -> Host:
        if index is None:
            index = ClusterIndex(cluster)
        counts = index.counts(microservice)
        candidates = np.flatnonzero(counts > 0)
        if candidates.size == 0:
            raise ValueError(f"no host has containers of {microservice!r}")
        return cluster.hosts[int(candidates[np.argmax(counts[candidates])])]
