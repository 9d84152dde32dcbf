"""The deploy stage decides and does exactly what it did per pod.

``tests/fixtures/deploy_equivalence.json`` was generated on the commit
before ``DeploymentController.reconcile`` shared one ``ClusterIndex`` per
pass and ``MockKubeApi`` indexed its pods by microservice
(``PYTHONPATH=src python -m tests.pinned deploy_equivalence`` rewrites
it).  It pins, per control period of a seeded
``generate_taobao`` population driven through ``ErmsController``:

* the report's ``pod_deltas`` and ``cluster_imbalance``;
* every host's ``containers``;
* every pod's node, phase, ``ready_at`` and ``traffic_bands``, in store
  order;
* the ``(kind, subject, detail)`` API events of the period, in order;

for the Erms provisioner with one and with four POP groups and for the
Kubernetes-default one.  Workloads drift up and down so every period
both creates and deletes pods, one gap between periods is shorter than a
pod start-up (scale-down then meets STARTING pods), and the background
load of a few hosts is reassigned between two periods — the out-of-band
change a per-pass index must see.

Pod names carry the process-global ``_pod_counter``; they are replaced by
the pod's creation order within the run before hashing.  Microservice names
are hashed as ``str(name)``: the first fixture hashed their ``repr``, which
was ``np.str_('shared-0003')`` for every shared microservice until
``generate_taobao`` returned plain ``str``; the hashes were regenerated with
this rendering on the last commit that still generated ``np.str_`` names,
where the ``repr`` hashes also still matched.
"""

import math

import pytest

from repro.core import (
    Cluster,
    InfeasibleSLAError,
    InterferenceAwareProvisioner,
    KubernetesDefaultProvisioner,
    compute_service_targets,
)
from repro.core.controller import ErmsController
from repro.workloads import generate_taobao
from tests.pinned import expected, sha_lines

#: the provisioner configurations, by case name
CASES = {
    "erms_groups1": lambda: InterferenceAwareProvisioner(groups=1),
    "erms_groups4": lambda: InterferenceAwareProvisioner(groups=4),
    "k8s_default": KubernetesDefaultProvisioner,
}
PERIODS = 8
HOSTS = 16
#: seconds ticked after each period; 1.0 is shorter than a pod start-up
TICKS = [60.0, 60.0, 1.0, 60.0, 60.0, 60.0, 60.0, 60.0]
#: before this period, hosts get a new background load out of band
BACKGROUND_CHANGE_BEFORE = 4
BACKGROUND_BEFORE = {1: (6.0, 9_000.0), 7: (3.0, 20_000.0)}
BACKGROUND_AFTER = {1: (0.0, 0.0), 2: (11.0, 4_000.0), 12: (5.0, 30_000.0)}

_POPULATION = {}


def _population():
    if not _POPULATION:
        population = generate_taobao(
            n_services=12, mean_graph_size=10, shared_pool=24,
            shared_per_service=4, workload_range=(100, 2000), seed=7,
        )
        specs = []
        for spec in population.services:
            try:
                compute_service_targets(spec, population.profiles)
                specs.append(spec)
            except InfeasibleSLAError:
                pass
        _POPULATION.update(specs=specs, profiles=population.profiles)
    return _POPULATION["specs"], _POPULATION["profiles"]


def _workloads(specs, period):
    """Each service swings around its base load on its own phase."""
    return {
        spec.name: spec.workload * (1.0 + 0.6 * math.sin(1.3 * period + index))
        for index, spec in enumerate(specs)
    }


def _set_background(cluster, loads):
    for position, (cpu, memory_mb) in loads.items():
        cluster.hosts[position].background_cpu = cpu
        cluster.hosts[position].background_memory_mb = memory_mb


def _items(by_name):
    return sorted((str(name), value) for name, value in by_name.items())


def record(config):
    """Drive the loop; one ``{created, deleted, sha}`` record per period."""
    specs, profiles = _population()
    cluster = Cluster.homogeneous(HOSTS)
    _set_background(cluster, BACKGROUND_BEFORE)
    controller = ErmsController(
        specs, cluster, profiles, provisioner=CASES[config]()
    )
    api = controller.api
    alias = {}  # pod name -> "<microservice>#<creation order in this run>"
    seen_events = 0
    periods = []
    for period in range(PERIODS):
        if period == BACKGROUND_CHANGE_BEFORE:
            _set_background(cluster, BACKGROUND_AFTER)
        report = controller.reconcile(_workloads(specs, period))
        controller.tick(TICKS[period])

        lines = [f"deltas {_items(report.pod_deltas)!r}"]
        lines.append(f"imbalance {report.cluster_imbalance!r}")
        for host in cluster.hosts:
            lines.append(f"host {host.host_id} {_items(host.containers)!r}")
        events = api.events[seen_events:]
        seen_events = len(api.events)
        for event in events:
            if event.kind == "pod-created":
                alias[event.subject] = f"{event.subject.rsplit('-', 1)[0]}#{len(alias)}"
            subject = alias.get(event.subject, event.subject)
            lines.append(f"event {event.kind} {subject} {event.detail}")
        for pod in api.pods.values():
            lines.append(
                f"pod {alias[pod.name]} {pod.node} {pod.phase.value} "
                f"{pod.ready_at!r} {_items(pod.traffic_bands)!r}"
            )
        created = sum(d for d in report.pod_deltas.values() if d > 0)
        periods.append({
            "created": created,
            "deleted": created - sum(report.pod_deltas.values()),
            "sha": sha_lines(lines),
        })
    return periods


@pytest.mark.parametrize("config", sorted(CASES))
def test_identical_to_per_pod_index_path(config):
    pinned = expected(__name__)[config]
    got = record(config)
    for period, (want, have) in enumerate(zip(pinned, got)):
        assert have == want, f"{config}: period {period} differs"
    assert len(got) == len(pinned)


def test_scenario_scales_both_ways_every_period():
    """The pinned run exercises placement and release in each period."""
    for config, periods in expected(__name__).items():
        assert len(periods) == PERIODS
        for period in periods[1:]:
            assert period["created"] > 0 and period["deleted"] > 0, config

