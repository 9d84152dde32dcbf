"""The Deploy Module (paper Fig. 6 ⑥/⑦, §5.5).

Erms executes its decisions on Kubernetes through the Python client and
configures request priorities with Linux ``tc`` (a ``pfifo_fast``-style
multi-band queueing discipline bound to each container's virtual network
interface).  This package reproduces that layer against an in-process
mock of the Kubernetes API:

* :mod:`repro.deployment.objects` — Deployments, Pods (with a lifecycle:
  Pending → Starting → Running → Terminating), and node bindings;
* :mod:`repro.deployment.api` — the mock API server: declarative apply,
  pod listing, a watchable event log;
* :mod:`repro.deployment.controller` — the reconciliation loop turning
  desired replica counts into pod create/delete calls, scheduling each
  pod onto a host through a :class:`~repro.core.provisioning.Provisioner`
  and advancing startups on ``tick()``;
* :mod:`repro.deployment.priority` — the tc-style network priority
  configurator: one band per service priority rank at each shared
  microservice.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "objects": ("Deployment", "Pod", "PodPhase"),
    "api": ("ApiEvent", "MockKubeApi"),
    "controller": ("DeploymentController",),
    "priority": ("NetworkPriorityConfigurator",),
})
