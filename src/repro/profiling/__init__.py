"""Offline microservice profiling (paper §2.2, §5.2).

Fits microservice tail latency as a piece-wise linear function of the
per-container workload, with interference-dependent coefficients
(paper Eq. 15):

.. math::

    L = (\\alpha^l C + \\beta^l M + c^l)\\,\\gamma + b^l,
    \\qquad l = 1\\ (\\gamma \\le \\sigma),\\; 2\\ (\\text{otherwise})

where :math:`C, M` are host CPU/memory utilization and the cut-off
:math:`\\sigma` is itself a function of interference, learned by a decision
tree.  The fit takes a named resource vector, so further shared resources
(memory bandwidth, LLC, ...; paper §9) enter the same way as C and M.
Baseline learners (gradient-boosted trees standing in for XGBoost, and a
small MLP) are implemented from scratch for the Fig. 10 accuracy
comparison.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "piecewise": ("PiecewiseFit", "fit_piecewise"),
    "decision_tree": ("DecisionTreeRegressor",),
    "interference": ("InterferenceModel", "fit_interference_model"),
    "baselines": ("GradientBoostedTrees", "MLPRegressor"),
    "dataset": (
        "ProfilingDataset", "SyntheticMicroservice", "generate_synthetic_day",
    ),
    "accuracy": ("accuracy_score", "mape", "r_squared", "within_tolerance"),
})
