"""Embedded deterministic time-series database for the telemetry layer.

See :mod:`repro.telemetry.timeseries.store` for the store and scrape
loop, :mod:`~repro.telemetry.timeseries.query` for selectors and range
functions, and :mod:`~repro.telemetry.timeseries.rules` for the
recording/alerting rules engine.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "query": (
        "Expr", "Matcher", "Selector", "evaluate", "parse_expr",
        "parse_selector", "range_functions",
    ),
    "rules": (
        "AlertRule", "RecordingRule", "RuleAlert", "RuleEngine", "RuleSet",
        "load_rules",
    ),
    "store": (
        "Series", "TimeSeriesConfig", "TimeSeriesStore", "parse_metric_name",
        "series_key",
    ),
})
