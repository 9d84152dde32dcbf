"""Query layer over :class:`~repro.telemetry.timeseries.store.TimeSeriesStore`.

A deliberately small PromQL-shaped surface:

* **Selectors** — ``name{label="x",other!="y"}`` match series by metric
  family and label equality/inequality (the families and labels come
  from the registry's dotted ``name.service`` convention, see
  :func:`~repro.telemetry.timeseries.store.parse_metric_name`).
* **Range functions** — ``rate()``, ``avg_over_time()``,
  ``min_over_time()``, ``max_over_time()``, ``sum_over_time()``,
  ``count_over_time()``, ``last_over_time()`` and
  ``quantile_over_time(q, ...)`` over a trailing ``[Nm]`` / ``[Ns]``
  window ending at the evaluation time.

Range functions read the samples inside the window, which the store
keeps for the whole run at scrape resolution.  Every function returns
``None`` — never raises — when a series has no usable samples in the
window (``rate`` needs two), so rules evaluation is total.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "Expr",
    "Matcher",
    "Selector",
    "evaluate",
    "parse_expr",
    "parse_selector",
    "range_functions",
]

_SELECTOR_RE = re.compile(
    r"^(?P<name>[A-Za-z_:][A-Za-z0-9_:.\-]*)\s*(?:\{(?P<labels>[^}]*)\})?$"
)
_MATCHER_RE = re.compile(
    r'\s*([A-Za-z_][A-Za-z0-9_]*)\s*(!?=)\s*"((?:[^"\\]|\\.)*)"\s*$'
)
_ESCAPE_RE = re.compile(r"\\(.)")


def _split_matchers(label_part: str) -> List[str]:
    """Split ``k="v",k2="w"`` on commas outside quoted values.

    Quoted values may contain ``\\"`` / ``\\\\`` escapes and literal
    commas, so a naive ``split(",")`` would cut matchers apart.
    """
    items: List[str] = []
    current: List[str] = []
    quoted = False
    escaped = False
    for ch in label_part:
        if escaped:
            current.append(ch)
            escaped = False
        elif ch == "\\" and quoted:
            current.append(ch)
            escaped = True
        elif ch == '"':
            quoted = not quoted
            current.append(ch)
        elif ch == "," and not quoted:
            items.append("".join(current))
            current = []
        else:
            current.append(ch)
    items.append("".join(current))
    return items
_CALL_RE = re.compile(r"^(?P<func>[a-z_][a-z0-9_]*)\s*\((?P<args>.*)\)$", re.S)
_RANGE_RE = re.compile(r"^(?P<sel>.*?)\s*\[\s*(?P<num>[0-9.]+)\s*(?P<unit>[ms])\s*\]$")


@dataclass(frozen=True)
class Matcher:
    """One label constraint: ``label="value"`` or ``label!="value"``."""

    label: str
    op: str  # "=" | "!="
    value: str

    def matches(self, labels: Dict[str, str]) -> bool:
        actual = labels.get(self.label)
        if self.op == "=":
            return actual == self.value
        return actual != self.value


@dataclass(frozen=True)
class Selector:
    """A metric family plus label matchers."""

    name: str
    matchers: Tuple[Matcher, ...] = ()

    def matches(self, series) -> bool:
        if series.name != self.name:
            return False
        return all(m.matches(series.labels) for m in self.matchers)


def parse_selector(text: str) -> Selector:
    """Parse ``name`` or ``name{key="v",other!="w"}``.

    Label values are double-quoted strings supporting ``\\"`` and
    ``\\\\`` escapes (and literal commas), so selectors built from
    arbitrary label values round-trip.
    """
    match = _SELECTOR_RE.match(text.strip())
    if match is None:
        raise ValueError(f"invalid selector: {text!r}")
    matchers: List[Matcher] = []
    label_part = match.group("labels")
    if label_part is not None and label_part.strip():
        for item in _split_matchers(label_part):
            m = _MATCHER_RE.match(item)
            if m is None:
                raise ValueError(f"invalid label matcher {item!r} in {text!r}")
            value = _ESCAPE_RE.sub(r"\1", m.group(3))
            matchers.append(Matcher(m.group(1), m.group(2), value))
    return Selector(match.group("name"), tuple(matchers))


# ----------------------------------------------------------------------
# Range functions
# ----------------------------------------------------------------------
def _rate(series, start: float, end: float) -> Optional[float]:
    """Per-minute increase of a (counter) series over the window.

    Counter resets (a decrease) restart the accumulation, like PromQL's
    ``rate``; fewer than two samples in the window give ``None``.
    """
    points = series.window(start, end)
    if len(points) < 2:
        return None
    increase = 0.0
    prev = points[0][1]
    for _, value in points[1:]:
        increase += value - prev if value >= prev else value
        prev = value
    span = points[-1][0] - points[0][0]
    return increase / span if span > 0 else None


def _over_time(fold: Callable[[List[float]], float]) -> Callable:
    def function(series, start: float, end: float) -> Optional[float]:
        values = [v for _, v in series.window(start, end)]
        return fold(values) if values else None

    return function


def _last_over_time(series, start: float, end: float) -> Optional[float]:
    points = series.window(start, end)
    return points[-1][1] if points else None


def _quantile_over_time(
    q: float, series, start: float, end: float
) -> Optional[float]:
    """Nearest-rank quantile over the window's samples."""
    values = sorted(v for _, v in series.window(start, end))
    if not values:
        return None
    rank = max(0, min(len(values) - 1, math.ceil(q * len(values)) - 1))
    return values[rank]


#: name -> range function (series, start, end) -> Optional[float]
_RANGE_FUNCTIONS: Dict[str, Callable] = {
    "rate": _rate,
    "avg_over_time": _over_time(lambda vs: sum(vs) / len(vs)),
    "min_over_time": _over_time(min),
    "max_over_time": _over_time(max),
    "sum_over_time": _over_time(sum),
    "count_over_time": _over_time(lambda vs: float(len(vs))),
    "last_over_time": _last_over_time,
}


def range_functions() -> List[str]:
    """Names of all supported range functions (plus quantile_over_time)."""
    return sorted(_RANGE_FUNCTIONS) + ["quantile_over_time"]


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Expr:
    """One parsed query: an instant selector or ``func(selector[range])``."""

    selector: Selector
    func: Optional[str] = None  # None -> instant vector (latest sample)
    range_min: Optional[float] = None
    q: Optional[float] = None  # quantile_over_time only

    def evaluate_series(self, series, at: float) -> Optional[float]:
        if self.func is None:
            last = series.last(at)
            return last[1] if last is not None else None
        start = at - (self.range_min or 0.0)
        if self.func == "quantile_over_time":
            return _quantile_over_time(self.q, series, start, at)
        return _RANGE_FUNCTIONS[self.func](series, start, at)


def _parse_range(text: str) -> Tuple[str, float]:
    match = _RANGE_RE.match(text.strip())
    if match is None:
        raise ValueError(f"expected 'selector[range]', got {text!r}")
    value = float(match.group("num"))
    if match.group("unit") == "s":
        value /= 60.0
    if value <= 0:
        raise ValueError(f"range must be positive in {text!r}")
    return match.group("sel"), value


def parse_expr(text: str) -> Expr:
    """Parse ``selector`` | ``func(selector[range])`` |
    ``quantile_over_time(q, selector[range])``."""
    text = text.strip()
    call = _CALL_RE.match(text)
    if call is None:
        return Expr(selector=parse_selector(text))
    func = call.group("func")
    args = call.group("args").strip()
    if func == "quantile_over_time":
        q_part, comma, rest = args.partition(",")
        if not comma:
            raise ValueError(
                f"quantile_over_time needs (q, selector[range]): {text!r}"
            )
        q = float(q_part)
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1] in {text!r}")
        sel_text, range_min = _parse_range(rest)
        return Expr(
            selector=parse_selector(sel_text),
            func=func,
            range_min=range_min,
            q=q,
        )
    if func not in _RANGE_FUNCTIONS:
        raise ValueError(
            f"unknown function {func!r}; supported: {range_functions()}"
        )
    sel_text, range_min = _parse_range(args)
    return Expr(selector=parse_selector(sel_text), func=func, range_min=range_min)


def evaluate(store, expr, at: float) -> List[Tuple[object, Optional[float]]]:
    """Evaluate ``expr`` against every matching series at time ``at``.

    ``expr`` may be a string or a pre-parsed :class:`Expr`.  Returns
    ``[(series, value)]`` in canonical series order; values are ``None``
    where the series has no usable samples in the window.
    """
    if isinstance(expr, str):
        expr = parse_expr(expr)
    results = []
    for key in sorted(store.series):
        series = store.series[key]
        if expr.selector.matches(series):
            results.append((series, expr.evaluate_series(series, at)))
    return results
