"""Process-wide metrics: counters, gauges and histograms with labels.

The paper's whole program is cheap, principled measurement; this
module applies the same discipline to the reproduction itself.  A
:class:`MetricsRegistry` holds named metrics of three kinds —

* **counters** — monotonically increasing totals
  (``repro_compile_total``, ``repro_cache_lookups_total{tier=...}``);
* **gauges** — point-in-time values that go up and down
  (``repro_queue_depth``, ``repro_uptime_seconds``);
* **histograms** — fixed-bucket latency/size distributions with the
  Prometheus cumulative-bucket semantics
  (``repro_http_request_seconds{route=...}``).

All operations are get-or-create and idempotent: instrumentation
sites call ``metrics.counter("name").inc()`` without registration
ceremony, and re-declaring a metric with a *different* type or label
set is an error (catching copy-paste taxonomy drift early).

The module keeps one process-global registry (what the service, the
batch engine and the pipeline all record into) but the registry is an
ordinary object — tests inject a fresh one with :func:`set_registry`
and restore the old one afterwards.  Every mutating operation takes
the registry's lock, so counts are exact under free-threading *and*
the :meth:`MetricsRegistry.snapshot` used by ``/metrics`` is atomic:
no torn reads between related series mid-batch-flush.
"""

from __future__ import annotations

import bisect
import threading
from math import inf


class MetricError(ValueError):
    """A metric misuse: type/label mismatch or invalid value."""


#: Default latency buckets (seconds), Prometheus-style.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Sub-millisecond latency buckets (seconds) for operations that
#: finish in microseconds — codegen-backend runs land entirely in the
#: first bucket of :data:`DEFAULT_BUCKETS`, which tells you nothing.
SUBMILLI_BUCKETS = (
    0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.025,
)

#: Buckets for micro-batch sizes (requests per flush).
SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


class _Metric:
    """Common naming/label plumbing for the three metric kinds."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labels: tuple[str, ...]):
        self._registry = registry
        self._lock = registry._lock
        self.name = name
        self.help = help
        self.labels = tuple(labels)

    def _key(self, labelvalues: dict) -> tuple[str, ...]:
        if set(labelvalues) != set(self.labels):
            raise MetricError(
                f"metric {self.name!r} takes labels {list(self.labels)}, "
                f"got {sorted(labelvalues)}"
            )
        return tuple(str(labelvalues[label]) for label in self.labels)


class Counter(_Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, registry, name, help, labels):
        super().__init__(registry, name, help, labels)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labelvalues) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease")
        key = self._key(labelvalues)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labelvalues) -> float:
        with self._lock:
            return self._values.get(self._key(labelvalues), 0.0)

    def bind(self, **labelvalues) -> "BoundCounter":
        """A handle on one label set: ``inc`` without re-validating and
        re-keying the labels on every call.  Binding alone records no
        series."""
        return BoundCounter(self, self._key(labelvalues))

    def _snapshot(self) -> list[dict]:
        return [
            {"labels": dict(zip(self.labels, key)), "value": value}
            for key, value in sorted(self._values.items())
        ]


class BoundCounter:
    """One label set of a :class:`Counter` (see :meth:`Counter.bind`)."""

    __slots__ = ("_counter", "_values", "_lock", "_key")

    def __init__(self, counter: Counter, key: tuple[str, ...]):
        self._counter = counter
        self._values = counter._values
        self._lock = counter._lock
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(
                f"counter {self._counter.name!r} cannot decrease"
            )
        key = self._key
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_Metric):
    """A point-in-time value that can go up and down."""

    kind = "gauge"

    def __init__(self, registry, name, help, labels):
        super().__init__(registry, name, help, labels)
        self._values: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labelvalues) -> None:
        key = self._key(labelvalues)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labelvalues) -> None:
        key = self._key(labelvalues)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labelvalues) -> None:
        self.inc(-amount, **labelvalues)

    def value(self, **labelvalues) -> float:
        with self._lock:
            return self._values.get(self._key(labelvalues), 0.0)

    _snapshot = Counter._snapshot


class Histogram(_Metric):
    """A fixed-bucket distribution (cumulative-bucket exposition)."""

    kind = "histogram"

    def __init__(self, registry, name, help, labels,
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        super().__init__(registry, name, help, labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise MetricError(f"histogram {self.name!r} needs >= 1 bucket")
        self.buckets = bounds
        #: key -> [per-bucket counts..., overflow count, sum, count]
        self._values: dict[tuple[str, ...], list] = {}

    def _series(self, key: tuple[str, ...]) -> list:
        series = self._values.get(key)
        if series is None:
            series = self._values[key] = [0] * (len(self.buckets) + 1) + [0.0, 0]
        return series

    def observe(self, value: float, **labelvalues) -> None:
        key = self._key(labelvalues)
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            series = self._series(key)
            series[index] += 1
            series[-2] += value
            series[-1] += 1

    def count(self, **labelvalues) -> int:
        with self._lock:
            series = self._values.get(self._key(labelvalues))
            return series[-1] if series else 0

    def sum(self, **labelvalues) -> float:
        with self._lock:
            series = self._values.get(self._key(labelvalues))
            return series[-2] if series else 0.0

    def _snapshot(self) -> list[dict]:
        out = []
        for key, series in sorted(self._values.items()):
            cumulative, counts = 0, {}
            for bound, n in zip(self.buckets, series):
                cumulative += n
                counts[bound] = cumulative
            counts[inf] = cumulative + series[len(self.buckets)]
            out.append(
                {
                    "labels": dict(zip(self.labels, key)),
                    "buckets": counts,
                    "sum": series[-2],
                    "count": series[-1],
                }
            )
        return out


class MetricsRegistry:
    """A set of named metrics sharing one lock.

    One process-global instance backs the module-level helpers; tests
    create their own and swap it in with :func:`set_registry`.

    ``default_buckets`` is what histograms created without an explicit
    ``buckets=`` get — a deployment timing microsecond-scale codegen
    runs can build its registry with :data:`SUBMILLI_BUCKETS` and
    every implicit histogram follows.
    """

    def __init__(self, default_buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        self._lock = threading.RLock()
        self._metrics: dict[str, _Metric] = {}
        self.default_buckets = tuple(default_buckets)

    def _get_or_create(self, cls, name, help, labels, **kwargs) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(self, name, help, tuple(labels), **kwargs)
                self._metrics[name] = metric
                return metric
        if type(metric) is not cls:
            raise MetricError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        if tuple(labels) != metric.labels:
            raise MetricError(
                f"metric {name!r} is declared with labels "
                f"{list(metric.labels)}, not {list(labels)}"
            )
        return metric

    def counter(self, name: str, help: str = "",
                labels: tuple[str, ...] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: tuple[str, ...] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: tuple[str, ...] = (),
                  buckets: tuple[float, ...] | None = None) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labels,
            buckets=self.default_buckets if buckets is None else buckets,
        )

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict:
        """An atomic, JSON-ready copy of every series.

        Taken under the registry lock, so no increment can interleave
        between two series of the same snapshot.
        """
        with self._lock:
            return {
                name: {
                    "type": metric.kind,
                    "help": metric.help,
                    "values": metric._snapshot(),
                }
                for name, metric in sorted(self._metrics.items())
            }


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The current process-global registry."""
    return _REGISTRY


def set_registry(new: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry (tests); returns the previous one."""
    global _REGISTRY
    old, _REGISTRY = _REGISTRY, new
    return old


def counter(name: str, help: str = "",
            labels: tuple[str, ...] = ()) -> Counter:
    return registry().counter(name, help, labels)


class CounterHandles:
    """Bound handles on one counter of the *current* registry.

    ``handles(*labelvalues)`` resolves the counter and binds the label
    set once, then hands back the cached :class:`BoundCounter`; a
    :func:`set_registry` swap is noticed on the next call, which
    resolves afresh in the new registry.  For per-run hot paths, where
    ``counter(...).inc(...)`` pays a registry lookup and a label check
    on every call.
    """

    def __init__(self, name: str, help: str = "",
                 labels: tuple[str, ...] = ()):
        self.name = name
        self.help = help
        self.labels = tuple(labels)
        # (registry, label values -> handle bound in that registry),
        # swapped as one tuple so a handle never outlives its registry.
        self._state: tuple = (None, {})

    def __call__(self, *labelvalues) -> BoundCounter:
        current = _REGISTRY
        bound_in, handles = self._state
        if bound_in is not current:
            handles = {}
            self._state = (current, handles)
        handle = handles.get(labelvalues)
        if handle is None:
            handle = current.counter(self.name, self.help, self.labels).bind(
                **dict(zip(self.labels, labelvalues))
            )
            handles[labelvalues] = handle
        return handle


def gauge(name: str, help: str = "", labels: tuple[str, ...] = ()) -> Gauge:
    return registry().gauge(name, help, labels)


def histogram(name: str, help: str = "", labels: tuple[str, ...] = (),
              buckets: tuple[float, ...] | None = None) -> Histogram:
    return registry().histogram(name, help, labels, buckets)
