"""Metrics registry semantics, including concurrent exactness."""

import asyncio
import threading

import pytest

from repro.obs import MetricsRegistry, set_registry
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    CounterHandles,
    MetricError,
    registry as global_registry,
)

pytestmark = pytest.mark.obs


class TestCounter:
    def test_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("hits", "Hits.")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_counter_cannot_decrease(self):
        c = MetricsRegistry().counter("hits")
        with pytest.raises(MetricError):
            c.inc(-1)

    def test_labels_make_distinct_series(self):
        c = MetricsRegistry().counter("lookups", labels=("tier",))
        c.inc(tier="memory")
        c.inc(tier="memory")
        c.inc(tier="disk")
        assert c.value(tier="memory") == 2
        assert c.value(tier="disk") == 1
        assert c.value(tier="miss") == 0

    def test_wrong_labels_raise(self):
        c = MetricsRegistry().counter("lookups", labels=("tier",))
        with pytest.raises(MetricError):
            c.inc()  # missing label
        with pytest.raises(MetricError):
            c.inc(tier="x", extra="y")


class TestBoundCounter:
    def test_bound_inc_matches_labelled_inc(self):
        bound, labelled = (
            MetricsRegistry().counter("runs", labels=("backend",))
            for _ in range(2)
        )
        handle = bound.bind(backend="codegen")
        for _ in range(3):
            handle.inc()
            labelled.inc(backend="codegen")
        assert bound._snapshot() == labelled._snapshot()

    def test_binding_records_no_series(self):
        reg = MetricsRegistry()
        reg.counter("runs", labels=("backend",)).bind(backend="codegen")
        assert reg.snapshot()["runs"]["values"] == []

    def test_bound_counter_cannot_decrease(self):
        handle = MetricsRegistry().counter("hits").bind()
        with pytest.raises(MetricError):
            handle.inc(-1)

    def test_bind_checks_labels(self):
        with pytest.raises(MetricError):
            MetricsRegistry().counter("runs", labels=("backend",)).bind()

    def test_handles_follow_a_registry_swap(self, fresh_registry):
        handles = CounterHandles("runs", "Runs.", labels=("backend",))
        handles("codegen").inc()
        assert handles("codegen") is handles("codegen")
        swapped = MetricsRegistry()
        old = set_registry(swapped)
        try:
            handles("codegen").inc()
            handles("codegen").inc()
        finally:
            set_registry(old)
        handles("reference").inc()
        assert swapped.counter("runs", labels=("backend",)).value(
            backend="codegen"
        ) == 2
        runs = fresh_registry.counter("runs", labels=("backend",))
        assert runs.value(backend="codegen") == 1
        assert runs.value(backend="reference") == 1


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value() == 12

    def test_gauges_go_negative(self):
        g = MetricsRegistry().gauge("delta")
        g.dec(2)
        assert g.value() == -2


class TestHistogram:
    def test_bucket_counts_sum_to_total(self):
        h = MetricsRegistry().histogram(
            "lat", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 5.0, 50.0, 0.5):
            h.observe(value)
        (series,) = h._snapshot()
        assert series["count"] == 5
        assert series["sum"] == pytest.approx(56.05)
        # cumulative buckets: the +Inf bucket equals the count
        assert series["buckets"][float("inf")] == 5
        assert series["buckets"][0.1] == 1
        assert series["buckets"][1.0] == 3
        assert series["buckets"][10.0] == 4

    def test_boundary_value_lands_in_le_bucket(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0))
        h.observe(1.0)  # le="1.0" must include exactly 1.0
        (series,) = h._snapshot()
        assert series["buckets"][1.0] == 1

    def test_count_and_sum_accessors(self):
        h = MetricsRegistry().histogram("lat", labels=("route",))
        h.observe(0.2, route="/compile")
        h.observe(0.3, route="/compile")
        assert h.count(route="/compile") == 2
        assert h.sum(route="/compile") == pytest.approx(0.5)
        assert h.count(route="/profile") == 0

    def test_empty_buckets_rejected(self):
        with pytest.raises(MetricError):
            MetricsRegistry().histogram("lat", buckets=())

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("hits", "Hits.")
        b = reg.counter("hits")
        assert a is b

    def test_type_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(MetricError):
            reg.gauge("thing")
        with pytest.raises(MetricError):
            reg.histogram("thing")

    def test_label_set_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("thing", labels=("a",))
        with pytest.raises(MetricError):
            reg.counter("thing", labels=("b",))
        with pytest.raises(MetricError):
            reg.counter("thing")

    def test_names_and_get(self):
        reg = MetricsRegistry()
        reg.counter("b_metric")
        reg.gauge("a_metric")
        assert reg.names() == ["a_metric", "b_metric"]
        assert reg.get("a_metric").kind == "gauge"
        assert reg.get("missing") is None

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("hits", "Hits.", labels=("tier",)).inc(tier="memory")
        snap = reg.snapshot()
        assert snap["hits"]["type"] == "counter"
        assert snap["hits"]["help"] == "Hits."
        assert snap["hits"]["values"] == [
            {"labels": {"tier": "memory"}, "value": 1.0}
        ]

    def test_set_registry_swaps_global(self):
        mine = MetricsRegistry()
        old = set_registry(mine)
        try:
            assert global_registry() is mine
        finally:
            set_registry(old)
        assert global_registry() is old


class TestConcurrency:
    def test_counter_exact_under_threads(self):
        c = MetricsRegistry().counter("hits", labels=("worker",))
        threads = 8
        per_thread = 2000

        def work(i):
            for _ in range(per_thread):
                c.inc(worker=str(i % 2))

        pool = [
            threading.Thread(target=work, args=(i,)) for i in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        total = c.value(worker="0") + c.value(worker="1")
        assert total == threads * per_thread

    def test_histogram_exact_under_threads(self):
        h = MetricsRegistry().histogram("lat", buckets=(0.5, 1.5))
        threads = 6
        per_thread = 999  # divisible by 3: residues land evenly

        def work():
            for i in range(per_thread):
                h.observe(float(i % 3))  # 0.0, 1.0, 2.0

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        (series,) = h._snapshot()
        assert series["count"] == threads * per_thread
        # bucket counts are internally consistent, not torn
        assert series["buckets"][float("inf")] == series["count"]
        assert series["buckets"][0.5] == threads * per_thread // 3
        assert series["buckets"][1.5] == 2 * threads * per_thread // 3

    def test_exact_under_asyncio_tasks(self):
        reg = MetricsRegistry()
        c = reg.counter("ops", labels=("task",))
        h = reg.histogram("dur", buckets=(1.0,))

        async def work(i):
            for _ in range(500):
                c.inc(task=str(i))
                h.observe(0.5)
                await asyncio.sleep(0)

        async def main():
            await asyncio.gather(*(work(i) for i in range(4)))

        asyncio.run(main())
        assert sum(c.value(task=str(i)) for i in range(4)) == 2000
        assert h.count() == 2000

    def test_snapshot_is_consistent_while_writers_run(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0,))
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                h.observe(0.5)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(200):
                snap = reg.snapshot()
                values = snap["lat"]["values"]
                if not values:
                    continue
                (series,) = values
                # count, sum and buckets come from one atomic pass
                assert series["buckets"][float("inf")] == series["count"]
                assert series["sum"] == pytest.approx(
                    0.5 * series["count"]
                )
        finally:
            stop.set()
            thread.join()
