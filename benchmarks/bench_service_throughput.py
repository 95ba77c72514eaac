"""Profiling-service throughput: micro-batching vs one-request-per-batch.

A closed-loop load generator (each worker thread owns one keep-alive
:class:`ServiceClient` and immediately issues its next request when
the previous one returns) drives two server configurations over the
same repeat-heavy workload:

* **baseline** — ``max_batch=1``: every request is its own engine
  invocation, the serving shape the service replaces;
* **batched** — ``max_batch=32``: the flusher takes whatever is
  pending whenever it is free, so requests that arrive while a flush
  runs ride the next engine invocation together, and identical
  requests (same source, plan, run specs — deterministic, so results
  are interchangeable) are coalesced singleflight-style into a single
  batch item whose result fans out to every waiter.

Each row also names the batcher's layers: ``wait`` is the share of a
flush cycle spent before the engine starts (the oldest request's
queue wait, read from the flush histograms).  At c=1 nothing else is
pending, so both servers flush each request as soon as it arrives.

The workload models serving traffic: many clients hammering a hot
working set — a few programs under a few deterministic run
configurations, exactly the accumulate-across-runs usage the paper
recommends.  Because the working set is smaller than the concurrency
level, most in-flight requests are duplicates of one another, which
is precisely the regime micro-batching is built for.  Acceptance
(ISSUE 3): at concurrency 16 the micro-batched server must sustain
at least 2x the baseline's request rate, and an overloaded server
(tiny admission queue) must shed load with 429s while every ingest
it *accepted* survives.
"""

from __future__ import annotations

import os
import threading
import time

from repro.obs.metrics import registry
from repro.service import (
    FrontDoorConfig,
    FrontDoorThread,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
)
from repro.report import format_table
from repro.validate.measure import Measurement, measure_callable
from repro.workloads.generators import ProgramGenerator
from repro.workloads.paper_example import PAPER_SOURCE

from conftest import enforce, gate, publish, record

#: Hot working set: fewer distinct (program, run-config) signatures
#: than concurrent clients, so in-flight duplication is the norm.
N_PROGRAMS = 2
N_SEEDS = 2
CONCURRENCY_LEVELS = (1, 4, 16)
REQUESTS_PER_LEVEL = 96
ACCEPTANCE_CONCURRENCY = 16
ACCEPTANCE_SPEEDUP = 2.0
#: Closed-loop runs per (server, concurrency): one keeps CI's service
#: job within its time budget; each row's request latencies still
#: carry a 95% CI (the ``service.request.*`` layers).  The servers run
#: one at a time, not interleaved: a second live server in this
#: process slows the first, and interleaving them read the c=16 ratio
#: ~15% lower (median 1.80 against 2.12 over five runs each).
TRIALS = 1

#: The batcher's own histograms, read from this process's registry:
#: how long the oldest request of a flush waited in the queue before
#: the engine started, and the engine time per flush.
WAIT, FLUSH = "repro_flush_linger_seconds", "repro_flush_seconds"


def _workload(
    programs: int, requests: int, seeds: int, max_stmts: int
) -> list[tuple[str, list[dict]]]:
    """Request ``i`` profiles program ``i % programs`` under one of
    ``seeds`` run configurations, cycling through them."""
    sources = [
        ProgramGenerator(seed, max_depth=2, max_stmts=max_stmts).source()
        for seed in range(programs)
    ]
    return [
        (sources[i % programs], [{"seed": (i // programs) % seeds}])
        for i in range(requests)
    ]


def _run_closed_loop(
    port: int, concurrency: int, tasks: list[tuple[str, list[dict]]]
) -> list[float]:
    """Drive the service until every task is done; per-request ns."""
    pending = iter(tasks)
    lock = threading.Lock()
    latencies: list[float] = []
    errors: list[str] = []

    def worker():
        with ServiceClient(port=port, timeout=120) as client:
            while True:
                with lock:
                    task = next(pending, None)
                if task is None:
                    return
                source, runs = task
                started = time.perf_counter_ns()
                try:
                    client.profile(source, runs=runs)
                except ServiceError as exc:  # pragma: no cover - surfaced
                    with lock:
                        errors.append(str(exc))
                    return
                elapsed = time.perf_counter_ns() - started
                with lock:
                    latencies.append(float(elapsed))

    threads = [threading.Thread(target=worker) for _ in range(concurrency)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, f"load generation failed: {errors[:3]}"
    assert len(latencies) == len(tasks)
    return latencies


def _flush_totals() -> list[float]:
    wait, flush = registry().get(WAIT), registry().get(FLUSH)
    return [wait.sum(), flush.sum(), flush.count()]


def _load_row(label, port, concurrency, tasks, rows, layers) -> float:
    """Closed-loop runs against one server; returns its request rate.

    Appends one table row and records the layers behind it: the run's
    wall time, every request's latency and, for a server in this
    process, the flush histograms' deltas over the runs.
    """
    name = f"{label}.c{concurrency}"
    latencies = []
    before = _flush_totals()
    wall = measure_callable(
        lambda _trial: latencies.extend(
            _run_closed_loop(port, concurrency, tasks)
        ),
        trials=TRIALS,
        label=f"service.run.{name}",
    )
    waited, busy, count = (a - b for a, b in zip(_flush_totals(), before))
    layers[f"service.run.{name}"] = wall
    layers[f"service.request.{name}"] = Measurement(
        label=f"service.request.{name}", samples_ns=latencies
    )
    wait_share = "-"  # no flush ran in this process
    if count:
        wait_share = f"{100 * waited / (waited + busy):.0f}%"
        for layer, total in (("wait", waited), ("flush", busy)):
            layers[f"service.{layer}.{name}"] = {
                "count": count,
                "sum_ns": total * 1e9,
                "mean_ns": total * 1e9 / count,
            }
    rate = len(tasks) / (wall.mean_ns / 1e9)
    ordered = sorted(latencies)
    p50, p95 = (ordered[int(q * len(ordered))] / 1e6 for q in (0.5, 0.95))
    rows.append(
        [label, concurrency, len(ordered), f"{rate:.1f}", f"{p50:.1f}",
         f"{p95:.1f}", wait_share]
    )
    return rate


HEADERS = ["configuration", "conc", "reqs", "req/s", "p50 ms", "p95 ms",
           "wait"]


def test_micro_batching_beats_request_per_batch():
    tasks = _workload(N_PROGRAMS, REQUESTS_PER_LEVEL, N_SEEDS, max_stmts=3)
    configs = {
        "baseline": ServiceConfig(max_batch=1),
        "batched": ServiceConfig(max_batch=32),
    }
    rows = []
    layers = {}
    rates = {}
    for label, config in configs.items():
        with ServiceThread(config) as handle:
            # One warm-up pass compiles the working set into the
            # shared LRU tier, so both servers measure steady state.
            with ServiceClient(port=handle.port) as warm:
                for source, _ in tasks[:N_PROGRAMS]:
                    warm.compile(source)
            for concurrency in CONCURRENCY_LEVELS:
                rates[label, concurrency] = _load_row(
                    label, handle.port, concurrency, tasks, rows, layers
                )
            with ServiceClient(port=handle.port) as probe:
                stats = probe.metrics()["batcher"]

    speedup = (
        rates["batched", ACCEPTANCE_CONCURRENCY]
        / rates["baseline", ACCEPTANCE_CONCURRENCY]
    )
    rows.append(
        [f"speedup at c={ACCEPTANCE_CONCURRENCY}", "", "", f"{speedup:.2f}x",
         "", "", ""]
    )
    publish(
        "service_throughput",
        format_table(
            HEADERS,
            rows,
            title=(
                f"profiling service closed-loop load: {N_PROGRAMS} programs "
                f"x {N_SEEDS} run configs, {REQUESTS_PER_LEVEL} reqs/run "
                f"(batched flushes={stats['flushes']}, "
                f"coalesced={stats['coalesced']})"
            ),
        ),
    )
    # Micro-batching must amortize and coalesce its way to >= 2x.
    assert stats["coalesced"] > 0, "no coalescing happened at concurrency 16"
    enforce(
        record(
            "service_throughput",
            end_to_end={
                "service.batched_speedup_c16": gate(
                    speedup, ACCEPTANCE_SPEEDUP, "higher"
                )
            },
            layers=layers,
        )
    )


#: The multi-worker scaling scenario.  Unlike the micro-batching
#: workload above, this one is *distinct-key-heavy*: every request
#: profiles a different (program, seed) signature, so coalescing
#: cannot help and the only way to go faster is to put more cores to
#: work.  One process is GIL-bound on CPU-heavy profiling; N worker
#: processes behind the consistent-hash front door should approach
#: N-fold throughput on an N-core box.
SHARD_WORKERS = 4
SHARD_CONCURRENCY = 64
SHARD_PROGRAMS = 16
SHARD_REQUESTS = 192
SHARD_GATE = float(os.environ.get("REPRO_SHARD_GATE", "2.5"))


def test_sharded_workers_scale_throughput(tmp_path):
    """``--workers 4`` vs one worker.  The gate arms only with enough
    cores for four workers to run in parallel; with fewer it is
    recorded as ``unmeasured`` and the test is skipped, not passed."""
    cores = os.cpu_count() or 1
    # Every (program, seed) signature distinct: no coalescing.
    tasks = _workload(
        SHARD_PROGRAMS, SHARD_REQUESTS, SHARD_REQUESTS, max_stmts=4
    )
    door_config = FrontDoorConfig(
        workers=SHARD_WORKERS,
        worker=ServiceConfig(
            db=str(tmp_path / "profiles.json"),
            request_timeout=120.0,
        ),
    )
    rows = []
    layers = {}
    with ServiceThread(ServiceConfig(request_timeout=120.0)) as single:
        single_rate = _load_row(
            "1-worker", single.port, SHARD_CONCURRENCY, tasks, rows, layers
        )
    with FrontDoorThread(door_config) as door:
        sharded_rate = _load_row(
            f"{SHARD_WORKERS}-workers", door.port, SHARD_CONCURRENCY,
            tasks, rows, layers,
        )
        with ServiceClient(port=door.port) as probe:
            health = probe.healthz()
            assert health["healthy_workers"] == SHARD_WORKERS

    speedup = sharded_rate / single_rate
    armed = cores >= SHARD_WORKERS
    rows.append(["scaling", "", "", f"{speedup:.2f}x", "", "", ""])
    publish(
        "service_sharding",
        format_table(
            HEADERS,
            rows,
            title=(
                f"sharded service scaling: {SHARD_PROGRAMS} distinct "
                f"programs, {SHARD_REQUESTS} reqs/run, {cores} cores "
                f"(gate {SHARD_GATE:g}x "
                f"{'armed' if armed else 'unmeasured'})"
            ),
        ),
    )
    enforce(
        record(
            "service_sharding",
            end_to_end={
                "service.sharded_speedup": gate(
                    speedup, SHARD_GATE, "higher", armed=armed
                )
            },
            layers=layers,
        )
    )


def test_overload_sheds_load_without_losing_accepted_ingests(tmp_path):
    """Fill a tiny admission queue; 429s shed load, accepted work lands."""
    db_path = tmp_path / "profiles.json"
    config = ServiceConfig(db=str(db_path), max_batch=4, queue_limit=4)
    accepted = []
    rejected = []
    lock = threading.Lock()

    with ServiceThread(config) as handle:

        def slam(worker_id: int):
            with ServiceClient(port=handle.port, timeout=120) as client:
                for i in range(6):
                    try:
                        response = client.profile(
                            PAPER_SOURCE,
                            runs=[{"seed": (worker_id * 7 + i) % 5}],
                            ingest=f"overload-{worker_id}",
                        )
                    except ServiceError as exc:
                        assert exc.status in (429, 503), str(exc)
                        with lock:
                            rejected.append(exc.status)
                    else:
                        with lock:
                            accepted.append(
                                (f"overload-{worker_id}", response)
                            )

        threads = [
            threading.Thread(target=slam, args=(i,)) for i in range(12)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        with ServiceClient(port=handle.port) as probe:
            health = probe.healthz()
            assert health["status"] == "ok"  # overload never killed it
            stats = probe.metrics()["batcher"]

    assert accepted, "the overload test never got a request through"
    assert stats["rejected_queue_full"] == len(rejected)

    # Every 200-answered ingest survived the drain into the database.
    from repro.profiling.database import ProfileDatabase

    reloaded = ProfileDatabase(db_path)
    expected: dict[str, int] = {}
    for key, _response in accepted:
        expected[key] = expected.get(key, 0) + 1
    for key, runs in expected.items():
        assert reloaded.lookup(key).runs == runs, key
