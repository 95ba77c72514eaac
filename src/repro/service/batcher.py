"""Micro-batching with admission control for the profiling service.

Concurrent compile/profile requests are not executed one at a time:
they queue in a bounded admission buffer and a single flusher task
drains them into the batch engine in *micro-batches*.  The flusher
never waits for companions: whenever it is free it takes up to
``max_batch`` pending requests, and it sleeps only while the queue is
empty.  Requests that arrive while a flush runs form the next batch.
Batching buys two things on the request path:

* **amortization** — one executor round-trip, one engine invocation
  and one cache-stats reconciliation per flush instead of per
  request;
* **coalescing** — requests with an identical work signature
  (same source, plan, run specs, ...) are deduplicated into a single
  batch item whose result fans out to every waiter, singleflight
  style.  Profiling is deterministic per (source, run-spec), so this
  is a pure win for repeat-heavy serving traffic.

Backpressure is explicit: when the admission buffer is full,
``submit`` raises :class:`QueueFull` and the server answers 429 —
shedding load at the door instead of accumulating unbounded latency.
Once :meth:`close` is called the batcher flushes whatever is pending
(drain) and rejects new work with :class:`Draining`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.obs import metrics
from repro.obs.metrics import SIZE_BUCKETS


class QueueFull(Exception):
    """The admission buffer is at capacity; shed this request."""


class Draining(Exception):
    """The service is shutting down; no new work is admitted."""


@dataclass(frozen=True)
class BatchTask:
    """One admitted unit of work.

    ``signature`` keys coalescing: tasks with equal signatures are
    executed once per flush.  ``payload`` carries the parsed request
    for the flush function.
    """

    kind: str  # "compile" | "profile"
    signature: str
    payload: dict = field(compare=False, hash=False)


@dataclass
class BatcherStats:
    """Monotonic counters plus gauges for ``/metrics``."""

    submitted: int = 0
    rejected_queue_full: int = 0
    rejected_draining: int = 0
    flushes: int = 0
    flushed_tasks: int = 0
    coalesced: int = 0
    max_batch_observed: int = 0
    queue_peak: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "submitted": self.submitted,
            "rejected_queue_full": self.rejected_queue_full,
            "rejected_draining": self.rejected_draining,
            "flushes": self.flushes,
            "flushed_tasks": self.flushed_tasks,
            "coalesced": self.coalesced,
            "max_batch_observed": self.max_batch_observed,
            "queue_peak": self.queue_peak,
        }


class MicroBatcher:
    """Admit, then flush whenever the flusher is free.

    ``flush_fn(tasks)`` is called *in a worker thread* with one task
    per unique signature and must return ``{signature: result}``; the
    result object is fanned out verbatim to every coalesced waiter.
    Flushes are strictly sequential — at most one engine invocation
    is in flight, so the admission buffer is the only queue and its
    depth is an honest backlog gauge.
    """

    def __init__(
        self,
        flush_fn,
        *,
        max_batch: int = 16,
        queue_limit: int = 128,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._flush_fn = flush_fn
        self.max_batch = max_batch
        self.queue_limit = queue_limit
        self.stats = BatcherStats()
        #: (task, waiter future, enqueue time) per admitted request.
        self._pending: list[tuple[BatchTask, asyncio.Future, float]] = []
        self._wakeup = asyncio.Event()
        self._closed = False
        self._task: asyncio.Task | None = None
        self._queue_gauge = metrics.gauge(
            "repro_queue_depth", "Admission-queue backlog (requests)."
        )
        self._shed = metrics.counter(
            "repro_shed_total",
            "Requests shed at admission, by reason.",
            labels=("reason",),
        )
        self._flush_size = metrics.histogram(
            "repro_flush_size",
            "Requests drained per micro-batch flush.",
            buckets=SIZE_BUCKETS,
        )
        self._flush_wait = metrics.histogram(
            "repro_flush_linger_seconds",
            "Oldest request's wait between admission and flush start.",
            buckets=(0.0005, 0.001, 0.002, 0.005, 0.01, 0.025, 0.05, 0.1),
        )
        self._flush_seconds = metrics.histogram(
            "repro_flush_seconds", "Engine time per micro-batch flush."
        )
        #: Engine time of the latest flush (the 429 retry hint).
        self.last_flush_seconds = 0.0

    # -- admission -------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    def submit(self, task: BatchTask) -> asyncio.Future:
        """Admit one task; the future resolves to its flush result."""
        if self._closed:
            self.stats.rejected_draining += 1
            self._shed.inc(reason="draining")
            raise Draining("service is draining")
        if len(self._pending) >= self.queue_limit:
            self.stats.rejected_queue_full += 1
            self._shed.inc(reason="queue_full")
            raise QueueFull(
                f"admission queue is full ({self.queue_limit} pending)"
            )
        loop = asyncio.get_running_loop()
        if self._task is None:
            self._task = loop.create_task(self._flush_loop())
        future: asyncio.Future = loop.create_future()
        self._pending.append((task, future, loop.time()))
        self.stats.submitted += 1
        self.stats.queue_peak = max(self.stats.queue_peak, len(self._pending))
        self._queue_gauge.set(len(self._pending))
        self._wakeup.set()
        return future

    # -- the flusher -----------------------------------------------------

    async def _flush_loop(self) -> None:
        while True:
            if not self._pending:
                if self._closed:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            batch = self._pending[: self.max_batch]
            del self._pending[: len(batch)]
            self._queue_gauge.set(len(self._pending))
            await self._run_flush(batch)

    async def _run_flush(
        self, batch: list[tuple[BatchTask, asyncio.Future, float]]
    ) -> None:
        unique: dict[str, BatchTask] = {}
        for task, _future, _enqueued in batch:
            unique.setdefault(task.signature, task)
        self.stats.flushes += 1
        self.stats.flushed_tasks += len(batch)
        self.stats.coalesced += len(batch) - len(unique)
        self.stats.max_batch_observed = max(
            self.stats.max_batch_observed, len(batch)
        )
        loop = asyncio.get_running_loop()
        started = loop.time()
        self._flush_size.observe(len(batch))
        self._flush_wait.observe(
            max(0.0, started - min(enq for _t, _f, enq in batch))
        )
        try:
            results = await loop.run_in_executor(
                None, self._flush_fn, list(unique.values())
            )
        except Exception as exc:
            for _task, future, _enqueued in batch:
                if not future.done():
                    future.set_exception(exc)
                    # A waiter may have timed out already; make sure an
                    # unobserved exception never warns at GC time.
                    future.exception()
            return
        finally:
            self.last_flush_seconds = loop.time() - started
            self._flush_seconds.observe(self.last_flush_seconds)
        for task, future, _enqueued in batch:
            if future.done():
                continue  # the waiter timed out and went away
            if task.signature in results:
                future.set_result(results[task.signature])
            else:
                future.set_exception(
                    RuntimeError(f"flush lost task {task.signature[:16]}...")
                )
                future.exception()

    # -- shutdown --------------------------------------------------------

    async def close(self) -> None:
        """Drain: flush everything pending, then stop the flusher."""
        self._closed = True
        self._wakeup.set()
        if self._task is not None:
            await self._task
            self._task = None
