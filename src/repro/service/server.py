"""The asyncio compile/profile/ingest server.

One long-lived :class:`ProfilingService` process owns three shared
resources:

* an :class:`~repro.batch.cache.ArtifactCache` — the LRU hot tier
  keeps the programs the service is currently being asked about
  resident; the optional disk tier survives restarts and is shared
  with ``repro batch`` invocations;
* a :class:`~repro.profiling.database.ProfileDatabase` — the paper's
  accumulate-then-normalize store.  Clients POST raw ``TOTAL_FREQ``
  deltas; the service sums them (Definition 3 needs only ratios) and
  answers queries with freshly normalized frequencies, TIME and
  Section-5 variance;
* a :class:`~repro.service.batcher.MicroBatcher` — concurrent
  compile/profile requests ride the batch engine together instead of
  one engine invocation each.

Endpoints (JSON over HTTP/1.1, see ``docs/service.md``)::

    GET  /healthz                  liveness + drain state
    GET  /metrics                  counters and gauges
    POST /compile                  compile (micro-batched, cached)
    POST /profile                  compile + profile (micro-batched)
    POST /profiles/{key}/ingest    accumulate a raw TOTAL_FREQ delta,
                                   or a Ball–Larus path-count delta
    GET  /profiles/{key}           Definition-3 freqs + Section-5 VAR
                                   (+ predicted-vs-ingested drift)
    GET  /profiles/{key}/paths     top-K hot paths of the key's spectrum
    GET  /profiles/{key}/chunks    Kruskal-Weiss chunk-size advice
    GET  /calibration              the loaded wall-clock calibration

Degradation under load is explicit, never emergent: a full admission
queue answers 429, a request that outlives its budget answers 504
(the work is abandoned at the next engine item boundary), and
SIGTERM/SIGINT triggers a drain — stop accepting, flush pending
micro-batches, persist the profile database, exit.  An ingest that
was answered 200 is therefore never lost by a graceful shutdown.
"""

from __future__ import annotations

import asyncio
import math
import os
import platform
import signal
import threading
import time
from dataclasses import dataclass

import repro
from repro.batch import run_batch
from repro.pipeline import BACKENDS
from repro.batch.aggregate import canonical_json, summarize_item
from repro.batch.cache import ArtifactCache
from repro.batch.engine import BatchItem
from repro.costs.model import OPTIMIZING_MACHINE, SCALAR_MACHINE
from repro.obs import (
    current_context,
    metrics,
    parse_traceparent,
    render_prometheus,
    span,
)
from repro.obs.prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from repro.paths import reconstruct_path_procedure
from repro.profiling.database import ProfileDatabase, ProgramProfile
from repro.service.batcher import BatchTask, Draining, MicroBatcher, QueueFull
from repro.service.protocol import (
    MAX_BODY_BYTES,
    ProtocolError,
    RawBody,
    Request,
    error_payload,
    read_request,
    response_bytes,
)

_MODELS = {"scalar": SCALAR_MACHINE, "optimizing": OPTIMIZING_MACHINE}
_PLANS = ("smart", "naive")
_MODES = ("counters", "paths")
_LOOP_VARIANCE = ("zero", "profiled", "poisson", "geometric", "uniform")
#: Hard ceiling on ``?k=`` for the hot-path query.
_MAX_HOT_PATHS = 1000


def _new_request_id() -> str:
    return os.urandom(8).hex()


class PathDeltaError(Exception):
    """A path-count delta failed validation against the path plan."""


@dataclass
class ServiceConfig:
    """Every server knob, with serving-friendly defaults."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: bind an ephemeral port (exposed as .port)
    #: Profile database path (``None``: in-memory, lost on exit).
    db: str | None = None
    #: Artifact cache directory (``None``: memory tier only).
    cache: str | None = None
    #: Most pending requests one micro-batch flush takes.
    max_batch: int = 16
    #: Admission-queue bound; beyond it requests are answered 429.
    queue_limit: int = 128
    #: Per-request budget in seconds; beyond it the answer is 504.
    request_timeout: float = 30.0
    #: Hard ceiling on client-supplied max_steps and runs-per-request.
    max_steps_cap: int = 10_000_000
    max_runs_per_request: int = 64
    #: Persist the database every N ingests (0: only on drain).
    save_every: int = 0
    #: Give up on drain (abandoning unstarted batch items) after this.
    drain_timeout: float = 30.0
    max_body: int = MAX_BODY_BYTES
    #: Path to a :class:`repro.validate.CalibrationProfile` artifact.
    #: When set, ``GET /calibration`` serves it and queries accept
    #: ``model=calibrated`` (TIME in ns, VAR in ns²).
    calibration: str | None = None
    #: Which shard of a multi-worker deployment this process is
    #: (``None``: standalone).  A standalone service with a ``db``
    #: absorbs leftover ``db.shardN.json`` slices at boot; a shard
    #: never does, and labels its health/metrics with its index.
    shard_index: int | None = None
    shard_count: int = 1


class ProfilingService:
    """The server object: ``await start()``, then ``serve_forever()``."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.database = ProfileDatabase(
            self.config.db,
            absorb_shards=self.config.shard_index is None,
        )
        self.cache = ArtifactCache(self.config.cache)
        self.batcher = MicroBatcher(
            self._flush,
            max_batch=self.config.max_batch,
            queue_limit=self.config.queue_limit,
        )
        #: source text per profile-database key, for query-time analysis.
        self.sources: dict[str, str] = {}
        #: accumulated Ball–Larus path spectra per key:
        #: key -> procedure -> path id -> count.  Complete paths only;
        #: STOP partials fold into the reconstructed profile but are
        #: prefixes, not members of the numbered path space.
        self.path_spectra: dict[str, dict[str, dict[int, float]]] = {}
        #: optional wall-clock calibration artifact (``/calibration``).
        self.calibration = None
        if self.config.calibration:
            from repro.validate.calibrate import CalibrationProfile

            self.calibration = CalibrationProfile.load(
                self.config.calibration
            )
        #: last served analysis per key, for predicted-vs-ingested
        #: drift on repeat queries: key -> {runs, time, var, params}.
        self._analysis_snapshots: dict[str, dict] = {}
        self.port: int | None = None
        self.draining = False
        self._server: asyncio.base_events.Server | None = None
        self._stopped = asyncio.Event()
        self._started = time.monotonic()
        self._in_flight = 0
        self._abort_flush = threading.Event()
        self._cache_lock = threading.Lock()
        self._requests: dict[str, int] = {}
        self._responses: dict[int, int] = {}
        self._timeouts = 0
        self._ingests = 0
        self._ingested_runs = 0.0
        self._path_ingests = 0
        self._db_saves = 0
        self._protocol_errors = 0
        #: Cache stats as of the last flush boundary.  The flush thread
        #: replaces the whole dict under ``_cache_lock``; ``/metrics``
        #: reads the reference without blocking behind an in-flight
        #: flush, so the JSON snapshot is never torn mid-batch.
        self._cache_snapshot: dict = self.cache.stats.as_dict()
        self._http_seconds = metrics.histogram(
            "repro_http_request_seconds",
            "Service request latency by route.",
            labels=("route",),
        )
        self._http_requests = metrics.counter(
            "repro_http_requests_total",
            "Service requests by route and status.",
            labels=("route", "status"),
        )
        self._path_ingest_metric = metrics.counter(
            "repro_path_ingests_total",
            "Path-count ingest deltas by outcome.",
            labels=("outcome",),
        )

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Block until a drain (signal or :meth:`shutdown`) finishes."""
        assert self._server is not None, "call start() first"
        await self._stopped.wait()

    def install_signal_handlers(
        self, loop: asyncio.AbstractEventLoop
    ) -> None:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: loop.create_task(self.shutdown())
                )
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass

    async def shutdown(self) -> None:
        """Graceful drain: finish accepted work, persist, stop."""
        if self.draining:
            return
        self.draining = True
        if self._server is not None:
            self._server.close()
        try:
            await asyncio.wait_for(
                self.batcher.close(), timeout=self.config.drain_timeout
            )
        except (asyncio.TimeoutError, TimeoutError):
            # Too slow: abandon unstarted items at the next engine
            # boundary (their waiters get stage="cancelled" -> 503).
            self._abort_flush.set()
            await self.batcher.close()
        deadline = time.monotonic() + self.config.drain_timeout
        while self._in_flight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        await asyncio.get_running_loop().run_in_executor(
            None, self._save_database
        )
        if self._server is not None:
            await self._server.wait_closed()
        self._stopped.set()

    def _save_database(self) -> None:
        self.database.save()
        self._db_saves += 1

    # -- connection handling ---------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body=self.config.max_body
                    )
                except ProtocolError as exc:
                    self._protocol_errors += 1
                    self._responses[exc.status] = (
                        self._responses.get(exc.status, 0) + 1
                    )
                    writer.write(
                        response_bytes(
                            exc.status,
                            error_payload(exc.status, str(exc)),
                            keep_alive=False,
                            headers={"X-Request-Id": _new_request_id()},
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                # Echo the client's correlation id, or mint one: every
                # response names the request it answers.
                request_id = (
                    request.headers.get("x-request-id") or _new_request_id()
                )
                status, payload = await self._dispatch(request)
                self._responses[status] = self._responses.get(status, 0) + 1
                keep_alive = request.keep_alive and not self.draining
                writer.write(
                    response_bytes(
                        status,
                        payload,
                        keep_alive=keep_alive,
                        headers={"X-Request-Id": request_id},
                    )
                )
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: Request) -> tuple[int, dict]:
        """Route, handle and observe one request.

        The handler runs inside an ``http.<route>`` span whose parent
        is the client's ``traceparent`` header (if any), so client
        traces continue through the batcher into the engine.
        """
        route, _key = self._route(request.path)
        route_label = route or "unknown"
        started = time.perf_counter()
        with span(
            f"http.{route_label}",
            attrs={"method": request.method, "path": request.path},
            parent=parse_traceparent(request.headers.get("traceparent")),
        ) as request_span:
            status, payload = await self._dispatch_inner(request)
            request_span.set_attr(status=status)
        elapsed = time.perf_counter() - started
        self._http_seconds.observe(elapsed, route=route_label)
        self._http_requests.inc(route=route_label, status=str(status))
        return status, payload

    async def _dispatch_inner(self, request: Request) -> tuple[int, dict]:
        route, key = self._route(request.path)
        self._requests[route or "unknown"] = (
            self._requests.get(route or "unknown", 0) + 1
        )
        if route is None:
            return 404, error_payload(404, f"no such path: {request.path}")
        handler, method = {
            "healthz": (self._handle_healthz, "GET"),
            "metrics": (self._handle_metrics, "GET"),
            "compile": (self._handle_compile, "POST"),
            "profile": (self._handle_profile, "POST"),
            "ingest": (self._handle_ingest, "POST"),
            "query": (self._handle_query, "GET"),
            "hot_paths": (self._handle_hot_paths, "GET"),
            "calibration": (self._handle_calibration, "GET"),
            "chunks": (self._handle_chunks, "GET"),
            "profiles_index": (self._handle_profiles_index, "GET"),
        }[route]
        if request.method != method:
            return 405, error_payload(
                405, f"{request.path} only accepts {method}"
            )
        if self.draining and route not in ("healthz", "metrics"):
            return 503, error_payload(503, "service is draining")
        self._in_flight += 1
        try:
            try:
                if key is None:
                    return await handler(request)
                return await handler(request, key)
            except ProtocolError as exc:
                return exc.status, error_payload(exc.status, str(exc))
            except QueueFull as exc:
                # Retry after about one flush: it frees up to
                # max_batch queue slots.
                retry_ms = math.ceil(self.batcher.last_flush_seconds * 1e3)
                return 429, error_payload(
                    429, str(exc), retry_after_ms=max(1, retry_ms)
                )
            except Draining:
                return 503, error_payload(503, "service is draining")
            except (asyncio.TimeoutError, TimeoutError):
                self._timeouts += 1
                metrics.counter(
                    "repro_shed_total",
                    "Requests shed at admission, by reason.",
                    labels=("reason",),
                ).inc(reason="timeout")
                return 504, error_payload(
                    504,
                    f"request exceeded its "
                    f"{self.config.request_timeout:g}s budget",
                )
            except Exception as exc:  # pragma: no cover - defensive
                return 500, error_payload(
                    500, f"{type(exc).__name__}: {exc}"
                )
        finally:
            self._in_flight -= 1

    @staticmethod
    def _route(path: str) -> tuple[str | None, str | None]:
        if path == "/healthz":
            return "healthz", None
        if path == "/metrics":
            return "metrics", None
        if path == "/compile":
            return "compile", None
        if path == "/profile":
            return "profile", None
        if path == "/calibration":
            return "calibration", None
        if path == "/profiles":
            return "profiles_index", None
        parts = [part for part in path.split("/") if part]
        if len(parts) == 2 and parts[0] == "profiles":
            return "query", parts[1]
        if (
            len(parts) == 3
            and parts[0] == "profiles"
            and parts[2] == "ingest"
        ):
            return "ingest", parts[1]
        if (
            len(parts) == 3
            and parts[0] == "profiles"
            and parts[2] == "paths"
        ):
            return "hot_paths", parts[1]
        if (
            len(parts) == 3
            and parts[0] == "profiles"
            and parts[2] == "chunks"
        ):
            return "chunks", parts[1]
        return None, None

    # -- trivial endpoints -----------------------------------------------

    async def _handle_healthz(self, request: Request) -> tuple[int, dict]:
        body = {
            "status": "draining" if self.draining else "ok",
            "uptime_s": round(time.monotonic() - self._started, 3),
            "queue_depth": self.batcher.queue_depth,
        }
        if self.config.shard_index is not None:
            body["shard"] = self.config.shard_index
            body["shard_count"] = self.config.shard_count
        return 200, body

    async def _handle_metrics(self, request: Request) -> tuple[int, dict]:
        if "text/plain" in request.headers.get("accept", ""):
            self._sync_gauges()
            text = render_prometheus()
            return 200, RawBody(PROMETHEUS_CONTENT_TYPE, text.encode())
        return 200, self._metrics_json()

    def _metrics_json(self) -> dict:
        """One atomic JSON snapshot of every counter.

        Built synchronously on the event loop with no ``await`` in
        between, so loop-side counters are mutually consistent; cache
        counters come from ``_cache_snapshot``, the whole-dict copy
        the flush thread publishes at each flush boundary — never a
        half-updated view from the middle of a batch flush.
        """
        uptime = round(time.monotonic() - self._started, 3)
        shard = (
            {
                "index": self.config.shard_index,
                "count": self.config.shard_count,
            }
            if self.config.shard_index is not None
            else None
        )
        return {
            "uptime_s": uptime,
            "uptime_seconds": uptime,
            "build": {
                "version": repro.__version__,
                "python": platform.python_version(),
            },
            "shard": shard,
            "draining": self.draining,
            "queue_depth": self.batcher.queue_depth,
            "in_flight": self._in_flight,
            "requests_total": dict(sorted(self._requests.items())),
            "responses_by_status": {
                str(status): count
                for status, count in sorted(self._responses.items())
            },
            "protocol_errors": self._protocol_errors,
            "timeouts": self._timeouts,
            "batcher": self.batcher.stats.as_dict(),
            "cache": self._cache_snapshot,
            "database": {
                "keys": len(self.database.keys()),
                "runs": self.database.total_runs(),
                "ingests": self._ingests,
                "ingested_runs": self._ingested_runs,
                "saves": self._db_saves,
                "path_keys": len(self.path_spectra),
                "path_ingests": self._path_ingests,
            },
        }

    def _sync_gauges(self) -> None:
        """Refresh point-in-time gauges before a Prometheus render."""
        metrics.gauge(
            "repro_uptime_seconds", "Service uptime in seconds."
        ).set(time.monotonic() - self._started)
        metrics.gauge(
            "repro_build_info",
            "Build metadata (always 1; the labels carry the info).",
            labels=("version", "python"),
        ).set(1, version=repro.__version__,
              python=platform.python_version())
        metrics.gauge(
            "repro_queue_depth", "Admission-queue backlog (requests)."
        ).set(self.batcher.queue_depth)
        metrics.gauge(
            "repro_in_flight", "Requests currently being handled."
        ).set(self._in_flight)
        metrics.gauge(
            "repro_draining", "1 while the service is draining, else 0."
        ).set(int(self.draining))
        metrics.gauge(
            "repro_db_keys", "Profile-database keys."
        ).set(len(self.database.keys()))
        metrics.gauge(
            "repro_db_runs", "Accumulated runs across all database keys."
        ).set(self.database.total_runs())
        if self.config.shard_index is not None:
            metrics.gauge(
                "repro_shard_info",
                "Shard identity of this worker (always 1; the labels "
                "carry the info).",
                labels=("shard", "count"),
            ).set(
                1,
                shard=str(self.config.shard_index),
                count=str(self.config.shard_count),
            )

    # -- batched endpoints -----------------------------------------------

    def _require_source(self, payload: dict) -> str:
        source = payload.get("source")
        if not isinstance(source, str) or not source.strip():
            raise ProtocolError('"source" must be a non-empty string')
        return source

    def _normalize_options(self, payload: dict) -> dict:
        plan = payload.get("plan", "smart")
        if plan not in _PLANS:
            raise ProtocolError(f'"plan" must be one of {list(_PLANS)}')
        mode = payload.get("mode", "counters")
        if mode not in _MODES:
            raise ProtocolError(f'"mode" must be one of {list(_MODES)}')
        if mode == "paths" and plan != "smart":
            # Path reconstruction rebuilds the smart plan's
            # Definition-3 targets; a naive plan has nothing to mirror.
            raise ProtocolError('"mode": "paths" requires "plan": "smart"')
        verify = bool(payload.get("verify", False))
        loop_variance = payload.get("loop_variance", "zero")
        if loop_variance not in _LOOP_VARIANCE:
            raise ProtocolError(
                f'"loop_variance" must be one of {list(_LOOP_VARIANCE)}'
            )
        max_steps = payload.get("max_steps", self.config.max_steps_cap)
        if not isinstance(max_steps, int) or max_steps < 1:
            raise ProtocolError('"max_steps" must be a positive integer')
        backend = payload.get("backend", "auto")
        if backend not in BACKENDS:
            raise ProtocolError(f'"backend" must be one of {list(BACKENDS)}')
        return {
            "plan": plan,
            "mode": mode,
            "verify": verify,
            "loop_variance": loop_variance,
            "max_steps": min(max_steps, self.config.max_steps_cap),
            "backend": backend,
        }

    def _normalize_runs(self, payload: dict) -> list[dict]:
        runs = payload.get("runs", 1)
        if isinstance(runs, int):
            if runs < 1:
                raise ProtocolError('"runs" must be >= 1')
            runs = [{"seed": seed} for seed in range(runs)]
        if not isinstance(runs, list) or not runs:
            raise ProtocolError(
                '"runs" must be a count or a non-empty list of run specs'
            )
        if len(runs) > self.config.max_runs_per_request:
            raise ProtocolError(
                f'"runs" is capped at {self.config.max_runs_per_request} '
                "per request"
            )
        specs = []
        for spec in runs:
            if not isinstance(spec, dict) or not set(spec) <= {
                "seed",
                "inputs",
            }:
                raise ProtocolError(
                    'each run spec is {"seed": int, "inputs": [numbers]}'
                )
            out = {"seed": int(spec.get("seed", 0))}
            if "inputs" in spec:
                out["inputs"] = [float(x) for x in spec["inputs"]]
            specs.append(out)
        return specs

    async def _submit_and_wait(self, task: BatchTask) -> dict:
        future = self.batcher.submit(task)
        try:
            return await asyncio.wait_for(
                future, timeout=self.config.request_timeout
            )
        except (asyncio.TimeoutError, TimeoutError):
            # The flush may still resolve it later; detach quietly.
            future.add_done_callback(
                lambda f: f.exception() if not f.cancelled() else None
            )
            raise

    async def _handle_compile(self, request: Request) -> tuple[int, dict]:
        payload = request.json()
        source = self._require_source(payload)
        options = self._normalize_options(payload)
        task = BatchTask(
            kind="compile",
            signature=canonical_json(
                {
                    "kind": "compile",
                    "source": source,
                    "plan": options["plan"],
                    "verify": options["verify"],
                }
            ),
            payload={"source": source, "trace": current_context(), **options},
        )
        outcome = await self._submit_and_wait(task)
        key = payload.get("key")
        if outcome["status"] == 200 and isinstance(key, str) and key:
            self.sources[key] = source
            outcome["body"]["key"] = key
        return outcome["status"], outcome["body"]

    async def _handle_profile(self, request: Request) -> tuple[int, dict]:
        payload = request.json()
        source = self._require_source(payload)
        options = self._normalize_options(payload)
        runs = self._normalize_runs(payload)
        ingest_key = payload.get("ingest")
        if ingest_key is not None and (
            not isinstance(ingest_key, str) or not ingest_key
        ):
            raise ProtocolError('"ingest" must be a non-empty key string')
        task = BatchTask(
            kind="profile",
            signature=canonical_json(
                {
                    "kind": "profile",
                    "source": source,
                    "runs": runs,
                    **options,
                }
            ),
            payload={
                "source": source,
                "runs": runs,
                "trace": current_context(),
                **options,
            },
        )
        outcome = await self._submit_and_wait(task)
        status, body = outcome["status"], outcome["body"]
        if status == 200 and ingest_key:
            profile = ProgramProfile.from_dict(body["profile"])
            self._accumulate(ingest_key, profile, source)
            body["ingested"] = {
                "key": ingest_key,
                "runs": self.database.lookup(ingest_key).runs,
            }
        return status, body

    # -- the flush function (runs in a worker thread) --------------------

    def _flush(self, tasks: list[BatchTask]) -> dict[str, dict]:
        """Execute one micro-batch of unique tasks against the engine."""
        with span("service.flush", attrs={"tasks": len(tasks)}):
            results = self._flush_inner(tasks)
        return results

    def _flush_inner(self, tasks: list[BatchTask]) -> dict[str, dict]:
        results: dict[str, dict] = {}
        compiles = [t for t in tasks if t.kind == "compile"]
        profiles = [t for t in tasks if t.kind == "profile"]
        with self._cache_lock:
            for task in compiles:
                # Continue the requesting client's trace: the task
                # carries the http.<route> span context through the
                # batcher, and the pipeline's compile spans nest here.
                with span(
                    "service.compile",
                    attrs={"signature": task.signature[:16]},
                    parent=task.payload.get("trace"),
                ):
                    results[task.signature] = self._flush_compile(task)
            # One engine invocation per distinct option set: the
            # engine's knobs (plan, verify, ...) are batch-wide.
            groups: dict[tuple, list[BatchTask]] = {}
            for task in profiles:
                group_key = (
                    task.payload["plan"],
                    task.payload.get("mode", "counters"),
                    task.payload["verify"],
                    task.payload["loop_variance"],
                    task.payload["max_steps"],
                    task.payload.get("backend", "auto"),
                )
                groups.setdefault(group_key, []).append(task)
            for (
                plan,
                mode,
                verify,
                loop_variance,
                max_steps,
                backend,
            ), group in sorted(
                groups.items(), key=lambda pair: repr(pair[0])
            ):
                items = [
                    BatchItem(
                        id=task.signature,
                        source=task.payload["source"],
                        runs=tuple(dict(s) for s in task.payload["runs"]),
                    )
                    for task in group
                ]
                # A single-request group keeps exact trace ancestry;
                # a coalesced group parents to the flush span and
                # records the member signatures instead.
                parent = (
                    group[0].payload.get("trace")
                    if len(group) == 1
                    else None
                )
                with span(
                    "service.profile",
                    attrs={
                        "items": len(items),
                        "mode": mode,
                        "signatures": ",".join(
                            task.signature[:16] for task in group[:8]
                        ),
                    },
                    parent=parent,
                ):
                    report = run_batch(
                        items,
                        plan=plan,
                        mode="serial",
                        cache=self.cache,
                        verify=verify,
                        loop_variance=loop_variance,
                        max_steps=max_steps,
                        backend=backend,
                        profile_mode=mode,
                        should_stop=self._abort_flush.is_set,
                    )
                for task, result in zip(group, report.results):
                    if result.ok:
                        results[task.signature] = {
                            "status": 200,
                            "body": {
                                "ok": True,
                                "mode": mode,
                                "runs": result.runs,
                                "counters": result.counters,
                                "counter_updates": result.counter_updates,
                                "cache_tier": result.cache_tier,
                                "summary": result.summary,
                                "profile": result.profile.to_dict(),
                            },
                        }
                    else:
                        status = (
                            503 if result.error.stage == "cancelled" else 422
                        )
                        results[task.signature] = {
                            "status": status,
                            "body": error_payload(
                                status,
                                result.error.message,
                                stage=result.error.stage,
                                type=result.error.type,
                            ),
                        }
            self._publish_cache_snapshot()
        return results

    def _publish_cache_snapshot(self) -> None:
        """Publish a consistent copy of the cache counters.

        Called with ``_cache_lock`` held; ``/metrics`` reads the
        reference atomically instead of racing the flush thread.
        """
        self._cache_snapshot = self.cache.stats.as_dict()

    def _flush_compile(self, task: BatchTask) -> dict:
        from repro.checker import verify_program

        payload = task.payload
        try:
            program, plan, tier = self.cache.artifacts(
                payload["source"], payload["plan"]
            )
        except Exception as exc:
            return {
                "status": 422,
                "body": error_payload(
                    422, str(exc), stage="compile", type=type(exc).__name__
                ),
            }
        body = {
            "ok": True,
            "procedures": sorted(program.cfgs),
            "main": program.main_name,
            "splits": dict(program.splits),
            "counters": plan.n_counters,
            "cache_tier": tier,
        }
        if payload["verify"]:
            report = verify_program(program, plan)
            if report.errors:
                return {
                    "status": 422,
                    "body": error_payload(
                        422,
                        "; ".join(d.render() for d in report.errors[:5]),
                        stage="verify",
                        type="VerificationError",
                    ),
                }
            body["verified"] = True
        return {"status": 200, "body": body}

    # -- profile accumulation and queries --------------------------------

    def _accumulate(
        self, key: str, profile: ProgramProfile, source: str | None
    ) -> None:
        self.database.record(key, profile)
        self._ingests += 1
        self._ingested_runs += profile.runs
        if source:
            self.sources[key] = source
        if (
            self.config.save_every
            and self._ingests % self.config.save_every == 0
        ):
            self._save_database()

    async def _handle_ingest(
        self, request: Request, key: str
    ) -> tuple[int, dict]:
        payload = request.json()
        if "paths" in payload:
            return await self._handle_path_ingest(key, payload)
        raw = payload.get("profile")
        if not isinstance(raw, dict):
            raise ProtocolError(
                '"profile" must be a profile JSON object '
                '(or POST a "paths" delta instead)'
            )
        try:
            profile = ProgramProfile.from_dict(raw)
        except Exception as exc:
            return 422, error_payload(
                422,
                f"not a valid TOTAL_FREQ delta: {type(exc).__name__}: {exc}",
            )
        source = payload.get("source")
        if source is not None and not isinstance(source, str):
            raise ProtocolError('"source" must be a string when given')
        self._accumulate(key, profile, source)
        return 200, {
            "ok": True,
            "key": key,
            "accumulated_runs": profile.runs,
            "runs": self.database.lookup(key).runs,
        }

    # -- path spectra: ingest and hot-path queries -----------------------

    async def _handle_path_ingest(
        self, key: str, payload: dict
    ) -> tuple[int, dict]:
        """Accumulate a Ball–Larus path-count delta.

        The delta is validated against the key's path plan *before*
        anything is accumulated — an unknown procedure, an id outside
        ``[0, NumPaths)``, a negative count or a non-decoding partial
        answers 422 and leaves both the spectrum and the profile
        database untouched.  A valid delta lands twice: the raw counts
        join the key's path spectrum (the hot-path surface) and their
        Definition-3 reconstruction joins the profile database, so
        ``GET /profiles/{key}`` answers from path deltas exactly as it
        does from counter deltas.
        """
        raw_paths = payload.get("paths")
        if not isinstance(raw_paths, dict):
            raise ProtocolError(
                '"paths" must map procedures to {path_id: count} objects'
            )
        raw_partials = payload.get("partials", [])
        if not isinstance(raw_partials, list):
            raise ProtocolError(
                '"partials" must be a list of [procedure, node, register]'
            )
        runs = payload.get("runs", 1)
        if not isinstance(runs, int) or runs < 1:
            raise ProtocolError('"runs" must be a positive integer')
        source = payload.get("source")
        if source is not None and not isinstance(source, str):
            raise ProtocolError('"source" must be a string when given')
        source = source or self.sources.get(key)
        if source is None:
            self._path_ingest_metric.inc(outcome="invalid")
            return 422, error_payload(
                422,
                "no source registered for this key, so path ids cannot "
                'be validated; include "source" in the delta or register '
                "it via /compile {key: ...}",
            )
        loop = asyncio.get_running_loop()
        with span(
            "profile.paths.ingest",
            attrs={"key": key, "procedures": len(raw_paths)},
        ):
            try:
                counts, profile = await asyncio.wait_for(
                    loop.run_in_executor(
                        None,
                        self._path_ingest_entry,
                        source,
                        raw_paths,
                        raw_partials,
                        runs,
                    ),
                    timeout=self.config.request_timeout,
                )
            except (asyncio.TimeoutError, TimeoutError):
                raise
            except PathDeltaError as exc:
                self._path_ingest_metric.inc(outcome="invalid")
                return 422, error_payload(
                    422, f"not a valid path-count delta: {exc}"
                )
            except Exception as exc:  # compile/plan failure
                self._path_ingest_metric.inc(outcome="invalid")
                return 422, error_payload(
                    422,
                    f"not a valid path-count delta: "
                    f"{type(exc).__name__}: {exc}",
                )
        spectrum = self.path_spectra.setdefault(key, {})
        ingested_ids = 0
        for proc, table in counts.items():
            bucket = spectrum.setdefault(proc, {})
            for path_id, count in table.items():
                bucket[path_id] = bucket.get(path_id, 0.0) + count
                ingested_ids += 1
        self._accumulate(key, profile, source)
        self._path_ingests += 1
        self._path_ingest_metric.inc(outcome="ok")
        return 200, {
            "ok": True,
            "key": key,
            "mode": "paths",
            "accumulated_runs": runs,
            "path_ids": ingested_ids,
            "partials": len(raw_partials),
            "runs": self.database.lookup(key).runs,
        }

    def _path_ingest_entry(
        self, source: str, raw_paths: dict, raw_partials: list, runs: int
    ):
        """Validate a delta and reconstruct its Definition-3 profile.

        Runs on a worker thread: compiles/fetches the path plan through
        the artifact cache, walks every id and partial against it, and
        returns ``(counts, profile)``.  Raises :class:`PathDeltaError`
        on the first invalid entry.
        """
        with self._cache_lock:
            program, plan, _tier = self.cache.artifacts(source, "paths")
            self._publish_cache_snapshot()
        counts: dict[str, dict[int, float]] = {}
        for proc, table in raw_paths.items():
            proc_plan = plan.plans.get(proc)
            if proc_plan is None:
                raise PathDeltaError(f"unknown procedure {proc!r}")
            if not isinstance(table, dict):
                raise PathDeltaError(
                    f'"paths"[{proc!r}] must map path ids to counts'
                )
            bucket: dict[int, float] = {}
            for raw_id, raw_count in table.items():
                try:
                    path_id = int(raw_id)
                except (TypeError, ValueError):
                    raise PathDeltaError(
                        f"{proc}: path id {raw_id!r} is not an integer"
                    ) from None
                if not 0 <= path_id < proc_plan.num_paths:
                    raise PathDeltaError(
                        f"{proc}: path id {path_id} outside "
                        f"[0, {proc_plan.num_paths})"
                    )
                try:
                    count = float(raw_count)
                except (TypeError, ValueError):
                    raise PathDeltaError(
                        f"{proc}: count for path {path_id} is not a number"
                    ) from None
                if count < 0:
                    raise PathDeltaError(
                        f"{proc}: negative count {count:g} for "
                        f"path {path_id}"
                    )
                if count:
                    bucket[path_id] = bucket.get(path_id, 0.0) + count
            counts[proc] = bucket
        partials_by_proc: dict[str, list[tuple[int, int]]] = {}
        for item in raw_partials:
            if not isinstance(item, (list, tuple)) or len(item) != 3:
                raise PathDeltaError(
                    "each partial is [procedure, node, register]"
                )
            proc, node, register = item
            proc_plan = plan.plans.get(proc)
            if proc_plan is None:
                raise PathDeltaError(
                    f"partial names unknown procedure {proc!r}"
                )
            try:
                node = int(node)
                register = int(register)
            except (TypeError, ValueError):
                raise PathDeltaError(
                    "partial node/register must be integers"
                ) from None
            try:
                proc_plan.decode_partial(node, register)
            except Exception as exc:
                raise PathDeltaError(
                    f"{proc}: partial (node {node}, register {register}) "
                    f"does not decode: {exc}"
                ) from None
            partials_by_proc.setdefault(proc, []).append((node, register))
        profile = ProgramProfile(runs=runs)
        for name, proc_plan in plan.plans.items():
            profile.procedures[name] = reconstruct_path_procedure(
                program,
                name,
                proc_plan,
                counts.get(name, {}),
                partials_by_proc.get(name, ()),
            )
        return counts, profile

    async def _handle_hot_paths(
        self, request: Request, key: str
    ) -> tuple[int, dict]:
        """Top-K hot paths of the key's accumulated spectrum, decoded."""
        spectrum = self.path_spectra.get(key)
        if not spectrum:
            return 404, error_payload(
                404, f"no path spectrum accumulated: {key}"
            )
        raw_k = request.query.get("k", "10")
        try:
            k = int(raw_k)
        except ValueError:
            raise ProtocolError('"k" must be an integer') from None
        if not 1 <= k <= _MAX_HOT_PATHS:
            raise ProtocolError(
                f'"k" must be between 1 and {_MAX_HOT_PATHS}'
            )
        flat = [
            (count, proc, path_id)
            for proc, table in spectrum.items()
            for path_id, count in table.items()
        ]
        total = sum(count for count, _, _ in flat)
        flat.sort(key=lambda item: (-item[0], item[1], item[2]))
        top = flat[:k]
        body: dict = {
            "key": key,
            "k": k,
            "distinct_paths": len(flat),
            "total_count": total,
        }
        source = self.sources.get(key)
        if source is not None:
            loop = asyncio.get_running_loop()
            with span("profile.paths.hot", attrs={"key": key, "k": k}):
                decoded = await asyncio.wait_for(
                    loop.run_in_executor(
                        None,
                        self._decode_hot_entry,
                        source,
                        [(proc, pid) for _, proc, pid in top],
                    ),
                    timeout=self.config.request_timeout,
                )
        else:
            decoded = [None] * len(top)
            body["note"] = (
                "no source registered for this key; "
                "ids are reported undecoded"
            )
        body["paths"] = []
        for (count, proc, path_id), shape in zip(top, decoded):
            entry: dict = {
                "proc": proc,
                "path_id": path_id,
                "count": count,
                "fraction": count / total if total else 0.0,
            }
            if shape is not None:
                entry.update(shape)
            body["paths"].append(entry)
        return 200, body

    def _decode_hot_entry(
        self, source: str, ids: list[tuple[str, int]]
    ) -> list[dict | None]:
        """Decode ``(proc, path_id)`` pairs against the key's plan."""
        with self._cache_lock:
            _program, plan, _tier = self.cache.artifacts(source, "paths")
            self._publish_cache_snapshot()
        shapes: list[dict | None] = []
        for proc, path_id in ids:
            proc_plan = plan.plans.get(proc)
            if proc_plan is None or not 0 <= path_id < proc_plan.num_paths:
                # The spectrum predates a re-registered source; report
                # the raw id rather than failing the whole query.
                shapes.append(None)
                continue
            decoded = proc_plan.decode(path_id)
            shapes.append(
                {
                    "start": decoded.start,
                    "nodes": list(decoded.nodes),
                    "edges": [[src, label] for src, label in decoded.edges],
                    "end": decoded.end,
                }
            )
        return shapes

    def _model_names(self) -> list[str]:
        names = sorted(_MODELS)
        if self.calibration is not None:
            names.append("calibrated")
        return names

    def _resolve_model(self, model_name: str):
        """The machine model a query named, or a 400 on bad names.

        ``calibrated`` is accepted only when the service was started
        with a calibration artifact: the returned model prices
        operations in nanoseconds, so TIME/VAR come back in ns/ns².
        """
        if model_name == "calibrated":
            if self.calibration is None:
                raise ProtocolError(
                    '"model": "calibrated" needs the service started '
                    "with --calibration"
                )
            return self.calibration.machine_model()
        if model_name not in _MODELS:
            raise ProtocolError(
                f'"model" must be one of {self._model_names()}'
            )
        return _MODELS[model_name]

    async def _handle_query(
        self, request: Request, key: str
    ) -> tuple[int, dict]:
        profile = self.database.lookup(key)
        if profile is None:
            source = self.sources.get(key)
            if source is None:
                return 404, error_payload(
                    404, f"no accumulated profile: {key}"
                )
            # No runs ingested yet, but the source is registered:
            # serve the profile-free static TIME/VAR envelope instead
            # of a 404, so consumers get a (coarse) answer immediately.
            model = self._resolve_model(request.query.get("model", "scalar"))
            loop = asyncio.get_running_loop()
            static = await asyncio.wait_for(
                loop.run_in_executor(
                    None, self._static_bounds_entry, source, model
                ),
                timeout=self.config.request_timeout,
            )
            return 200, {
                "key": key,
                "runs": 0,
                "analysis": None,
                "static_bounds": static,
                "note": (
                    "no profile ingested for this key; static bounds "
                    "are derived from value-range analysis of the "
                    "registered source alone"
                ),
            }
        loop_variance = request.query.get("loop_variance", "zero")
        if loop_variance not in _LOOP_VARIANCE:
            raise ProtocolError(
                f'"loop_variance" must be one of {list(_LOOP_VARIANCE)}'
            )
        model_name = request.query.get("model", "scalar")
        model = self._resolve_model(model_name)
        body: dict = {"key": key, "runs": profile.runs, "analysis": None}
        if request.query.get("raw", "") in ("1", "true"):
            body["raw"] = profile.to_dict()
        source = self.sources.get(key)
        if source is not None:
            loop = asyncio.get_running_loop()
            body["analysis"] = await asyncio.wait_for(
                loop.run_in_executor(
                    None, self._analyze_entry, source, profile,
                    model, loop_variance,
                ),
                timeout=self.config.request_timeout,
            )
            if model_name == "calibrated":
                body["calibration"] = {
                    "units": "ns",
                    "intercept_ns": self.calibration.intercept_ns,
                    "r_squared": self.calibration.r_squared,
                }
            body["drift"] = self._record_drift(
                key, profile.runs, body["analysis"],
                params=(model_name, loop_variance),
            )
        else:
            body["note"] = (
                "no source registered for this key; POST the source with "
                "an ingest or register it via /compile {key: ...} to get "
                "Definition-3 frequencies and variance"
            )
            body["raw"] = profile.to_dict()
        return 200, body

    async def _handle_profiles_index(
        self, request: Request
    ) -> tuple[int, dict]:
        """Every accumulated profile this process owns, in one body.

        Standalone, that is the whole database; in a sharded
        deployment it is this worker's slice, and the front door fans
        the request out to every shard and merges the answers via
        :meth:`ProfileDatabase.merge`.  ``?raw=1`` includes each key's
        raw ``TOTAL_FREQ`` dump (what the front-door merge consumes);
        ``?analyze=1`` adds the Definition-3 analysis per key —
        normalization happens here, *after* all of the key's deltas
        have been accumulated, which is what makes shard-local sums
        exact.  Unlike single-key queries, listing does not record
        drift snapshots: an index sweep must not reset the
        predicted-vs-ingested baselines operators alert on.
        """
        analyze = request.query.get("analyze", "") in ("1", "true")
        raw = request.query.get("raw", "") in ("1", "true")
        loop_variance = request.query.get("loop_variance", "zero")
        if loop_variance not in _LOOP_VARIANCE:
            raise ProtocolError(
                f'"loop_variance" must be one of {list(_LOOP_VARIANCE)}'
            )
        model = (
            self._resolve_model(request.query.get("model", "scalar"))
            if analyze
            else None
        )
        loop = asyncio.get_running_loop()
        profiles: dict[str, dict] = {}
        for key in self.database.keys():
            profile = self.database.lookup(key)
            entry: dict = {"runs": profile.runs}
            if raw:
                entry["raw"] = profile.to_dict()
            if analyze:
                source = self.sources.get(key)
                entry["analysis"] = (
                    await asyncio.wait_for(
                        loop.run_in_executor(
                            None, self._analyze_entry, source, profile,
                            model, loop_variance,
                        ),
                        timeout=self.config.request_timeout,
                    )
                    if source is not None
                    else None
                )
            profiles[key] = entry
        body: dict = {
            "keys": self.database.keys(),
            "runs": self.database.total_runs(),
            "profiles": profiles,
        }
        if self.config.shard_index is not None:
            body["shard"] = self.config.shard_index
        return 200, body

    def _record_drift(
        self, key: str, runs: float, analysis: dict, *, params: tuple
    ) -> dict:
        """Predicted-vs-ingested drift: how much the key's TIME/VAR
        moved since the previous query as new runs were accumulated.

        Relative change of the analysis answers between consecutive
        queries with the same model/loop-variance parameters (a
        parameter change resets the baseline — the delta would
        measure the parameters, not the ingested data).  Exposed both
        in the response body and as ``repro_validation_*_drift``
        gauges, so Prometheus watches prediction stability per key.
        """
        snapshot = {
            "runs": runs,
            "time": analysis["time"],
            "var": analysis["var"],
            "params": params,
        }
        previous = self._analysis_snapshots.get(key)
        self._analysis_snapshots[key] = snapshot
        drift: dict = {
            "runs": runs,
            "previous_runs": None,
            "time_drift": None,
            "var_drift": None,
        }
        if previous is not None and previous["params"] == params:
            drift["previous_runs"] = previous["runs"]
            if previous["time"]:
                drift["time_drift"] = (
                    snapshot["time"] - previous["time"]
                ) / abs(previous["time"])
            if previous["var"]:
                drift["var_drift"] = (
                    snapshot["var"] - previous["var"]
                ) / abs(previous["var"])
        metrics.gauge(
            "repro_validation_time_drift",
            "Relative TIME change between consecutive queries of a key.",
            labels=("key",),
        ).set(drift["time_drift"] or 0.0, key=key)
        metrics.gauge(
            "repro_validation_var_drift",
            "Relative VAR change between consecutive queries of a key.",
            labels=("key",),
        ).set(drift["var_drift"] or 0.0, key=key)
        return drift

    def _analyze_entry(
        self,
        source: str,
        profile: ProgramProfile,
        model,
        loop_variance: str,
    ) -> dict:
        from repro.analysis.distributions import LoopDistribution

        spec = {
            "zero": "zero",
            "profiled": "profiled",
            "poisson": LoopDistribution.POISSON,
            "geometric": LoopDistribution.GEOMETRIC,
            "uniform": LoopDistribution.UNIFORM,
        }[loop_variance]
        with self._cache_lock:
            program, _tier = self.cache.compiled(source)
            self._publish_cache_snapshot()
        return summarize_item(
            program, profile, model, loop_variance=spec
        )

    def _static_bounds_entry(self, source: str, model) -> dict:
        from repro.dataflow import compute_static_bounds

        with self._cache_lock:
            program, _tier = self.cache.compiled(source)
            self._publish_cache_snapshot()
        bounds = compute_static_bounds(
            program.checked,
            program.cfgs,
            model,
            artifacts=program.artifacts(),
        )
        return bounds.to_json()

    # -- calibration and chunk advice ------------------------------------

    async def _handle_calibration(
        self, request: Request
    ) -> tuple[int, dict]:
        """The loaded wall-clock calibration artifact, if any."""
        if self.calibration is None:
            return 404, error_payload(
                404,
                "no calibration loaded; start the service with "
                "--calibration <artifact.json> (see `repro validate "
                "--calibrate`)",
            )
        return 200, {"ok": True, "calibration": self.calibration.to_dict()}

    async def _handle_chunks(
        self, request: Request, key: str
    ) -> tuple[int, dict]:
        """Kruskal-Weiss chunk-size advice from the key's live profile."""
        profile = self.database.lookup(key)
        if profile is None:
            return 404, error_payload(404, f"no accumulated profile: {key}")
        source = self.sources.get(key)
        if source is None:
            return 404, error_payload(
                404,
                "no source registered for this key; register it via "
                "/compile {key: ...} or an ingest with source",
            )
        model_name = request.query.get("model", "scalar")
        model = self._resolve_model(model_name)
        loop_variance = request.query.get("loop_variance", "profiled")
        if loop_variance not in _LOOP_VARIANCE:
            raise ProtocolError(
                f'"loop_variance" must be one of {list(_LOOP_VARIANCE)}'
            )
        try:
            n_processors = int(request.query.get("processors", "8"))
            overhead = float(request.query.get("overhead", "10"))
        except ValueError:
            raise ProtocolError(
                '"processors" must be an integer and "overhead" a number'
            ) from None
        if not 1 <= n_processors <= 4096:
            raise ProtocolError('"processors" must be between 1 and 4096')
        if overhead < 0:
            raise ProtocolError('"overhead" must be >= 0')
        loop = asyncio.get_running_loop()
        with span("service.chunks", attrs={"key": key}):
            advice = await asyncio.wait_for(
                loop.run_in_executor(
                    None, self._chunks_entry, source, profile, model,
                    loop_variance, n_processors, overhead,
                ),
                timeout=self.config.request_timeout,
            )
        return 200, {
            "key": key,
            "runs": profile.runs,
            "model": model_name,
            "loop_variance": loop_variance,
            "processors": n_processors,
            "overhead": overhead,
            "units": "ns" if model_name == "calibrated" else "cycles",
            "loops": advice,
        }

    def _chunks_entry(
        self,
        source: str,
        profile: ProgramProfile,
        model,
        loop_variance: str,
        n_processors: int,
        overhead: float,
    ) -> list[dict]:
        from repro.analysis.distributions import LoopDistribution
        from repro.apps.chunking import chunk_advice
        from repro.pipeline import analyze

        spec = {
            "zero": "zero",
            "profiled": "profiled",
            "poisson": LoopDistribution.POISSON,
            "geometric": LoopDistribution.GEOMETRIC,
            "uniform": LoopDistribution.UNIFORM,
        }[loop_variance]
        with self._cache_lock:
            program, _tier = self.cache.compiled(source)
            self._publish_cache_snapshot()
        analysis = analyze(program, profile, model, loop_variance=spec)
        return chunk_advice(
            analysis, n_processors=n_processors, overhead=overhead
        )


async def serve(config: ServiceConfig, *, ready=None) -> ProfilingService:
    """Run a service until it is drained (the ``repro serve`` body)."""
    service = ProfilingService(config)
    await service.start()
    service.install_signal_handlers(asyncio.get_running_loop())
    if ready is not None:
        ready(service)
    await service.serve_forever()
    return service


class ServiceThread:
    """A service on a background thread — tests, benchmarks, embedding.

    ::

        with ServiceThread(ServiceConfig()) as handle:
            client = ServiceClient(port=handle.port)
            ...

    ``stop()`` (or leaving the ``with`` block) performs the same
    graceful drain a SIGTERM would.
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.service: ProfilingService | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._main, daemon=True)

    def start(self) -> "ServiceThread":
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._error is not None:
            raise self._error
        if self.port is None:
            raise RuntimeError("service failed to start within 30s")
        return self

    def stop(self, timeout: float = 60.0) -> None:
        if self._loop is not None and self.service is not None:
            future = asyncio.run_coroutine_threadsafe(
                self.service.shutdown(), self._loop
            )
            future.result(timeout=timeout)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # noqa: BLE001 - surfaced in start()
            self._error = exc
            self._ready.set()

    async def _amain(self) -> None:
        service = ProfilingService(self.config)
        await service.start()
        self.service = service
        self.port = service.port
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await service.serve_forever()
