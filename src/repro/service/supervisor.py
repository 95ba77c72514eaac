"""Worker-process supervision for the sharded profiling service.

The front door owns a :class:`ShardSupervisor`, which owns ``N``
worker processes.  Each worker is a full single-shard
:class:`~repro.service.server.ProfilingService` — its own event loop,
micro-batcher, artifact-cache slice and profile-database shard file —
spawned via ``multiprocessing`` (spawn context: no inherited event
loops, locks or sockets) on an ephemeral port it reports back through
a pipe.

The supervisor's contract:

* **liveness** — one monitor task per worker notices the process
  exiting.  An exit during drain is expected; any other exit marks
  the shard down (the front door answers its key range with 503 +
  retry hint) and respawns it with a small backoff.  Nothing is
  replayed: a crashed worker's unsaved in-memory accumulation is
  gone, and pretending otherwise would be false durability — set
  ``save_every`` to bound the loss window.
* **drain** — :meth:`drain` SIGTERMs every worker in parallel and
  waits.  Each worker runs its own PR-3 graceful drain (flush
  admitted micro-batches, save the shard database atomically), so an
  ingest any worker answered 200 is on disk afterwards.  Stragglers
  past the timeout are killed — their shard file stays whatever the
  last atomic save wrote.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from dataclasses import dataclass, field

from repro.service.server import ServiceConfig, serve
from repro.service.sharding import shard_cache_dir, shard_db_path

#: Cap on the crash-respawn backoff (doubles per consecutive restart).
_MAX_RESTART_BACKOFF = 2.0


def _worker_entry(config_kwargs: dict, conn) -> None:
    """The worker process body (module-level: spawn must import it)."""
    import asyncio as _asyncio

    config = ServiceConfig(**config_kwargs)

    def ready(service) -> None:
        conn.send(service.port)
        conn.close()

    # serve() installs SIGTERM/SIGINT handlers: the supervisor's
    # terminate() triggers the worker's own graceful drain.
    _asyncio.run(serve(config, ready=ready))


@dataclass
class WorkerHandle:
    """One supervised shard process."""

    index: int
    process: multiprocessing.process.BaseProcess | None = None
    port: int | None = None
    up: bool = False
    restarts: int = 0
    started_at: float = field(default_factory=time.monotonic)

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None


class ShardSupervisor:
    """Spawn, watch, restart and drain the worker fleet."""

    def __init__(
        self,
        base: ServiceConfig,
        workers: int,
        *,
        spawn_timeout: float = 60.0,
        on_state_change=None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.base = base
        self.workers = workers
        self.spawn_timeout = spawn_timeout
        #: ``on_state_change(index, up)`` fires on every up/down edge
        #: (the front door syncs its ``repro_shard_up`` gauge here).
        self.on_state_change = on_state_change
        self.handles = [WorkerHandle(index=i) for i in range(workers)]
        self.draining = False
        self._ctx = multiprocessing.get_context("spawn")
        self._monitors: list[asyncio.Task] = []

    # -- configuration per shard -----------------------------------------

    def worker_kwargs(self, index: int) -> dict:
        """The :class:`ServiceConfig` kwargs of shard ``index``."""
        base = self.base
        return {
            "host": "127.0.0.1",  # workers are internal to the box
            "port": 0,
            "db": shard_db_path(base.db, index),
            "cache": shard_cache_dir(base.cache, index),
            "max_batch": base.max_batch,
            "queue_limit": base.queue_limit,
            "request_timeout": base.request_timeout,
            "max_steps_cap": base.max_steps_cap,
            "max_runs_per_request": base.max_runs_per_request,
            "save_every": base.save_every,
            "drain_timeout": base.drain_timeout,
            "max_body": base.max_body,
            "calibration": base.calibration,
            "shard_index": index,
            "shard_count": self.workers,
        }

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Spawn every worker (concurrently) and start the monitors."""
        loop = asyncio.get_running_loop()
        await asyncio.gather(
            *(
                loop.run_in_executor(None, self._spawn_blocking, handle)
                for handle in self.handles
            )
        )
        for handle in self.handles:
            self._set_state(handle, True)
            self._monitors.append(
                asyncio.get_running_loop().create_task(self._monitor(handle))
            )

    def _spawn_blocking(self, handle: WorkerHandle) -> None:
        """Start shard ``handle.index`` and wait for its bound port."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_entry,
            args=(self.worker_kwargs(handle.index), child_conn),
            name=f"repro-shard-{handle.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        deadline = time.monotonic() + self.spawn_timeout
        port = None
        while time.monotonic() < deadline:
            if parent_conn.poll(0.05):
                try:
                    port = parent_conn.recv()
                except EOFError:
                    break
                break
            if not process.is_alive():
                break
        parent_conn.close()
        if port is None:
            if process.is_alive():
                process.kill()
            process.join(timeout=5)
            raise RuntimeError(
                f"shard {handle.index} failed to report a port within "
                f"{self.spawn_timeout:g}s"
            )
        handle.process = process
        handle.port = port
        handle.started_at = time.monotonic()

    def _set_state(self, handle: WorkerHandle, up: bool) -> None:
        handle.up = up
        if self.on_state_change is not None:
            self.on_state_change(handle.index, up)

    async def _monitor(self, handle: WorkerHandle) -> None:
        """Respawn ``handle`` whenever it dies outside a drain."""
        loop = asyncio.get_running_loop()
        while True:
            process = handle.process
            assert process is not None
            # Poll liveness instead of join()ing in the executor: a
            # blocking join per shard would pin most of the small
            # default thread pool for the life of the service.
            while process.is_alive():
                await asyncio.sleep(0.1)
                if self.draining:
                    return
            if self.draining:
                return
            self._set_state(handle, False)
            handle.restarts += 1
            # Exponential backoff against a worker that dies on boot;
            # a healthy crash-restart pays only the first 100ms.
            backoff = min(
                _MAX_RESTART_BACKOFF,
                0.1 * 2 ** min(handle.restarts - 1, 5),
            )
            await asyncio.sleep(backoff)
            if self.draining:
                return
            try:
                await loop.run_in_executor(
                    None, self._spawn_blocking, handle
                )
            except RuntimeError:
                continue  # the while loop backs off and tries again
            self._set_state(handle, True)

    # -- shutdown --------------------------------------------------------

    async def drain(self, timeout: float) -> None:
        """SIGTERM every worker; wait; kill stragglers past ``timeout``."""
        self.draining = True
        loop = asyncio.get_running_loop()
        for handle in self.handles:
            if handle.process is not None and handle.process.is_alive():
                handle.process.terminate()  # SIGTERM -> worker drain

        def _join_all() -> None:
            deadline = time.monotonic() + timeout
            for handle in self.handles:
                process = handle.process
                if process is None:
                    continue
                process.join(max(0.0, deadline - time.monotonic()))
                if process.is_alive():  # straggler: give up on it
                    process.kill()
                    process.join(5)

        await loop.run_in_executor(None, _join_all)
        for handle in self.handles:
            self._set_state(handle, False)
        for monitor in self._monitors:
            monitor.cancel()
        self._monitors = []
