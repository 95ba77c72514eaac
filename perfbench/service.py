"""The service workload: ``service-mix``.

Server: ``python -m repro serve --port 0`` with default flags (one
worker), its port read from the stderr banner.  Load: ``CLIENTS``
closed-loop clients, each waiting for its reply, like CI jobs pushing
profiles.  The mix runs over 32 hot keys (16 programs, each under two
keys), which fit the 256-entry artifact-cache tier: 40%
``GET /profiles/{key}`` queries (Definition 3 + TIME/VAR at query
time), 36% ``POST /profile`` with ingest alternating counters and
paths, 22% ``POST /profiles/{key}/ingest`` raw count deltas, and about
2% ``POST /profile`` of never-seen programs -- one per client every
``COLD_INTERVAL_S``, so every run compiles the same number of new
programs however fast the server is.

*Why*: reads sit beside writes on one database and one batcher, so
moving work from ingest to query shows; two clients keep the batcher
queue near empty, which exposes the linger cost.  *Loads*: the HTTP
server, batcher, artifact cache, batch engine, profile database and
query-time analysis.  *Bypasses*: the front door, supervisor and
sharding (``--workers``).

Each client owns 16 of the keys, so it knows exactly what every key
it queries has accumulated: every query is checked, not only the
last.  Both clients profile the same 16 programs, so identical
in-flight requests can still coalesce in the batcher.

The load threads and the server share one CPU.  Two closed-loop
clients keep the pipeline latency-bound (about half of two CPUs
idle), and on a virtual machine a hand-off to an idle virtual CPU
waits until the host schedules it: unpinned, throughput followed the
host's CPU steal (157, 199 and 277 ops/s at 9.5%, 5.7% and 0.8%
steal on a 2-vCPU VM), while pinned runs kept within about 15% at the
same unpinned peak.
"""

from __future__ import annotations

import http.client
import os
import queue
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from perfbench import checks, corpus
from perfbench.report import (
    Failures,
    Op,
    end_to_end,
    median_ms,
    process_peak_rss_mb,
)

CLIENTS = 2
PROGRAMS_GENERATED = 4
RUNS_PER_REQUEST = 2
VARIANTS = 2
#: One client's op pattern (shuffled per seed) between cold ops.
MIX = {"query": 20, "profile": 18, "ingest": 11}
#: Each client profiles one never-seen program this often.
COLD_INTERVAL_S = 0.5
#: A request slower than this fails (and counts as failed).
REQUEST_TIMEOUT_S = 20.0
BOOT_TIMEOUT_S = 60.0
RATE_WINDOW_S = 1.0
BANNER = re.compile(r"repro service on http://[^:]+:(\d+) ")
PROM_LINE = re.compile(r'^(\w+)\{(\w+)="([^"]*)"\} ([0-9.eE+-]+)$')
#: A failed request besides an error status (429, 503, 504, ...): a
#: timeout or a broken connection.
REQUEST_ERRORS = (OSError, http.client.HTTPException)


# -- inputs ---------------------------------------------------------------


@dataclass
class HotProgram:
    id: str
    source: str
    variants: list[tuple[dict, ...]]
    #: Filled outside every timed interval.
    compiled: object = None
    truths: list = field(default_factory=list)
    deltas: list = field(default_factory=list)


@dataclass
class Inputs:
    programs: list[HotProgram]
    #: Per client: (key, program index) for the keys it owns.
    keys: list[list[tuple[str, int]]]
    #: Per client: its op pattern and its never-seen programs.
    patterns: list[list[str]]
    cold: list[list[tuple[str, str, tuple[dict, ...]]]]


def make_inputs(seed: int, seconds: float) -> Inputs:
    """The traffic of one run."""
    rng = corpus.workload_rng("service-mix", seed)
    pairs = corpus.builtin_sources() + corpus.generated_sources(
        rng, PROGRAMS_GENERATED
    )
    programs = [
        HotProgram(
            pid,
            source,
            [corpus.run_specs(rng, pid, RUNS_PER_REQUEST) for _ in range(VARIANTS)],
        )
        for pid, source in pairs
    ]
    keys = [
        [(f"c{client}-{pid}", index) for index, (pid, _s) in enumerate(pairs)]
        for client in range(CLIENTS)
    ]
    patterns = []
    cold = []
    for _client in range(CLIENTS):
        pattern = [kind for kind, count in MIX.items() for _ in range(count)]
        rng.shuffle(pattern)
        patterns.append(pattern)
        fresh = corpus.generated_sources(rng, int(seconds / COLD_INTERVAL_S) + 2)
        cold.append(
            [(pid, source, corpus.run_specs(rng, pid, 1)) for pid, source in fresh]
        )
    return Inputs(programs, keys, patterns, cold)


def compute_truth(inputs: Inputs) -> None:
    from repro.pipeline import compile_source

    for program in inputs.programs:
        program.compiled = compile_source(program.source)
        program.truths = [
            checks.reference_truth(program.compiled, runs)
            for runs in program.variants
        ]
        program.deltas = [truth.profile.to_dict() for truth in program.truths]


def _wire_runs(runs) -> list[dict]:
    return [{"seed": s["seed"], "inputs": list(s["inputs"])} for s in runs]


# -- the server -----------------------------------------------------------


class Server:
    """``repro serve`` in its own session, booted to a healthy /healthz."""

    #: The flags it is booted with: all defaults, ephemeral port.
    FLAGS = ("serve", "--port", "0")

    def __init__(self, root):
        self.root = root
        self.process: subprocess.Popen | None = None
        self.port: int | None = None
        self._stderr: threading.Thread | None = None

    def start(self) -> float:
        """Boot; returns seconds from spawn to a healthy /healthz."""
        from repro.service.client import ServiceClient, ServiceError

        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", *self.FLAGS],
            cwd=self.root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        lines: queue.Queue = queue.Queue()
        self._stderr = threading.Thread(
            target=_pump, args=(self.process.stderr, lines), daemon=True
        )
        self._stderr.start()
        deadline = started + BOOT_TIMEOUT_S
        while self.port is None:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                raise RuntimeError("repro serve printed no banner") from None
            if line is None:
                raise RuntimeError("repro serve exited before its banner")
            match = BANNER.search(line)
            if match:
                self.port = int(match.group(1))
        with ServiceClient(port=self.port, timeout=5.0) as client:
            while True:
                try:
                    status = client.healthz().get("status")
                except (ServiceError, *REQUEST_ERRORS):
                    status = None
                if status == "ok":
                    return time.perf_counter() - started
                if time.perf_counter() > deadline:
                    raise RuntimeError(f"repro serve not healthy: {status}")
                time.sleep(0.01)

    def stop(self) -> None:
        """SIGTERM (a graceful drain), then kill whatever is left of its
        session, and wait for it to end."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self._stderr.join(timeout=5)
        self.process = None


def _pump(stream, lines: queue.Queue) -> None:
    for line in stream:
        lines.put(line)
    lines.put(None)


# -- the load -------------------------------------------------------------


@dataclass
class Record:
    """One op and what its answer must be checked against."""

    kind: str
    key: str
    program: int
    seconds: float
    #: Ingests into ``key`` once this op had completed.
    ingests: int
    variant: int = 0
    #: ``time.perf_counter()`` when the answer arrived.
    done: float = 0.0
    error: str | None = None
    body: dict | None = None


class Client:
    """One closed-loop client over the keys it owns."""

    def __init__(self, index: int, inputs: Inputs, port: int, seed: int):
        self.index = index
        self.inputs = inputs
        self.port = port
        self.rng = random.Random(f"service-client:{seed}:{index}")
        self.keys = inputs.keys[index]
        self.program_of = dict(self.keys)
        #: key -> [(program, variant)] in ingest order.
        self.ingested: dict[str, list[tuple[int, int]]] = {k: [] for k, _ in self.keys}
        self.records: list[Record] = []
        self.modes: dict[str, int] = {k: 0 for k, _ in self.keys}
        self.cold_used = 0

    def connect(self):
        from repro.service.client import ServiceClient

        return ServiceClient(port=self.port, retries=0, timeout=REQUEST_TIMEOUT_S)

    def profile(self, client, key: str, program: int, variant: int) -> Record:
        """``POST /profile`` with ingest; the mode alternates per key."""
        hot = self.inputs.programs[program]
        mode = ("counters", "paths")[self.modes[key] % 2]
        self.modes[key] += 1
        record = Record("profile", key, program, 0.0, 0, variant)
        started = time.perf_counter()
        record.body = self._call(
            record,
            client.profile,
            hot.source,
            runs=_wire_runs(hot.variants[variant]),
            mode=mode,
            ingest=key,
        )
        record.seconds = time.perf_counter() - started
        if record.body is not None:
            self.ingested[key].append((program, variant))
        record.ingests = len(self.ingested[key])
        return record

    def warm(self, client) -> list[Record]:
        """One ingest per key, so every query finds a profile."""
        return [self.profile(client, key, program, 0) for key, program in self.keys]

    def one_op(self, client, kind: str) -> Record:
        key, program = self.keys[self.rng.randrange(len(self.keys))]
        if kind == "profile":
            return self.profile(client, key, program, self.rng.randrange(VARIANTS))
        record = Record(kind, key, program, 0.0, 0)
        started = time.perf_counter()
        if kind == "query":
            record.body = self._call(record, client.query, key)
        elif kind == "ingest":
            record.variant = self.rng.randrange(VARIANTS)
            delta = self.inputs.programs[program].deltas[record.variant]
            record.body = self._call(record, client.ingest, key, delta)
            if record.body is not None:
                self.ingested[key].append((program, record.variant))
        else:
            pool = self.inputs.cold[self.index]
            record.variant = self.cold_used % len(pool)
            self.cold_used += 1
            _pid, source, runs = pool[record.variant]
            record.body = self._call(
                record, client.profile, source, runs=_wire_runs(runs)
            )
        record.seconds = time.perf_counter() - started
        record.ingests = len(self.ingested[key])
        return record

    def _call(self, record: Record, method, *args, **kwargs):
        from repro.service.client import ServiceError

        try:
            return method(*args, **kwargs)
        except ServiceError as exc:
            record.error = f"HTTP {exc.status}"
        except REQUEST_ERRORS as exc:
            record.error = f"{type(exc).__name__}: {exc}"
        return None

    def loop(self, deadline: float, start: threading.Barrier) -> None:
        pattern = self.inputs.patterns[self.index]
        with self.connect() as client:
            start.wait()
            next_cold = time.perf_counter() + COLD_INTERVAL_S * (
                0.5 + self.index / CLIENTS
            )
            position = 0
            while (now := time.perf_counter()) < deadline:
                if now >= next_cold:
                    kind = "cold"
                    next_cold += COLD_INTERVAL_S
                else:
                    kind = pattern[position % len(pattern)]
                    position += 1
                record = self.one_op(client, kind)
                record.done = time.perf_counter()
                self.records.append(record)


# -- checks (after the load, outside every timed interval) ----------------


class Verifier:
    """Check (d): every answer against the reference interpreter.

    The expected TIME of a key is what library ``analyze`` gives on the
    sum of the reference profiles of everything ingested into it.
    """

    def __init__(self, inputs: Inputs, failures: Failures):
        self.inputs = inputs
        self.failures = failures
        self._times: dict[tuple[str, int], float] = {}

    def expected(self, client: Client, key: str, ingests: int) -> tuple[int, float]:
        """``(runs, TIME)`` of the key's first ``ingests`` ingests."""
        from repro.pipeline import analyze
        from repro.profiling import ProgramProfile

        if (key, ingests) not in self._times:
            total = ProgramProfile()
            for program, variant in client.ingested[key][:ingests]:
                total.merge(self.inputs.programs[program].truths[variant].profile)
            compiled = self.inputs.programs[client.program_of[key]].compiled
            self._times[key, ingests] = analyze(compiled, total).total_time
        return ingests * RUNS_PER_REQUEST, self._times[key, ingests]

    def check(self, client: Client, record: Record) -> bool:
        reason = record.error
        if reason is None:
            try:
                reason = self._reason(client, record)
            except (KeyError, TypeError, ValueError) as exc:
                reason = f"malformed answer: {type(exc).__name__}: {exc}"
        if reason:
            pid = (
                self.inputs.cold[client.index][record.variant][0]
                if record.kind == "cold"
                else self.inputs.programs[record.program].id
            )
            self.failures.record(pid, f"{record.kind} {record.key}: {reason}")
        return reason is None

    def _reason(self, client: Client, record: Record) -> str | None:
        from repro.pipeline import compile_source
        from repro.profiling import ProgramProfile

        body = record.body
        runs = record.ingests * RUNS_PER_REQUEST
        if record.kind == "query":
            return self._answer_mismatch(client, record.key, record.ingests, body)
        if record.kind == "ingest":
            if body["runs"] != runs:
                return f"ingest runs {body['runs']} != ingested {runs}"
            return None
        if record.kind == "cold":
            _pid, source, specs = self.inputs.cold[client.index][record.variant]
            compiled = compile_source(source)
            truth = checks.reference_truth(compiled, specs)
            return checks.profile_mismatch(
                compiled.cfgs, ProgramProfile.from_dict(body["profile"]), truth.profile
            )
        program = self.inputs.programs[record.program]
        if body["ingested"]["runs"] != runs:
            return f"profile ingested runs {body['ingested']['runs']} != {runs}"
        return checks.profile_mismatch(
            program.compiled.cfgs,
            ProgramProfile.from_dict(body["profile"]),
            program.truths[record.variant].profile,
        )

    def _answer_mismatch(self, client, key: str, ingests: int, body: dict):
        runs, time_ = self.expected(client, key, ingests)
        if body["runs"] != runs:
            return f"query runs {body['runs']} != ingested {runs}"
        return checks.time_mismatch(body["analysis"]["time"], time_)

    def final(self, clients: list[Client], port: int) -> int:
        """Each key's query against everything ingested into it, after
        the load; returns how many were checked."""
        from repro.service.client import ServiceClient, ServiceError

        checked = 0
        with ServiceClient(port=port, retries=0, timeout=REQUEST_TIMEOUT_S) as http_:
            for client in clients:
                for key, program in client.keys:
                    checked += 1
                    ingests = len(client.ingested[key])
                    try:
                        reason = self._answer_mismatch(
                            client, key, ingests, http_.query(key)
                        )
                    except (ServiceError, *REQUEST_ERRORS) as exc:
                        reason = f"{type(exc).__name__}: {exc}"
                    except (KeyError, TypeError, ValueError) as exc:
                        reason = f"malformed answer: {type(exc).__name__}: {exc}"
                    if reason:
                        self.failures.record(
                            self.inputs.programs[program].id,
                            f"final query {key}: {reason}",
                        )
        return checked


# -- server-side counters -------------------------------------------------


def prometheus_counters(port: int) -> dict:
    """``{(metric, label value): total}`` of the run and fallback counters."""
    from repro.service.client import ServiceClient

    with ServiceClient(port=port, timeout=REQUEST_TIMEOUT_S) as client:
        text = client.metrics_text()
    totals: dict[tuple[str, str], float] = {}
    for line in text.splitlines():
        match = PROM_LINE.match(line)
        if match and match.group(1) in (
            "repro_runs_total",
            "repro_backend_fallbacks_total",
        ):
            totals[match.group(1), match.group(3)] = float(match.group(4))
    return totals


def counter_changes(before: dict, after: dict, metric: str) -> dict:
    """``{label value: increase}`` of one labelled Prometheus counter."""
    return {
        label: value - before.get((name, label), 0.0)
        for (name, label), value in after.items()
        if name == metric and value != before.get((name, label), 0.0)
    }


def service_stats(port: int) -> dict:
    """Batcher and cache counters from ``GET /metrics``."""
    from repro.service.client import ServiceClient

    with ServiceClient(port=port, timeout=REQUEST_TIMEOUT_S) as client:
        body = client.metrics()
    return {**body["batcher"], **body["cache"]}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(records: list[Record], before: dict, after: dict) -> dict:
    """Per-route client-side p50s and the batcher/cache changes."""
    out = {}
    by_route: dict[str, list[float]] = {"query": [], "profile": [], "ingest": []}
    for record in records:
        by_route["profile" if record.kind == "cold" else record.kind].append(
            record.seconds
        )
    for route, seconds in by_route.items():
        out[f"service.{route}_ms"] = median_ms(seconds)

    def delta(name):
        return after[name] - before[name]

    out["service.batch_size"] = _ratio(delta("flushed_tasks"), delta("flushes"))
    out["service.coalesced_ratio"] = _ratio(delta("coalesced"), delta("submitted"))
    out["service.queue_peak"] = after["queue_peak"]
    hits = delta("memory_hits") + delta("disk_hits")
    out["cache.hit_ratio"] = _ratio(hits, hits + delta("misses"))
    out["cache.misses"] = _ratio(delta("misses"), len(records))
    return out


def window_rates(records: list[Record], began: float, seconds: float) -> list[float]:
    """Ops answered in each whole ``RATE_WINDOW_S`` of the load, per second."""
    windows = [0] * max(1, int(seconds / RATE_WINDOW_S))
    for record in records:
        index = int((record.done - began) / RATE_WINDOW_S)
        if index < len(windows):
            windows[index] += 1
    return [count / RATE_WINDOW_S for count in windows]


# -- one run --------------------------------------------------------------


def run(
    seed: int,
    seconds: float,
    trace: bool,
    root,
    probe,
    setup_samples: int,
) -> dict:
    """One run of ``service-mix``; returns the result parts.

    ``probe()`` times the client side's set-up in a fresh process
    (imports and input generation); each of the ``setup_samples``
    set-up samples adds one server boot to a healthy ``/healthz``.
    """
    inputs = make_inputs(seed, seconds)
    failures = Failures("service-mix", seed)
    setup = []
    server = Server(root)
    cpus = os.sched_getaffinity(0)
    # Children (set-up probes, the server) inherit the affinity.
    os.sched_setaffinity(0, {min(cpus)})
    try:
        for sample in range(setup_samples):
            if sample:
                server.stop()
                server = Server(root)
            setup.append(probe() + server.start())
        compute_truth(inputs)
        clients = [Client(i, inputs, server.port, seed) for i in range(CLIENTS)]
        warm_ups = []
        for client in clients:
            with client.connect() as http_:
                warm_ups += [(client, record) for record in client.warm(http_)]
        prom_before = prometheus_counters(server.port)
        stats_before = service_stats(server.port)
        start = threading.Barrier(CLIENTS + 1)
        deadline = time.perf_counter() + seconds
        threads = [
            threading.Thread(target=client.loop, args=(deadline, start))
            for client in clients
        ]
        for thread in threads:
            thread.start()
        start.wait()
        began = time.perf_counter()
        for thread in threads:
            thread.join()
        stats_after = service_stats(server.port)
        prom_after = prometheus_counters(server.port)

        verifier = Verifier(inputs, failures)
        records = [r for client in clients for r in client.records]
        ops = [
            Op(record.seconds, ok=verifier.check(client, record))
            for client in clients
            for record in client.records
        ]
        for client, record in warm_ups:  # checked too, but not timed
            verifier.check(client, record)
        attempted = len(ops) + len(warm_ups) + verifier.final(clients, server.port)
        result = {
            "attempted": attempted,
            "failed": failures.count,
            "samples": len(ops),
            "backends": counter_changes(prom_before, prom_after, "repro_runs_total"),
            "server_flags": list(Server.FLAGS),
        }
        if trace:
            metrics = layer_metrics(records, stats_before, stats_after)
            metrics["codegen.fallback_runs"] = sum(
                counter_changes(
                    prom_before, prom_after, "repro_backend_fallbacks_total"
                ).values()
            )
            # Client-side timing is the only tracing here, and every
            # run records it: the traced run adds no work to an op.
            metrics["trace.op_p50_ms"] = median_ms([op.seconds for op in ops])
            metrics["trace.overhead_ms"] = 0.0
            metrics["trace.unattributed_ms"] = 0.0
            result["metrics"] = metrics
        else:
            result["metrics"] = end_to_end(
                ops,
                window_rates(records, began, seconds),
                setup,
                failures.count,
                attempted,
                process_peak_rss_mb(server.process.pid),
            )
        return result
    finally:
        server.stop()
        os.sched_setaffinity(0, cpus)
