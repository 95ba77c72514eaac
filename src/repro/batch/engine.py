"""The batch-profiling engine.

Fans a (program × run-configuration) matrix out over a process pool
(or a serial loop — same code path, same results), with all static
artifacts served by an :class:`~repro.batch.cache.ArtifactCache`:

* **deterministic ordering** — results come back in item order no
  matter which worker finished first, and the canonical aggregate
  JSON is byte-identical between serial and pooled execution;
* **error isolation** — a program that fails to parse, profile or
  analyze yields a structured :class:`BatchError` record tagged with
  the failing stage; the rest of the batch is unaffected;
* **shared artifacts** — within a process the in-memory cache tier
  serves repeats; across worker processes and batch invocations the
  on-disk tier does (workers re-hydrate pickled artifacts instead of
  re-deriving CFG/ECFG/FCDG/plans).

The pool is a ``concurrent.futures.ProcessPoolExecutor``; tasks are
whole items (one program with all its runs) so a cached compilation is
amortized across that item's runs even when the cache is memory-only.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.batch.aggregate import canonical_json, summarize_item
from repro.batch.cache import ArtifactCache
from repro.costs.model import MachineModel
from repro.obs import metrics, span
from repro.pipeline import profile_program

#: Run-spec keys accepted by :func:`repro.pipeline.run_program`.
_RUN_SPEC_KEYS = {"seed", "inputs"}


@dataclass(frozen=True)
class BatchItem:
    """One program to profile, with its run configurations."""

    id: str
    source: str
    #: keyword dicts for ``run_program`` (``seed=...``, ``inputs=...``).
    runs: tuple[dict, ...] = ({"seed": 0},)


@dataclass(frozen=True)
class BatchOptions:
    """Per-batch knobs, shipped verbatim to worker processes."""

    plan: str = "smart"
    model: MachineModel | None = None
    loop_variance: str = "zero"
    max_steps: int = 10_000_000
    #: Run the artifact verifier on every item before profiling.
    verify: bool = False
    #: Execution engine per ``run_program``: auto/codegen/reference.
    backend: str = "auto"
    #: ``"counters"`` (Definition-3 counter placement) or ``"paths"``
    #: (Ball–Larus path profiling + reconstruction).
    profile_mode: str = "counters"


@dataclass(frozen=True)
class BatchError:
    """A structured per-item failure record."""

    stage: str  # "compile" | "verify" | "profile" | "analyze" | "cancelled"
    type: str  # exception class name
    message: str

    def as_dict(self) -> dict:
        return {"stage": self.stage, "type": self.type, "message": self.message}


@dataclass
class BatchResult:
    """The outcome of one batch item (success or isolated failure)."""

    index: int
    item_id: str
    ok: bool
    runs: int
    cache_tier: str | None = None
    profile: object | None = None  # ProgramProfile on success
    summary: dict | None = None
    counters: int = 0
    counter_updates: int = 0
    base_cost: float = 0.0
    counter_cost: float = 0.0
    error: BatchError | None = None


@dataclass
class BatchReport:
    """Ordered results plus batch-level accounting."""

    results: list[BatchResult]
    mode: str
    jobs: int
    plan: str
    cache_stats: dict[str, int] = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def ok(self) -> list[BatchResult]:
        return [r for r in self.results if r.ok]

    @property
    def failures(self) -> list[BatchResult]:
        return [r for r in self.results if not r.ok]

    def aggregate(self) -> dict:
        """The batch's aggregate summary, free of timing/cache noise.

        Execution mode, worker count and cache temperature must not
        leak in: this dictionary (and its canonical JSON) is the
        payload that serial and pooled execution reproduce
        byte-for-byte.
        """
        items = []
        for result in self.results:
            record: dict = {
                "id": result.item_id,
                "ok": result.ok,
                "runs": result.runs,
            }
            if result.ok:
                record["counters"] = result.counters
                record["counter_updates"] = result.counter_updates
                record["summary"] = result.summary
            else:
                assert result.error is not None
                record["error"] = result.error.as_dict()
            items.append(record)
        totals = {
            "programs": len(self.results),
            "ok": len(self.ok),
            "failed": len(self.failures),
            "runs": sum(r.runs for r in self.results),
            "counter_updates": sum(r.counter_updates for r in self.ok),
            "time_sum": sum(
                r.summary["time"]
                for r in self.ok
                if r.summary and "time" in r.summary
            ),
        }
        return {"plan": self.plan, "items": items, "totals": totals}

    def aggregate_json(self) -> str:
        return canonical_json(self.aggregate())


# ---------------------------------------------------------------------------
# One item, start to finish (runs in the caller or in a worker)
# ---------------------------------------------------------------------------


def _profile_one(
    index: int, item: BatchItem, cache: ArtifactCache, options: BatchOptions
) -> BatchResult:
    with span("batch.item", attrs={"id": item.id}) as item_span:
        result = _profile_one_inner(index, item, cache, options, item_span)
    metrics.counter(
        "repro_batch_items_total",
        "Batch items processed, by outcome (ok or failing stage).",
        labels=("status",),
    ).inc(status="ok" if result.ok else result.error.stage)
    return result


def _profile_one_inner(
    index: int,
    item: BatchItem,
    cache: ArtifactCache,
    options: BatchOptions,
    item_span,
) -> BatchResult:
    result = BatchResult(
        index=index, item_id=item.id, ok=False, runs=len(item.runs)
    )
    plan_kind = "paths" if options.profile_mode == "paths" else options.plan
    try:
        program, plan, tier = cache.artifacts(item.source, plan_kind)
    except Exception as exc:
        result.error = BatchError("compile", type(exc).__name__, str(exc))
        return result
    result.cache_tier = tier
    item_span.set_attr(cache_tier=tier)
    if options.verify:
        from repro.checker import verify_program

        report = verify_program(program, plan, program_id=item.id)
        if report.errors:
            # Quarantine: the item fails with the verifier's verdict,
            # the rest of the batch proceeds with trusted artifacts.
            result.error = BatchError(
                "verify",
                "VerificationError",
                "; ".join(d.render() for d in report.errors[:5]),
            )
            return result
    try:
        profile, stats = profile_program(
            program,
            runs=[dict(spec) for spec in item.runs],
            plan=plan,
            model=options.model,
            record_loop_moments=options.loop_variance == "profiled",
            max_steps=options.max_steps,
            backend=options.backend,
            mode=options.profile_mode,
        )
    except Exception as exc:
        result.error = BatchError("profile", type(exc).__name__, str(exc))
        return result
    result.profile = profile
    result.counters = stats.counters
    result.counter_updates = stats.counter_updates
    result.base_cost = stats.base_cost
    result.counter_cost = stats.counter_cost
    try:
        if options.plan == "smart":
            with span("batch.analyze"):
                result.summary = summarize_item(
                    program,
                    profile,
                    options.model,
                    loop_variance=options.loop_variance,
                )
        else:
            # Naive plans measure basic blocks, not control conditions;
            # the Definition-3 pass does not apply.  Report raw block
            # execution counts instead.
            result.summary = {
                "runs": profile.runs,
                "procedures": {
                    name: {
                        "block_counts": {
                            str(leader): count
                            for leader, count in sorted(
                                proc.block_counts.items()
                            )
                        }
                    }
                    for name, proc in sorted(profile.procedures.items())
                },
            }
    except Exception as exc:
        result.error = BatchError("analyze", type(exc).__name__, str(exc))
        return result
    result.ok = True
    return result


# ---------------------------------------------------------------------------
# Worker-process plumbing
# ---------------------------------------------------------------------------

_WORKER: dict = {}


def _worker_init(cache_path, options: BatchOptions) -> None:
    _WORKER["cache"] = ArtifactCache(cache_path)
    _WORKER["options"] = options


def _worker_run(payload: tuple[int, BatchItem]):
    index, item = payload
    cache: ArtifactCache = _WORKER["cache"]
    before = cache.stats.as_dict()
    result = _profile_one(index, item, cache, _WORKER["options"])
    after = cache.stats.as_dict()
    delta = {key: after[key] - before[key] for key in after}
    return result, delta


# ---------------------------------------------------------------------------
# The engine entry point
# ---------------------------------------------------------------------------


def _cancelled(index: int, item: BatchItem) -> BatchResult:
    return BatchResult(
        index=index,
        item_id=item.id,
        ok=False,
        runs=len(item.runs),
        error=BatchError(
            "cancelled", "BatchCancelled", "batch abandoned before this item"
        ),
    )


def run_batch(
    items: list[BatchItem],
    *,
    plan: str = "smart",
    model: MachineModel | None = None,
    mode: str = "auto",
    jobs: int | None = None,
    cache: ArtifactCache | str | os.PathLike | None = None,
    loop_variance: str = "zero",
    max_steps: int = 10_000_000,
    verify: bool = False,
    backend: str = "auto",
    profile_mode: str = "counters",
    should_stop=None,
) -> BatchReport:
    """Profile every item; never let one bad program sink the batch.

    ``mode`` is ``"serial"``, ``"process"`` or ``"auto"`` (process
    pool when more than one job is available and the batch has more
    than one item).  ``cache`` is an :class:`ArtifactCache`, a cache
    directory, or ``None`` for an ephemeral in-memory cache.
    ``profile_mode`` selects counter (``"counters"``) or Ball–Larus
    path (``"paths"``) profiling; path mode derives each item's path
    plan through the same artifact cache under plan kind ``"paths"``.
    ``should_stop`` is an optional zero-argument callable polled
    between items (serial mode only): once it returns true, every
    not-yet-started item fails with stage ``"cancelled"`` instead of
    running — how a draining profiling service abandons the tail of
    an in-flight flush without losing finished results.
    """
    if mode not in ("auto", "serial", "process"):
        raise ValueError(f"unknown batch mode {mode!r}")
    if profile_mode not in ("counters", "paths"):
        raise ValueError(f"unknown profile mode {profile_mode!r}")
    if profile_mode == "paths" and plan != "smart":
        # Path reconstruction mirrors the smart plan's Definition-3
        # targets; a naive block plan has nothing to reconstruct onto.
        raise ValueError("profile_mode='paths' requires plan='smart'")
    if isinstance(cache, ArtifactCache):
        cache_obj = cache
    else:
        cache_obj = ArtifactCache(cache)
    options = BatchOptions(
        plan=plan,
        model=model,
        loop_variance=loop_variance,
        max_steps=max_steps,
        verify=verify,
        backend=backend,
        profile_mode=profile_mode,
    )
    jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    jobs = max(1, jobs)
    if mode == "auto":
        mode = "process" if jobs > 1 and len(items) > 1 else "serial"

    started = time.perf_counter()
    with span("batch", attrs={"mode": mode, "items": len(items)}):
        if mode == "serial":
            results = []
            for index, item in enumerate(items):
                if should_stop is not None and should_stop():
                    results.append(_cancelled(index, item))
                else:
                    results.append(
                        _profile_one(index, item, cache_obj, options)
                    )
            cache_stats = cache_obj.stats.as_dict()
        else:
            payloads = list(enumerate(items))
            cache_stats = {key: 0 for key in cache_obj.stats.as_dict()}
            with span("batch.pool", attrs={"jobs": jobs}):
                with ProcessPoolExecutor(
                    max_workers=min(jobs, max(1, len(items))),
                    initializer=_worker_init,
                    initargs=(cache_obj.path, options),
                ) as pool:
                    results = []
                    # ``map`` preserves submission order: deterministic
                    # results.
                    for result, delta in pool.map(
                        _worker_run, payloads, chunksize=1
                    ):
                        results.append(result)
                        for key, value in delta.items():
                            cache_stats[key] += value
    elapsed = time.perf_counter() - started
    metrics.counter(
        "repro_batches_total", "Batch engine invocations.", labels=("mode",)
    ).inc(mode=mode)
    metrics.histogram(
        "repro_batch_seconds", "run_batch wall time in seconds."
    ).observe(elapsed)
    return BatchReport(
        results=results,
        mode=mode,
        jobs=1 if mode == "serial" else jobs,
        plan=plan,
        cache_stats=cache_stats,
        elapsed=elapsed,
    )
