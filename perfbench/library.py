"""The in-process workloads: ``estimate-cold`` and ``profile-hot``.

``estimate-cold``
    One op is one uncached estimate of one program on a fresh
    ``CompiledProgram``: ``compile_source`` -> ``smart_program_plan`` ->
    ``profile_program(4 runs, model=SCALAR_MACHINE)`` -> ``analyze``.
    Corpus: the 12 builtins plus 4 seeded generated programs.
    *Why*: the latency a ``repro analyze`` user sees, and the service's
    cache-miss path.  *Loads*: lang, cfg, ecfg, cdg, callgraph,
    placement and codegen emission (most of the time), then a little
    execution, reconstruction and analysis.  *Bypasses*: path
    numbering, the service, the batcher and the artifact cache.

``profile-hot``
    Set-up compiles every program, builds both plans and emits both
    variants; one op is then ``profile_program(K runs)`` + ``analyze``,
    alternating counters mode and paths mode on the same programs.
    Programs: Livermore, SIMPLE, the paper example, the dispatch-emitted
    builtins (``binsearch``, ``multi_level_exit``, ``two_exit_loop``)
    and 4 generated programs.  ``K`` gives every op about the same
    work (``HOT_WORK``), so the dispatch-emitted procedures carry a
    sizeable share (about 40%) of execution time.  *Why*: execution,
    counter/path updates and reconstruction do almost all the work and
    the front end none -- the reverse of ``estimate-cold``; per-mode
    layer metrics show a gain in one mode that costs the other.
    *Loads*: codegen runtime, profiling/paths runtime, both
    reconstructors, analysis.  *Bypasses*: the front end and emission
    (both in set-up), the service.
"""

from __future__ import annotations

import statistics
import time
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field

from perfbench import checks, corpus, layers
from perfbench.report import (
    P90_MIN_OPS,
    Failures,
    Op,
    end_to_end,
    median_ms,
    self_peak_rss_mb,
)

ESTIMATE_RUNS = 4
GENERATED = 4
HOT_BUILTINS = (
    "livermore",
    "simple",
    "paper",
    "binsearch",
    "multi_level_exit",
    "two_exit_loop",
)
#: A profile-hot op runs a program until its runs add up to this much
#: work -- interpreted steps plus ``RUN_STEPS`` per run for the run's
#: fixed cost -- or ``MAX_HOT_RUNS`` runs, so ops cost about the same
#: whichever program they profile.
HOT_WORK = 40_000
RUN_STEPS = 200
MAX_HOT_RUNS = 256
MODES = ("counters", "paths")
#: Runs make a multiple of this many passes when traced (at least
#: this many otherwise): every program is then traced and untraced
#: equally often in each mode (see :func:`schedule`).
MIN_TRACED_PASSES = 4
#: Stop adding passes after this long, however few ops were made.
HARD_STOP_S = 120.0


def schedule(pass_index: int, position: int) -> tuple[str, bool]:
    """``(mode, traced)`` of one op: every 4 passes give each program
    every mode/traced combination, and each pass is half traced."""
    mode = MODES[(pass_index + position) % 2]
    traced = (pass_index // 2 + position) % 2 == 0
    return mode, traced


@dataclass
class Item:
    """One corpus program with its reference truth."""

    program: corpus.Program
    truth: checks.Truth | None = None
    compiled: object = None  # profile-hot: the set-up CompiledProgram
    plans: dict = field(default_factory=dict)


def estimate_cold_setup(seed: int) -> list[Item]:
    rng = corpus.workload_rng("estimate-cold", seed)
    pairs = corpus.builtin_sources() + corpus.generated_sources(rng, GENERATED)
    return [
        Item(corpus.Program(pid, source, corpus.run_specs(rng, pid, ESTIMATE_RUNS)))
        for pid, source in pairs
    ]


def profile_hot_setup(seed: int, clock_for=None) -> list[Item]:
    """Compile, plan, emit and size every profile-hot program.

    ``clock_for(program_id)`` returns a :class:`layers.LayerClock` to
    time this program's set-up with (traced runs), or ``None``.
    """
    import repro.pipeline as pipeline
    from repro.codegen import codegen_backend_for
    from repro.costs.model import SCALAR_MACHINE
    from repro.profiling import PlanExecutor

    rng = corpus.workload_rng("profile-hot", seed)
    pairs = corpus.builtin_sources(HOT_BUILTINS) + corpus.generated_sources(
        rng, GENERATED
    )
    items = []
    for pid, source in pairs:
        clock = clock_for(pid) if clock_for else None
        with ExitStack() as stack:
            if clock is not None:
                stack.enter_context(
                    layers.traced_pipeline(clock, "counters", pipeline.run_program)
                )
            program = pipeline.compile_source(source)
            with _span(clock, "placement"):
                cplan = pipeline.smart_program_plan(program)
            with _span(clock, "paths.plan"):
                pplan = pipeline.paths_program_plan(program)
            with _span(clock, "codegen"):
                backend = codegen_backend_for(program)
                backend.ensure_lowered()
                backend.emitted_source(cplan, SCALAR_MACHINE)
                backend.emitted_source(pplan, SCALAR_MACHINE)
        specs: tuple[dict, ...] = ()
        work = 0
        while work < HOT_WORK and len(specs) < MAX_HOT_RUNS:
            spec = corpus.run_specs(rng, pid, 1)
            work += RUN_STEPS + pipeline.run_program(
                program, model=SCALAR_MACHINE, hooks=PlanExecutor(cplan), **spec[0]
            ).steps
            specs += spec
        items.append(
            Item(
                corpus.Program(pid, source, specs),
                compiled=program,
                plans={"counters": cplan, "paths": pplan},
            )
        )
    return items


def _span(clock, layer: str):
    return clock.span(layer) if clock is not None else nullcontext()


def static_counts(program, plans: dict) -> dict:
    """Per-program sizes: graphs, plans, emitted code."""
    from repro.codegen import codegen_backend_for
    from repro.costs.model import SCALAR_MACHINE

    backend = codegen_backend_for(program)
    sources = [backend.emitted_source()] + [
        backend.emitted_source(plan, SCALAR_MACHINE) for plan in plans.values()
    ]
    counts = {
        "cfg.nodes": sum(len(cfg.nodes) for cfg in program.cfgs.values()),
        "cfg.split_clones": sum(program.splits.values()),
        "cdg.fcdg_nodes": sum(len(f.nodes) for f in program.fcdgs.values()),
        "codegen.dispatch_procs": sum(
            1 for mode in backend.emit_meta().mode.values() if mode == "dispatch"
        ),
        "codegen.emitted_lines": sum(source.count("\n") for source in sources),
    }
    if "counters" in plans:
        counts["placement.counters"] = plans["counters"].n_counters
    if "paths" in plans:
        counts["paths.sites"] = plans["paths"].n_sites
    return counts


class Runner:
    """Runs one library workload's ops and checks each one."""

    def __init__(self, workload: str, seed: int, items: list[Item]):
        import repro.pipeline as pipeline

        self.workload = workload
        self.items = items
        self.failures = Failures(workload, seed)
        self.ops: list[Op] = []
        #: Traced runs: per-program sizes, and per (program, mode) work.
        self.static: dict[str, dict] = {}
        self.dynamic: dict[tuple[str, str], dict] = {}
        self.setup_records: list[dict] = []
        self._real_run_program = pipeline.run_program
        self._captured: list = []

    # -- reference truth (outside every timed interval) ----------------

    def compute_truth(self) -> None:
        from repro.pipeline import compile_source

        for item in self.items:
            program = item.compiled or compile_source(item.program.source)
            item.truth = checks.reference_truth(program, item.program.runs)

    # -- the op --------------------------------------------------------

    def _capture(self, program, **kwargs):
        result = self._real_run_program(program, **kwargs)
        self._captured.append(result)
        return result

    def run_op(self, item: Item, mode: str, traced: bool) -> Op:
        import repro.pipeline as pipeline
        from repro.codegen import codegen_backend_for
        from repro.costs.model import SCALAR_MACHINE

        self._captured = []
        clock = layers.LayerClock() if traced else None
        runs = list(item.program.runs)
        program = item.compiled
        plan = item.plans.get(mode)
        started = time.perf_counter()
        try:
            with ExitStack() as stack:
                if traced:
                    stack.enter_context(
                        layers.traced_pipeline(clock, mode, self._capture)
                    )
                    stack.enter_context(clock.span(layers.ROOT))
                if program is None:
                    program = pipeline.compile_source(item.program.source)
                    with _span(clock, "placement"):
                        plan = pipeline.smart_program_plan(program)
                    if traced:
                        with clock.span("codegen"):
                            backend = codegen_backend_for(program)
                            backend.ensure_lowered()
                            backend.emitted_source(plan, SCALAR_MACHINE)
                profile, stats = pipeline.profile_program(
                    program, runs, plan=plan, model=SCALAR_MACHINE, mode=mode
                )
                with _span(clock, "analysis"):
                    analysis = pipeline.analyze(program, profile)
        except Exception as exc:  # an op that raises is a failed op
            self.failures.record(
                item.program.id, f"{mode}: {type(exc).__name__}: {exc}"
            )
            return Op(time.perf_counter() - started, ok=False)
        elapsed = time.perf_counter() - started
        reason = (
            checks.profile_mismatch(program.cfgs, profile, item.truth.profile)
            or checks.outputs_mismatch(
                [result.outputs for result in self._captured],
                item.truth.outputs,
            )
            or checks.time_identity_mismatch(
                analysis.total_time, len(runs), stats.base_cost
            )
        )
        if reason:
            self.failures.record(item.program.id, f"{mode}: {reason}")
        op = Op(elapsed, ok=reason is None, traced=traced)
        if traced:
            op.layers = dict(clock.self_s)
            op.steps = sum(result.steps for result in self._captured)
            self.dynamic[(item.program.id, mode)] = {
                "exec.steps": op.steps,
                f"exec.{mode}.updates": stats.counter_updates,
            }
            if item.program.id not in self.static:
                self.static[item.program.id] = static_counts(
                    program, item.plans or {"counters": plan}
                )
        return op

    # -- the measurement loop ------------------------------------------

    def measure(self, seconds: float, trace: bool) -> list[float]:
        """Whole passes over the items until ``seconds`` have elapsed
        (and enough ops for the percentiles); returns each pass's ops
        per timed second.  Checks run between ops, outside the timed
        intervals."""
        import repro.pipeline as pipeline

        started = time.perf_counter()
        passes = 0
        rates = []
        with layers.rebound(pipeline, {"run_program": self._capture}):
            while (
                passes < MIN_TRACED_PASSES
                or (trace and passes % MIN_TRACED_PASSES)
                or time.perf_counter() - started < seconds
                or len(self.ops) < P90_MIN_OPS
            ) and time.perf_counter() - started < HARD_STOP_S:
                timed = 0.0
                for position, item in enumerate(self.items):
                    mode, traced = schedule(passes, position)
                    if item.compiled is None:
                        mode = "counters"
                    op = self.run_op(item, mode, trace and traced)
                    self.ops.append(op)
                    timed += op.seconds
                rates.append(len(self.items) / timed)
                passes += 1
        return rates


#: layer -> (per-layer metric, scale from seconds).
LAYER_TIMES = {
    "lang": ("lang.busy_ms", 1e3),
    "cfg": ("cfg.busy_ms", 1e3),
    "ecfg": ("ecfg.busy_ms", 1e3),
    "cdg": ("cdg.busy_ms", 1e3),
    "callgraph": ("callgraph.busy_ms", 1e3),
    "placement": ("placement.busy_ms", 1e3),
    "paths.plan": ("paths.plan_busy_ms", 1e3),
    "codegen": ("codegen.emit_ms", 1e3),
    "exec.counters": ("exec.counters.run_us", 1e6),
    "exec.paths": ("exec.paths.run_us", 1e6),
    "reconstruct.counters": ("reconstruct.counters.busy_us", 1e6),
    "reconstruct.paths": ("reconstruct.paths.busy_us", 1e6),
    "analysis": ("analysis.busy_ms", 1e3),
}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(runner: Runner, fallbacks: float) -> dict:
    """Per-layer metrics of a traced run.

    Times are medians over the traced ops (and, for profile-hot, over
    the per-program set-up records) that entered the layer; counts are
    means over the distinct programs (or program x mode), so they
    repeat exactly for one seed.
    """
    traced = [op for op in runner.ops if op.traced and op.ok]
    untraced = [op for op in runner.ops if not op.traced and op.ok]
    records = [op.layers for op in traced] + runner.setup_records
    out: dict[str, float] = {}
    for layer, (name, scale) in LAYER_TIMES.items():
        samples = [rec[layer] for rec in records if layer in rec]
        out[name] = scale * statistics.median(samples) if samples else 0.0
    for mode in MODES:
        per_step = [
            1e9 * op.layers[f"exec.{mode}"] / op.steps
            for op in traced
            if f"exec.{mode}" in op.layers and op.steps
        ]
        out[f"exec.{mode}.ns_per_step"] = (
            statistics.median(per_step) if per_step else 0.0
        )
    for table in (runner.static, runner.dynamic):
        names = {name for counts in table.values() for name in counts}
        for name in names:
            out[name] = _mean(c[name] for c in table.values() if name in c)
    out["codegen.fallback_runs"] = fallbacks
    traced_p50 = median_ms([op.seconds for op in traced])
    out["trace.op_p50_ms"] = traced_p50
    out["trace.overhead_ms"] = traced_p50 - median_ms(
        [op.seconds for op in untraced]
    )
    # Op time no named layer accounts for: the op's own glue plus
    # the cost of rebinding the traced functions.
    out["trace.unattributed_ms"] = median_ms(
        [
            op.seconds
            - sum(s for layer, s in op.layers.items() if layer != layers.ROOT)
            for op in traced
        ]
    )
    return out


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    probe,
    setup_samples: int,
) -> dict:
    """One run of a library workload; returns the result parts.

    ``probe()`` times the workload's set-up in a fresh process; it is
    called ``setup_samples`` times (untraced runs only).
    """
    from repro.obs import metrics

    if workload == "estimate-cold":
        items = estimate_cold_setup(seed)
        runner = Runner(workload, seed, items)
    else:
        clocks: dict[str, layers.LayerClock] = {}

        def clock_for(pid):
            return clocks.setdefault(pid, layers.LayerClock()) if trace else None

        items = profile_hot_setup(seed, clock_for)
        runner = Runner(workload, seed, items)
        runner.setup_records = [dict(clock.self_s) for clock in clocks.values()]
    runner.compute_truth()
    before = metrics.registry().snapshot()
    rates = runner.measure(seconds, trace)
    after = metrics.registry().snapshot()
    result = {
        "attempted": len(runner.ops),
        "failed": runner.failures.count,
        "backends": counter_delta(before, after, "repro_runs_total", "backend"),
    }
    fallbacks = sum(
        counter_delta(
            before, after, "repro_backend_fallbacks_total", "reason"
        ).values()
    )
    if trace:
        result["metrics"] = layer_metrics(runner, fallbacks)
    else:
        result["metrics"] = end_to_end(
            runner.ops,
            rates,
            [probe() for _ in range(setup_samples)],
            runner.failures.count,
            len(runner.ops),
            self_peak_rss_mb(),
        )
    result["samples"] = len(runner.ops)
    return result


def counter_delta(before: dict, after: dict, name: str, label: str) -> dict:
    """``{label value: increase}`` of one labelled counter."""

    def values(snapshot):
        series = snapshot.get(name, {}).get("values", [])
        return {s["labels"][label]: s["value"] for s in series}

    old = values(before)
    return {
        key: value - old.get(key, 0.0)
        for key, value in values(after).items()
        if value != old.get(key, 0.0)
    }
