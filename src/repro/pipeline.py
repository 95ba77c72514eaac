"""High-level façade over the whole framework.

Typical use::

    from repro import pipeline

    program = pipeline.compile_source(SOURCE)
    profile, stats = pipeline.profile_program(program, runs=[{}, {}])
    analysis = pipeline.analyze(program, profile, SCALAR_MACHINE)
    print(analysis.total_time, analysis.total_std_dev)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis import ProgramAnalysis, analyze_program
from repro.analysis.interprocedural import LoopVarianceSpec
from repro.callgraph import CallGraph, build_call_graph
from repro.cdg import FCDG, build_fcdg
from repro.cfg.builder import build_program_cfgs
from repro.cfg.graph import ControlFlowGraph
from repro.cfg.reducibility import is_reducible, split_nodes
from repro.costs.estimate import cost_tables
from repro.costs.model import MachineModel, SCALAR_MACHINE
from repro.ecfg import ExtendedCFG, build_ecfg
from repro.codegen import LoweringError, codegen_backend_for
from repro.interp import ExecutionHooks, Interpreter, RunResult
from repro.lang.parser import parse_program
from repro.lang.symbols import CheckedProgram, check_program
from repro.obs import metrics, span
from repro.paths import (
    PathExecutor,
    ProgramPathPlan,
    path_program_plan as _build_path_plan,
    reconstruct_path_profile,
)
from repro.profiling import (
    PlanExecutor,
    ProgramPlan,
    ProgramProfile,
    naive_plan,
    oracle_profile,
    reconstruct_profile,
    smart_plan,
)
from repro.profiling.runtime import HookChain, LoopMomentRecorder


@dataclass
class CompiledProgram:
    """Everything derived statically from one source file."""

    source: str
    checked: CheckedProgram
    cfgs: dict[str, ControlFlowGraph]
    ecfgs: dict[str, ExtendedCFG]
    fcdgs: dict[str, FCDG]
    call_graph: CallGraph
    #: Nodes cloned per procedure to make irreducible CFGs reducible.
    splits: dict[str, int] = field(default_factory=dict)

    @property
    def main_name(self) -> str:
        return self.checked.unit.main.name

    def artifacts(self) -> dict[str, tuple[ExtendedCFG, FCDG]]:
        return {name: (self.ecfgs[name], self.fcdgs[name]) for name in self.cfgs}


def compile_source(source: str, *, verify: bool = False) -> CompiledProgram:
    """Parse, check and build all graphs for a minifort program.

    Irreducible CFGs (the paper assumes reducibility) are made
    reducible by node splitting, as the paper prescribes.  With
    ``verify=True`` the artifact verifier re-checks every Section-2
    structural invariant on the result and raises
    :class:`repro.errors.VerificationError` if any is broken.
    """
    started = time.perf_counter()
    with span("compile") as compile_span:
        with span("compile.parse"):
            checked = check_program(parse_program(source))
        with span("compile.cfg"):
            cfgs = build_program_cfgs(checked)
            splits: dict[str, int] = {}
            for name, cfg in cfgs.items():
                if not is_reducible(cfg):
                    splits[name] = split_nodes(cfg)
        with span("compile.ecfg"):
            ecfgs = {name: build_ecfg(cfg) for name, cfg in cfgs.items()}
        with span("compile.fcdg"):
            fcdgs = {name: build_fcdg(ecfg) for name, ecfg in ecfgs.items()}
        with span("compile.callgraph"):
            call_graph = build_call_graph(checked)
        program = CompiledProgram(
            source=source,
            checked=checked,
            cfgs=cfgs,
            ecfgs=ecfgs,
            fcdgs=fcdgs,
            call_graph=call_graph,
            splits=splits,
        )
        compile_span.set_attr(procedures=len(cfgs))
        if verify:
            verify_compiled(program)
    metrics.counter(
        "repro_compile_total", "Programs compiled end to end."
    ).inc()
    metrics.histogram(
        "repro_compile_seconds", "compile_source latency in seconds."
    ).observe(time.perf_counter() - started)
    return program


def verify_compiled(program: CompiledProgram, plan=None) -> None:
    """Run the artifact verifier; raise on any invariant violation."""
    from repro.checker import verify_program
    from repro.errors import VerificationError

    report = verify_program(program, plan)
    if report.errors:
        raise VerificationError(report)


#: Valid ``backend=`` choices for :func:`run_program`.
BACKENDS = ("auto", "codegen", "reference")


def _fallback(reason: str) -> None:
    metrics.counter(
        "repro_backend_fallbacks_total",
        "Runs that fell back to a slower backend.",
        labels=("reason",),
    ).inc(reason=reason)


def _select_backend(program, hooks, backend: str, *, model=None):
    """The engine to run with: ``(name, backend-or-None)``.

    ``auto`` (the default) prefers the codegen backend and steps down
    to the reference interpreter whenever the run is not expressible
    in emitted code — hooks other than a plain :class:`PlanExecutor`
    or :class:`PathExecutor` (chained hooks, loop-moment recording) or
    a program the emitter rejects — recording each step down in
    ``repro_backend_fallbacks_total{reason}``.  The variant the run
    will execute (its hooks' plan, ``model``) is the one emitted and
    compiled here, on first use, so a rejection surfaces before the
    run; no other variant is emitted.  ``"codegen"`` forces
    the fast engine (raising :class:`LoweringError` instead of falling
    back) and ``"reference"`` forces the interpreter.
    """
    if backend == "reference":
        return "reference", None
    if backend not in ("auto", "codegen"):
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if hooks is not None and type(hooks) not in (PlanExecutor, PathExecutor):
        if backend != "auto":
            raise LoweringError(
                f"{backend} backend cannot drive "
                f"{type(hooks).__name__} hooks; use backend='reference'"
            )
        _fallback("hooks")
        return "reference", None
    engine = codegen_backend_for(program)
    try:
        # Emits and compiles the run's variant (cached for the run).
        engine.emitted_source(getattr(hooks, "plan", None), model)
    except LoweringError:
        if backend == "codegen":
            raise
        _fallback("lowering")
        return "reference", None
    return "codegen", engine


_RUNS_TOTAL = metrics.CounterHandles(
    "repro_runs_total",
    "Program executions by backend.",
    labels=("backend",),
)


def run_program(
    program: CompiledProgram,
    *,
    inputs: tuple[float, ...] = (),
    seed: int = 0,
    model: MachineModel | None = None,
    hooks: ExecutionHooks | None = None,
    max_steps: int = 10_000_000,
    backend: str = "auto",
) -> RunResult:
    """Execute the program once.

    ``backend`` selects the execution engine: ``"auto"`` (codegen when
    possible, else reference — see :func:`_select_backend`),
    ``"codegen"`` or ``"reference"``.  Both engines produce
    bit-identical results.

    ``max_steps`` bounds the run's node executions.  Both engines count
    every step exactly but check the budget only at taken loop back
    edges, before user calls and at procedure exits (EXIT or STOP), so
    a run past its budget raises :class:`InterpreterLimitError` within
    one acyclic stretch of one procedure activation.  A node's own
    error later in that stretch wins over the limit error, on both
    engines alike.
    """
    chosen, engine = _select_backend(program, hooks, backend, model=model)
    _RUNS_TOTAL(chosen).inc()
    if engine is not None:
        return engine.run(
            model=model,
            hooks=hooks,
            seed=seed,
            inputs=inputs,
            max_steps=max_steps,
        )
    interpreter = Interpreter(
        program.checked,
        program.cfgs,
        {name: ecfg.intervals for name, ecfg in program.ecfgs.items()},
        model=model,
        hooks=hooks,
        seed=seed,
        inputs=inputs,
        max_steps=max_steps,
    )
    return interpreter.run()


def smart_program_plan(
    program: CompiledProgram,
    *,
    enable_drops: bool = True,
    enable_do_batch: bool = True,
) -> ProgramPlan:
    """The optimized counter plan for every procedure."""
    with span("plan.smart"):
        plan = ProgramPlan(
            kind="smart",
            plans={
                name: smart_plan(
                    program.checked,
                    program.cfgs[name],
                    program.fcdgs[name],
                    enable_drops=enable_drops,
                    enable_do_batch=enable_do_batch,
                )
                for name in program.cfgs
            },
        )
    metrics.counter(
        "repro_plan_builds_total", "Counter plans built.", labels=("kind",)
    ).inc(kind="smart")
    return plan


def naive_program_plan(
    program: CompiledProgram, *, straightline_do_opt: bool = True
) -> ProgramPlan:
    """The naive per-basic-block counter plan for every procedure."""
    with span("plan.naive"):
        plan = ProgramPlan(
            kind="naive",
            plans={
                name: naive_plan(
                    program.checked,
                    program.cfgs[name],
                    straightline_do_opt=straightline_do_opt,
                )
                for name in program.cfgs
            },
        )
    metrics.counter(
        "repro_plan_builds_total", "Counter plans built.", labels=("kind",)
    ).inc(kind="naive")
    return plan


def paths_program_plan(program: CompiledProgram) -> ProgramPathPlan:
    """The Ball–Larus path plan for every procedure (``mode="paths"``)."""
    with span("plan.paths", attrs={"procedures": len(program.cfgs)}):
        plan = _build_path_plan(program)
    metrics.counter(
        "repro_plan_builds_total", "Counter plans built.", labels=("kind",)
    ).inc(kind="paths")
    return plan


@dataclass
class ProfileStats:
    """What profiling cost, summed over the profiled runs.

    ``counters`` is the number of counter slots in counter mode and
    the number of static instrumentation sites (non-zero increments,
    flush bumps/resets, EXIT flushes) in path mode;
    ``counter_updates`` counts dynamic register/counter updates in
    both modes, so the two are directly comparable (Section 3.3).
    """

    runs: int = 0
    counters: int = 0
    counter_updates: int = 0
    base_cost: float = 0.0
    counter_cost: float = 0.0


def profile_program(
    program: CompiledProgram,
    runs: list[dict] | int = 1,
    *,
    plan: ProgramPlan | ProgramPathPlan | None = None,
    model: MachineModel | None = None,
    record_loop_moments: bool = False,
    max_steps: int = 10_000_000,
    backend: str = "auto",
    mode: str = "counters",
) -> tuple[ProgramProfile, ProfileStats]:
    """Profile the program over one or more runs.

    ``runs`` is either a run count or a list of per-run keyword dicts
    (``inputs=...``, ``seed=...``).  With the default ``plan=None``
    the optimized plan is built and executed; the returned profile is
    *reconstructed from its counters* — exactly what a production
    deployment of the paper's scheme would see.  Each run is one call
    of the module-level :func:`run_program`, driven by the plan's
    executor, so it records no ground-truth node/edge counts (see
    :class:`~repro.interp.RunResult`).  ``backend`` selects
    the execution engine per :func:`run_program`; loop-moment
    recording chains hooks, which only the reference interpreter
    drives, so ``auto`` falls back for those runs.

    ``mode="paths"`` profiles with Ball–Larus path registers instead
    of counters (``plan`` must then be a
    :class:`repro.paths.ProgramPathPlan`, or ``None`` to build one);
    the profile is reconstructed from the recorded path counts and is
    bit-for-bit identical to the counter-based one on runs that
    terminate normally.
    """
    if mode not in ("counters", "paths"):
        raise ValueError(
            f"unknown profiling mode {mode!r}; expected 'counters' or 'paths'"
        )
    if isinstance(runs, int):
        run_specs = [{"seed": i} for i in range(runs)]
    else:
        run_specs = runs
    executor: PlanExecutor | PathExecutor
    if mode == "paths":
        if plan is None:
            plan = paths_program_plan(program)
        elif getattr(plan, "kind", None) != "paths":
            raise ValueError(
                "mode='paths' requires a path plan; got "
                f"{getattr(plan, 'kind', type(plan).__name__)!r}"
            )
        executor = PathExecutor(plan)
        n_static = plan.n_sites
    else:
        if plan is None:
            plan = smart_program_plan(program)
        elif getattr(plan, "kind", None) == "paths":
            raise ValueError("mode='counters' cannot execute a path plan")
        executor = PlanExecutor(plan)
        n_static = plan.n_counters
    recorder = (
        LoopMomentRecorder(program.ecfgs) if record_loop_moments else None
    )
    hooks: ExecutionHooks = executor
    if recorder is not None:
        hooks = HookChain(executor, recorder)

    stats = ProfileStats(runs=len(run_specs), counters=n_static)
    started = time.perf_counter()
    with span(
        "profile",
        attrs={"runs": len(run_specs), "plan": plan.kind, "mode": mode},
    ):
        for spec in run_specs:
            with span("profile.run", attrs={"seed": spec.get("seed", 0)}):
                result = run_program(
                    program,
                    model=model,
                    hooks=hooks,
                    max_steps=max_steps,
                    backend=backend,
                    **spec,
                )
            if mode == "paths":
                # Settle frames a STOP halt left live.  The fused
                # backends settle their own state, leaving this a
                # no-op on their runs.
                executor.finalize_run()
            if recorder is not None:
                recorder.finalize_run()
            stats.base_cost += result.total_cost
            stats.counter_cost += result.counter_cost
        stats.counter_updates = executor.updates

        if mode == "paths":
            with span("profile.paths.reconstruct"):
                profile = reconstruct_path_profile(
                    program, plan, executor, runs=len(run_specs)
                )
        else:
            with span("profile.reconstruct"):
                profile = reconstruct_profile(
                    plan, executor, runs=len(run_specs)
                )
    metrics.counter(
        "repro_profile_runs_total", "Profiled program executions."
    ).inc(len(run_specs))
    if mode == "paths":
        metrics.counter(
            "repro_path_profile_runs_total",
            "Path-mode profiled program executions.",
        ).inc(len(run_specs))
    metrics.histogram(
        "repro_profile_seconds", "profile_program latency in seconds."
    ).observe(time.perf_counter() - started)
    if recorder is not None:
        for name in program.cfgs:
            proc = profile.proc(name)
            proc.loop_sumsq = dict(recorder.sumsq.get(name, {}))
            proc.loop_entries = dict(recorder.entries.get(name, {}))
    return profile, stats


def profile_batch(
    items,
    runs: list[dict] | int = 1,
    *,
    plan: str = "smart",
    model: MachineModel | None = None,
    mode: str = "auto",
    jobs: int | None = None,
    cache=None,
    loop_variance: str = "zero",
    max_steps: int = 10_000_000,
    verify: bool = False,
    backend: str = "auto",
    profile_mode: str = "counters",
):
    """Profile many programs, with cached static analysis.

    ``items`` may mix plain source strings, ``(id, source)`` pairs and
    :class:`repro.batch.BatchItem` instances; ``runs`` (a count or a
    list of run-spec dicts) applies to every non-``BatchItem`` entry.
    ``cache`` is a directory path or :class:`repro.batch.ArtifactCache`
    (``None`` keeps the cache in memory); ``mode`` is ``"serial"``,
    ``"process"`` or ``"auto"``; ``verify=True`` runs the artifact
    verifier on every item's artifacts before profiling (failures are
    isolated per item, stage ``"verify"``).  ``profile_mode`` selects
    counter or Ball–Larus path profiling per
    :func:`profile_program`.  Returns a
    :class:`repro.batch.BatchReport` with results in item order and
    per-item error isolation.
    """
    from repro.batch import BatchItem, run_batch

    if isinstance(runs, int):
        run_specs = tuple({"seed": i} for i in range(runs))
    else:
        run_specs = tuple(dict(spec) for spec in runs)
    normalized: list[BatchItem] = []
    for i, item in enumerate(items):
        if isinstance(item, BatchItem):
            normalized.append(item)
        elif isinstance(item, str):
            normalized.append(
                BatchItem(id=f"program-{i}", source=item, runs=run_specs)
            )
        else:
            item_id, source = item
            normalized.append(
                BatchItem(id=str(item_id), source=source, runs=run_specs)
            )
    return run_batch(
        normalized,
        plan=plan,
        model=model,
        mode=mode,
        jobs=jobs,
        cache=cache,
        loop_variance=loop_variance,
        max_steps=max_steps,
        verify=verify,
        backend=backend,
        profile_mode=profile_mode,
    )


def oracle_program_profile(
    program: CompiledProgram,
    runs: list[dict] | int = 1,
    *,
    max_steps: int = 10_000_000,
) -> ProgramProfile:
    """Exact accumulated profile from interpreter ground truth."""
    if isinstance(runs, int):
        run_specs = [{"seed": i} for i in range(runs)]
    else:
        run_specs = runs
    total = ProgramProfile()
    for spec in run_specs:
        result = run_program(program, max_steps=max_steps, **spec)
        total.merge(oracle_profile(result, program.ecfgs))
    return total


def analyze(
    program: CompiledProgram,
    profile: ProgramProfile,
    model: MachineModel = SCALAR_MACHINE,
    *,
    loop_variance: LoopVarianceSpec = "zero",
    estimator=None,
) -> ProgramAnalysis:
    """Run the TIME/VAR analysis against a profile.

    The call graph is the one :func:`compile_source` built, and the
    COST tables are :func:`repro.costs.cost_tables`, shared with the
    codegen variants emitted for the same model; a caller-supplied
    ``estimator`` is used as given instead.
    """
    with span("analyze"):
        return analyze_program(
            program.checked,
            program.cfgs,
            profile,
            model,
            loop_variance=loop_variance,
            artifacts=program.artifacts(),
            call_graph=program.call_graph,
            estimator=(
                estimator
                if estimator is not None
                else cost_tables(program.checked, program.cfgs, model)
            ),
        )


def estimate(
    source: str,
    runs: list[dict] | int = 1,
    model: MachineModel = SCALAR_MACHINE,
    *,
    loop_variance: LoopVarianceSpec = "zero",
) -> ProgramAnalysis:
    """One-shot convenience: compile, profile (smart plan), analyze."""
    program = compile_source(source)
    record = loop_variance == "profiled"
    profile, _ = profile_program(
        program, runs, record_loop_moments=record
    )
    return analyze(program, profile, model, loop_variance=loop_variance)
