"""Command-line interface: ``python -m repro <command> ...``.

Commands mirror the library pipeline:

* ``compile``  — parse and build the graphs; print CFG/ECFG/FCDG or DOT;
* ``run``      — execute a program, print its output and cost;
* ``profile``  — execute under the optimized counter plan; print stats
  and optionally accumulate into a profile database (PTRAN style);
* ``analyze``  — profile (or load a database entry) and print TIME /
  VAR / STD_DEV per procedure, optionally the annotated Figure-3 FCDG;
* ``batch``    — profile many programs (files and/or generated
  workloads) through the cached batch engine, serially or on a
  process pool, with per-program error isolation;
* ``check``    — run the artifact verifier and minifort linter over
  files, built-in workloads and/or generated programs; exit non-zero
  if anything at warning level or above is found;
* ``serve``    — run the asyncio profiling service: micro-batched
  compile/profile endpoints, a shared profile database accumulating
  ``TOTAL_FREQ`` ingests, bounded-queue backpressure, graceful drain;
* ``call``     — the client: health/metrics probes, remote compile
  and profile, client-side profiling with delta ingest, and
  Definition-3 frequency/variance queries;
* ``trace``    — run one compile → check → profile → analyze pass
  under the tracing subsystem and print a per-stage latency tree
  (self and total times), optionally dumping raw spans as JSONL or
  as a Chrome trace-event file (``--chrome-trace``) for Perfetto;
* ``validate`` — the wall-clock observatory: measure programs (or an
  arbitrary external command) under ``perf_counter_ns``, fit the
  cost model against the measurements (``--calibrate``), and score
  calibrated TIME/VAR predictions against measured means and
  confidence intervals (``--calibration``).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from repro import (
    BACKENDS,
    OPTIMIZING_MACHINE,
    SCALAR_MACHINE,
    analyze,
    compile_source,
    naive_program_plan,
    profile_program,
    run_program,
    smart_program_plan,
)
from repro.analysis.distributions import LoopDistribution
from repro.cfg.dot import cfg_to_dot, fcdg_to_dot
from repro.errors import ReproError
from repro.profiling.database import ProfileDatabase
from repro.report import (
    format_table,
    render_cfg,
    render_fcdg,
    render_profile_report,
)

_MODELS = {
    "scalar": SCALAR_MACHINE,
    "optimizing": OPTIMIZING_MACHINE,
}

#: Help for every ``--max-steps`` flag.
_MAX_STEPS_HELP = (
    "bound on node executions per run (default 10000000); checked at "
    "loop back edges, calls and procedure exits, so a run past it "
    "stops within one loop- and call-free stretch"
)

_LOOP_VARIANCE = {
    "zero": "zero",
    "profiled": "profiled",
    "poisson": LoopDistribution.POISSON,
    "geometric": LoopDistribution.GEOMETRIC,
    "uniform": LoopDistribution.UNIFORM,
}


def _parse_inputs(text: str | None) -> tuple[float, ...]:
    if not text:
        return ()
    return tuple(float(part) for part in text.split(",") if part.strip())


def _load(path: str):
    return compile_source(Path(path).read_text())


def _cmd_compile(args) -> int:
    program = _load(args.file)
    names = [args.proc] if args.proc else sorted(program.cfgs)
    for name in names:
        if name not in program.cfgs:
            raise ReproError(f"no procedure named {name}")
        if args.show == "cfg":
            print(render_cfg(program.cfgs[name]))
        elif args.show == "ecfg":
            print(render_cfg(program.ecfgs[name].graph, title=f"ECFG of {name}"))
        elif args.show == "fcdg":
            fcdg = program.fcdgs[name]
            print(f"FCDG of {name} ({len(fcdg.nodes)} nodes):")
            for node in fcdg.topological_order():
                text = program.ecfgs[name].graph.nodes[node].text
                print(f"{node:>4} {text}")
                for label, child in fcdg.all_children(node):
                    print(f"       --{label}--> {child}")
        elif args.show == "dot-cfg":
            print(cfg_to_dot(program.cfgs[name]))
        elif args.show == "dot-fcdg":
            print(fcdg_to_dot(program.fcdgs[name]))
        print()
    if program.splits:
        print(f"node splitting applied: {program.splits}", file=sys.stderr)
    return 0


def _cmd_run(args) -> int:
    program = _load(args.file)
    result = run_program(
        program,
        inputs=_parse_inputs(args.inputs),
        seed=args.seed,
        model=_MODELS[args.model],
        max_steps=args.max_steps,
        backend=args.backend,
    )
    for line in result.outputs:
        print(line)
    print(
        f"[{result.steps} statements, {result.total_cost:.0f} cycles "
        f"on the {_MODELS[args.model].name} machine]",
        file=sys.stderr,
    )
    return 0


def _run_specs(args) -> list[dict]:
    inputs = _parse_inputs(args.inputs)
    return [
        {"seed": args.seed + i, "inputs": inputs} for i in range(args.runs)
    ]


def _profile_plan(program, args):
    """The plan a profiling command should execute, honouring --mode."""
    if getattr(args, "mode", "counters") == "paths":
        if args.plan == "naive":
            raise ReproError("--mode paths requires --plan smart")
        from repro.paths import path_program_plan

        return path_program_plan(program)
    if args.plan == "naive":
        return naive_program_plan(program)
    return smart_program_plan(program)


def _cmd_profile(args) -> int:
    program = _load(args.file)
    plan = _profile_plan(program, args)
    profile, stats = profile_program(
        program,
        runs=_run_specs(args),
        plan=plan,
        model=_MODELS[args.model],
        record_loop_moments=args.loop_moments,
        backend=args.backend,
        mode=args.mode,
    )
    print(
        format_table(
            ["metric", "value"],
            [
                ["mode", args.mode],
                ["plan", args.plan if args.mode == "counters" else "paths"],
                ["runs", stats.runs],
                ["counters" if args.mode == "counters" else "path sites",
                 stats.counters],
                ["counter updates", stats.counter_updates],
                ["program cycles", stats.base_cost],
                ["profiling cycles", stats.counter_cost],
                [
                    "overhead",
                    f"{100 * stats.counter_cost / stats.base_cost:.2f}%"
                    if stats.base_cost
                    else "n/a",
                ],
            ],
            title=f"profile of {args.file}",
        )
    )
    if args.db:
        database = ProfileDatabase(args.db)
        database.record(args.key or Path(args.file).name, profile)
        database.save()
        print(f"[accumulated into {args.db}]", file=sys.stderr)
    return 0


def _cmd_analyze(args) -> int:
    program = _load(args.file)
    if args.db:
        database = ProfileDatabase(args.db)
        profile = database.lookup(args.key or Path(args.file).name)
        if profile is None:
            raise ReproError(
                f"no profile for key {args.key or Path(args.file).name!r} "
                f"in {args.db}"
            )
    else:
        profile, _ = profile_program(
            program,
            runs=_run_specs(args),
            record_loop_moments=args.loop_variance == "profiled",
        )
    calibration = None
    if args.calibration:
        from repro.validate import CalibrationProfile

        calibration = CalibrationProfile.load(args.calibration)
    model = (
        calibration.machine_model()
        if calibration is not None
        else _MODELS[args.model]
    )
    analysis = analyze(
        program,
        profile,
        model,
        loop_variance=_LOOP_VARIANCE[args.loop_variance],
    )
    bounds = None
    if args.static_bounds:
        from repro.dataflow import compute_static_bounds, format_endpoint

        bounds = compute_static_bounds(
            program.checked,
            program.cfgs,
            model,
            artifacts=program.artifacts(),
        )
    headers = ["procedure", "invocations", "TIME", "VAR", "STD_DEV"]
    if bounds is not None:
        headers += ["TIME_LO", "TIME_HI", "VAR_HI"]
    rows = []
    for name, proc in sorted(analysis.procedures.items()):
        row = [
            name,
            proc.freqs.invocations,
            proc.time,
            proc.var,
            proc.std_dev,
        ]
        if bounds is not None:
            pb = bounds.procedures[name]
            row += [
                format_endpoint(pb.time[0]),
                format_endpoint(pb.time[1]),
                format_endpoint(pb.var[1]),
            ]
        rows.append(row)
    print(
        format_table(
            headers,
            rows,
            title=(
                f"analysis of {args.file} on the "
                f"{model.name} machine"
            ),
        )
    )
    units = " ns" if calibration is not None else ""
    print(
        f"\nprogram: TIME = {analysis.total_time:.2f}{units}, "
        f"STD_DEV = {analysis.total_std_dev:.2f}{units}"
    )
    if calibration is not None:
        print(
            "calibrated wall clock: "
            f"{analysis.total_time + calibration.intercept_ns:.0f} ns/run "
            f"(incl. {calibration.intercept_ns:.0f} ns harness overhead; "
            f"fit R² = {calibration.r_squared:.4f})"
        )
    if bounds is not None:
        mb = bounds.main
        print(
            "static bounds (no profile needed): TIME ∈ "
            f"[{format_endpoint(mb.time[0])}, {format_endpoint(mb.time[1])}]"
            f", VAR ≤ {format_endpoint(mb.var[1])}"
        )
    if args.figure3:
        print()
        print(render_fcdg(analysis.main))
    if args.gprof:
        print()
        print(render_profile_report(analysis))
    return 0


def _analyzed_for_apps(args):
    program = _load(args.file)
    profile, _ = profile_program(
        program, runs=_run_specs(args), record_loop_moments=True
    )
    return program, analyze(
        program, profile, _MODELS[args.model], loop_variance="profiled"
    )


def _cmd_traces(args) -> int:
    from repro.apps.traces import branch_layout_advice, select_traces

    program, analysis = _analyzed_for_apps(args)
    for name in sorted(analysis.procedures):
        proc = analysis.procedures[name]
        if proc.freqs.invocations == 0:
            continue
        print(f"== {name} ==")
        cfg = program.cfgs[name]
        for i, trace in enumerate(select_traces(proc)):
            path = " -> ".join(cfg.nodes[n].text or str(n) for n in trace.nodes)
            print(f"  trace {i} (weight {trace.weight:.1f}): {path}")
        advice = branch_layout_advice(proc, taken_penalty=args.penalty)
        for item in advice:
            print(
                f"  layout: {item.text}: fall through on "
                f"{item.fallthrough_label} "
                f"(saves {item.saving:.1f} cycles/invocation)"
            )
        print()
    return 0


def _cmd_partition(args) -> int:
    from repro.apps.partitioning import partition_program

    program, analysis = _analyzed_for_apps(args)
    partition = partition_program(
        analysis,
        n_processors=args.processors,
        spawn_overhead=args.overhead,
    )
    rows = [
        [
            task.proc,
            task.text,
            task.iterations,
            task.chunk,
            task.sequential_time,
            task.parallel_time,
            task.profitable,
        ]
        for task in partition.loops
    ]
    print(
        format_table(
            ["proc", "loop", "iters", "chunk", "seq", "par", "spawn?"],
            rows,
            title=f"loop tasks (P={args.processors})",
        )
    )
    print(
        f"\nestimated speedup: {partition.estimated_speedup:.2f}x "
        f"({partition.sequential_time:.0f} -> "
        f"{partition.parallel_time:.0f} cycles)"
    )
    return 0


def _cmd_spill(args) -> int:
    from repro.apps.spill_costs import spill_costs

    program, analysis = _analyzed_for_apps(args)
    proc = args.proc or program.main_name
    if proc not in analysis.procedures:
        raise ReproError(f"no procedure named {proc}")
    ranked = spill_costs(analysis, proc, _MODELS[args.model])
    print(
        format_table(
            ["variable", "reads", "writes", "register saving"],
            [[r.name, r.reads, r.writes, r.cost] for r in ranked],
            title=f"spill costs of {proc} (per invocation)",
        )
    )
    return 0


@contextlib.contextmanager
def _tracing_to(path: str | None):
    """Enable span recording to a JSONL file for the enclosed work."""
    if not path:
        yield
        return
    from repro.obs import JsonlSink, configure_tracing, disable_tracing

    sink = JsonlSink(path)
    configure_tracing(sink)
    try:
        yield
    finally:
        disable_tracing()
        sink.close()
        print(f"[spans appended to {path}]", file=sys.stderr)


def _resolve_program_source(target: str) -> tuple[str, str]:
    """``(label, source)`` for a path or a built-in workload name.

    ``repro trace examples/paper`` works even though no such file
    exists: when ``target`` is not a readable path, its stem is looked
    up among the built-in workloads.
    """
    from repro.workloads import builtin_sources

    path = Path(target)
    if path.is_file():
        return target, path.read_text()
    builtins = dict(builtin_sources())
    stem = path.stem
    if stem in builtins:
        return f"builtin:{stem}", builtins[stem]
    raise ReproError(
        f"{target}: not a file, and no built-in workload named {stem!r} "
        f"(built-ins: {', '.join(sorted(builtins))})"
    )


def _cmd_trace(args) -> int:
    from repro.checker import verify_program
    from repro.obs import (
        JsonlSink,
        RingBufferSink,
        configure_tracing,
        disable_tracing,
        render_trace_tree,
        span,
    )

    label, source = _resolve_program_source(args.file)
    if args.dump_source:
        from repro.codegen import LoweringError, codegen_backend_for

        program = compile_source(source)
        plan = _profile_plan(program, args)
        try:
            text = codegen_backend_for(program).emitted_source(
                plan, _MODELS[args.model]
            )
        except LoweringError as exc:
            raise ReproError(
                f"{label}: codegen cannot lower this program ({exc})"
            ) from exc
        print(text)
        return 0
    ring = RingBufferSink(capacity=8192)
    sinks: list = [ring]
    jsonl = None
    if args.trace_out:
        jsonl = JsonlSink(args.trace_out)
        sinks.append(jsonl)
    configure_tracing(*sinks)
    try:
        with span("trace", attrs={"target": label}):
            program = compile_source(source)
            plan = _profile_plan(program, args)
            report = verify_program(program, plan, program_id=label)
            profile, _stats = profile_program(
                program,
                runs=_run_specs(args),
                plan=plan,
                model=_MODELS[args.model],
                record_loop_moments=args.loop_variance == "profiled",
                mode=args.mode,
            )
            analyze(
                program,
                profile,
                _MODELS[args.model],
                loop_variance=_LOOP_VARIANCE[args.loop_variance],
            )
    finally:
        disable_tracing()
        if jsonl is not None:
            jsonl.close()
    spans = ring.drain()
    print(render_trace_tree(spans))
    if report.errors:
        print(
            f"[verifier found {len(report.errors)} error(s); "
            f"run `repro check` for details]",
            file=sys.stderr,
        )
    if args.trace_out:
        print(f"[spans appended to {args.trace_out}]", file=sys.stderr)
    if args.chrome_trace:
        from repro.obs import write_chrome_trace

        count = write_chrome_trace(spans, args.chrome_trace)
        print(
            f"[{count} Chrome trace events written to {args.chrome_trace}; "
            "load in Perfetto or chrome://tracing]",
            file=sys.stderr,
        )
    return 0


def _format_ns(value: float) -> str:
    """Human-scaled nanoseconds for the validate tables."""
    sign = "-" if value < 0 else ""
    value = abs(value)
    if value >= 1e9:
        return f"{sign}{value / 1e9:.3f}s"
    if value >= 1e6:
        return f"{sign}{value / 1e6:.3f}ms"
    if value >= 1e3:
        return f"{sign}{value / 1e3:.1f}µs"
    return f"{sign}{value:.0f}ns"


def _validate_subjects(args) -> list[tuple[str, str]]:
    """``(label, source)`` pairs the validate command should measure."""
    from repro.workloads.generators import ProgramGenerator

    sources: list[tuple[str, str]] = []
    for target in args.files:
        sources.append(_resolve_program_source(target))
    if args.builtin:
        from repro.validate.corpus import corpus_sources

        only = (
            tuple(part for part in args.only.split(",") if part)
            if args.only
            else None
        )
        sources.extend(corpus_sources(builtins=True, generated=0, only=only))
    for i in range(args.generate):
        gen_seed = args.gen_seed + i
        sources.append((f"gen-{gen_seed}", ProgramGenerator(gen_seed).source()))
    return sources


def _cmd_validate(args) -> int:
    import random

    from repro.validate import (
        AccuracyScorer,
        CalibrationProfile,
        CalibrationSample,
        feature_counts,
        fit_calibration,
        measure_command,
        measure_program,
        median_relative_error,
        sample_inputs,
    )
    from repro.validate.corpus import DEFAULT_INPUTS

    if args.command_argv and args.command_argv[0] == "--":
        args.command_argv = args.command_argv[1:]
    if args.command_argv:
        if args.files or args.builtin or args.generate:
            raise ReproError(
                "validate: --command measures the external command alone; "
                "drop the program arguments"
            )
        if args.calibrate or args.calibration:
            raise ReproError(
                "validate: an external command has no operation counts, so "
                "it cannot be calibrated or scored"
            )
        with _tracing_to(args.trace_out):
            measurement = measure_command(
                args.command_argv, trials=args.trials, warmup=args.warmup
            )
        lo, hi = (
            measurement.mean_ci()
            if measurement.trials >= 2
            else (float("nan"), float("nan"))
        )
        print(
            format_table(
                ["metric", "value"],
                [
                    ["trials", measurement.trials],
                    ["warmup", measurement.warmup],
                    ["mean", _format_ns(measurement.mean_ns)],
                    ["std dev", _format_ns(measurement.std_ns)],
                    [
                        "mean 95% CI",
                        f"[{_format_ns(lo)}, {_format_ns(hi)}]"
                        if measurement.trials >= 2
                        else "n/a",
                    ],
                ],
                title=f"wall clock of `{measurement.label}`",
            )
        )
        if args.json:
            _write_json_report(args.json, {"command": measurement.as_dict()})
        return 0

    sources = _validate_subjects(args)
    if not sources:
        raise ReproError(
            "validate: no subjects (give files, --builtin, --generate N "
            "or --command ...)"
        )
    if (args.calibrate or args.calibration) and args.trials < 2:
        raise ReproError(
            "validate: scoring and calibration need --trials >= 2 "
            "(confidence intervals are undefined for one sample)"
        )

    explicit_inputs = _parse_inputs(args.inputs)
    input_sampler = None
    if args.input_dist:

        def input_sampler(seed: int) -> tuple[float, ...]:
            return sample_inputs(
                args.input_dist,
                args.input_mean,
                args.input_count,
                random.Random(seed),
            )

    measured = []
    with _tracing_to(args.trace_out):
        for label, source in sources:
            program = compile_source(source)
            inputs = explicit_inputs or DEFAULT_INPUTS.get(
                label.removeprefix("builtin:"), ()
            )
            item = measure_program(
                program,
                trials=args.trials,
                warmup=args.warmup,
                backend=args.backend,
                seed=args.seed,
                inputs=inputs,
                input_sampler=input_sampler,
                max_steps=args.max_steps,
                label=label,
            )
            print(
                f"[measured {label}: mean "
                f"{_format_ns(item.measurement.mean_ns)} over "
                f"{args.trials} trial(s)]",
                file=sys.stderr,
            )
            measured.append((label, program, item))

        calibration = None
        if args.calibrate:
            samples = [
                CalibrationSample(
                    label=label,
                    features=feature_counts(program, item.profile),
                    measured_mean_ns=item.measurement.mean_ns,
                    measured_var_ns2=item.measurement.var_ns2,
                    trials=item.measurement.trials,
                )
                for label, program, item in measured
            ]
            calibration = fit_calibration(
                samples,
                ridge=args.ridge,
                backend=args.backend,
                trials=args.trials,
                warmup=args.warmup,
            )
            calibration.save(args.calibrate)
        elif args.calibration:
            calibration = CalibrationProfile.load(args.calibration)

        scores = None
        if calibration is not None:
            scorer = AccuracyScorer(calibration)
            scores = scorer.score_corpus(measured)

    rows = [
        [
            label,
            item.measurement.trials,
            _format_ns(item.measurement.mean_ns),
            _format_ns(item.measurement.std_ns),
            f"[{_format_ns(item.measurement.mean_ci()[0])}, "
            f"{_format_ns(item.measurement.mean_ci()[1])}]"
            if item.measurement.trials >= 2
            else "n/a",
        ]
        for label, _program, item in measured
    ]
    print(
        format_table(
            ["program", "trials", "mean", "std dev", "mean 95% CI"],
            rows,
            title=f"measured wall clock ({args.backend} backend)",
        )
    )

    if calibration is not None:
        print(
            "\ncalibration: R² = "
            f"{calibration.r_squared:.4f}, intercept = "
            f"{_format_ns(calibration.intercept_ns)}/run"
        )
        for group in sorted(calibration.coefficients_ns):
            print(
                f"  {group:<12} {calibration.coefficients_ns[group]:8.2f} ns/op"
            )
        if args.calibrate:
            print(f"[calibration artifact written to {args.calibrate}]",
                  file=sys.stderr)
    if scores is not None:
        score_rows = [
            [
                score.label,
                _format_ns(score.measured_mean_ns),
                _format_ns(score.predicted_time_ns),
                f"{100 * score.time_relative_error:.1f}%",
                f"{score.time_z_score:+.2f}",
                "yes" if score.time_in_ci else "no",
                "yes" if score.var_in_ci else "no",
            ]
            for score in scores
        ]
        print()
        print(
            format_table(
                ["program", "measured", "predicted", "rel err", "z",
                 "TIME in CI", "VAR in CI"],
                score_rows,
                title="calibrated TIME/VAR vs measured wall clock",
            )
        )
        print(
            "\nmedian TIME relative error: "
            f"{100 * median_relative_error(scores):.1f}%"
        )

    if args.json:
        payload: dict = {
            "backend": args.backend,
            "trials": args.trials,
            "warmup": args.warmup,
            "subjects": [item.as_dict() for _label, _p, item in measured],
        }
        if calibration is not None:
            payload["calibration"] = calibration.to_dict()
        if scores is not None:
            payload["scores"] = [score.as_dict() for score in scores]
            payload["median_relative_error"] = median_relative_error(scores)
        _write_json_report(args.json, payload)
    return 0


def _write_json_report(path: str, payload: dict) -> None:
    import json

    text = json.dumps(payload, indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        Path(path).write_text(text + "\n", encoding="utf-8")
        print(f"[JSON written to {path}]", file=sys.stderr)


def _cmd_batch(args) -> int:
    from repro.batch import BatchItem, run_batch
    from repro.workloads.generators import ProgramGenerator

    inputs = _parse_inputs(args.inputs)
    run_specs = tuple(
        {"seed": args.seed + i, "inputs": inputs} for i in range(args.runs)
    )
    items: list[BatchItem] = []
    for path in args.files:
        items.append(
            BatchItem(id=path, source=Path(path).read_text(), runs=run_specs)
        )
    for i in range(args.generate):
        gen_seed = args.gen_seed + i
        items.append(
            BatchItem(
                id=f"gen-{gen_seed}",
                source=ProgramGenerator(gen_seed).source(),
                runs=run_specs,
            )
        )
    if not items:
        raise ReproError("batch: no programs (give files and/or --generate N)")

    mode = {"auto": "auto", "serial": "serial", "pool": "process"}[args.mode]
    with _tracing_to(args.trace_out):
        report = run_batch(
            items,
            plan=args.plan,
            model=_MODELS[args.model],
            mode=mode,
            jobs=args.jobs,
            cache=args.cache,
            max_steps=args.max_steps,
            verify=args.verify,
            backend=args.backend,
            profile_mode=args.profile_mode,
        )

    rows = []
    for result in report.results:
        if result.ok:
            summary = result.summary or {}
            rows.append(
                [
                    result.item_id,
                    "ok",
                    result.runs,
                    result.counters,
                    result.counter_updates,
                    summary.get("time", float("nan")),
                    summary.get("std_dev", float("nan")),
                    result.cache_tier,
                ]
            )
        else:
            rows.append(
                [
                    result.item_id,
                    f"FAILED ({result.error.stage})",
                    result.runs,
                    0,
                    0,
                    float("nan"),
                    float("nan"),
                    result.cache_tier or "-",
                ]
            )
    print(
        format_table(
            ["program", "status", "runs", "counters", "updates",
             "TIME", "STD_DEV", "cache"],
            rows,
            title=(
                f"batch profile of {len(report.results)} programs "
                f"({report.mode}, {report.jobs} job(s), "
                f"{'paths' if args.profile_mode == 'paths' else args.plan} "
                "plan)"
            ),
        )
    )
    stats = report.cache_stats
    print(
        f"\ncache: {stats['memory_hits']} memory hits, "
        f"{stats['disk_hits']} disk hits, {stats['misses']} misses, "
        f"{stats['corrupt_entries']} corrupt, "
        f"{stats.get('invalid_entries', 0)} invalid; "
        f"{len(report.ok)}/{len(report.results)} ok in {report.elapsed:.2f}s"
    )
    for result in report.failures:
        print(
            f"{result.item_id}: {result.error.stage} failed "
            f"[{result.error.type}] {result.error.message}",
            file=sys.stderr,
        )
    if args.json:
        payload = report.aggregate_json()
        if args.json == "-":
            print(payload)
        else:
            Path(args.json).write_text(payload + "\n")
            print(f"[aggregate JSON written to {args.json}]", file=sys.stderr)
    return 0 if not report.failures else 1


def _cmd_check(args) -> int:
    import json

    from repro.checker import check_source
    from repro.workloads import builtin_sources
    from repro.workloads.generators import ProgramGenerator

    programs: list[tuple[str, str]] = []
    for path in args.files:
        programs.append((path, Path(path).read_text()))
    if args.builtin:
        programs.extend(builtin_sources())
    for i in range(args.generate):
        gen_seed = args.gen_seed + i
        programs.append(
            (f"gen-{gen_seed}", ProgramGenerator(gen_seed).source())
        )
    if not programs:
        raise ReproError(
            "check: no programs (give files, --builtin and/or --generate N)"
        )

    plan_kinds = {
        "smart": ("smart",),
        "naive": ("naive",),
        "paths": ("paths",),
        "both": ("smart", "naive"),
        "all": ("smart", "naive", "paths"),
    }[args.plan]
    reports = [
        check_source(
            source,
            program_id=program_id,
            plan_kinds=plan_kinds,
            lint=not args.no_lint,
            hints=args.hints,
        )
        for program_id, source in programs
    ]

    for report in reports:
        print(report.render_text())
    bad = [r for r in reports if not r.ok]
    total = sum(len(r) for r in reports)
    print(
        f"\nchecked {len(reports)} program(s): "
        f"{len(reports) - len(bad)} clean, {len(bad)} with findings "
        f"({total} diagnostic(s) total)"
    )
    if args.json:
        payload = json.dumps(
            [r.as_dict() for r in reports], indent=2, sort_keys=True
        )
        if args.json == "-":
            print(payload)
        else:
            Path(args.json).write_text(payload + "\n")
            print(f"[JSON written to {args.json}]", file=sys.stderr)
    return 0 if not bad else 1


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        db=args.db,
        cache=args.cache,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        request_timeout=args.timeout,
        max_steps_cap=args.max_steps_cap,
        save_every=args.save_every,
        calibration=args.calibration,
    )

    if args.workers > 1:
        from repro.service import FrontDoorConfig, serve_sharded

        door_config = FrontDoorConfig(
            workers=args.workers,
            host=args.host,
            port=args.port,
            worker=config,
        )

        def announce_door(door) -> None:
            db = args.db or "(in-memory)"
            print(
                f"repro service on http://{args.host}:{door.port} "
                f"[workers={args.workers} db={db} "
                f"max_batch={args.max_batch} queue={args.queue_limit}]",
                file=sys.stderr,
                flush=True,
            )

        with _tracing_to(args.trace_out):
            asyncio.run(serve_sharded(door_config, ready=announce_door))
        print("repro service drained cleanly", file=sys.stderr)
        return 0

    def announce(service) -> None:
        db = args.db or "(in-memory)"
        print(
            f"repro service on http://{args.host}:{service.port} "
            f"[db={db} max_batch={args.max_batch} "
            f"queue={args.queue_limit}]",
            file=sys.stderr,
            flush=True,
        )

    with _tracing_to(args.trace_out):
        asyncio.run(serve(config, ready=announce))
    print("repro service drained cleanly", file=sys.stderr)
    return 0


def _client(args):
    from repro.service import ServiceClient

    return ServiceClient(
        args.host,
        args.port,
        timeout=args.timeout,
        retries=args.retries,
        backoff=args.backoff,
    )


def _print_json(payload: dict) -> None:
    import json

    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_call(args) -> int:
    from repro.service import ServiceError

    with _client(args) as client:
        try:
            if args.endpoint == "health":
                _print_json(client.healthz())
            elif args.endpoint == "metrics":
                _print_json(client.metrics())
            elif args.endpoint == "compile":
                _print_json(
                    client.compile(
                        Path(args.file).read_text(),
                        key=args.key,
                        plan=args.plan,
                        verify=args.verify,
                    )
                )
            elif args.endpoint == "profile":
                runs = [
                    {"seed": args.seed + i, "inputs": _parse_inputs(args.inputs)}
                    for i in range(args.runs)
                ]
                response = client.profile(
                    Path(args.file).read_text(),
                    runs=runs,
                    plan=args.plan,
                    verify=args.verify,
                    loop_variance=args.loop_variance,
                    backend=args.backend,
                    ingest=args.ingest,
                )
                if not args.full:
                    response.pop("profile", None)
                _print_json(response)
            elif args.endpoint == "ingest":
                # Profile locally (the paper's deployment shape: counts
                # are gathered where the program runs), ship the delta.
                source = Path(args.file).read_text()
                program = compile_source(source)
                profile, _stats = profile_program(
                    program,
                    runs=_run_specs(args),
                    record_loop_moments=True,
                )
                _print_json(
                    client.ingest(args.key, profile, source=source)
                )
            elif args.endpoint == "query":
                _print_json(
                    client.query(
                        args.key,
                        loop_variance=args.loop_variance,
                        model=args.model,
                    )
                )
            elif args.endpoint == "profiles":
                _print_json(
                    client.profiles(
                        analyze=args.analyze,
                        raw=args.raw,
                        loop_variance=args.loop_variance,
                        model=args.model,
                    )
                )
            elif args.endpoint == "calibration":
                _print_json(client.calibration())
            elif args.endpoint == "chunks":
                _print_json(
                    client.chunks(
                        args.key,
                        processors=args.processors,
                        overhead=args.overhead,
                        model=args.model,
                        loop_variance=args.loop_variance,
                    )
                )
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except ConnectionError as exc:
            print(
                f"error: cannot reach http://{args.host}:{args.port} ({exc})",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_plan(args) -> int:
    from repro.profiling.describe import describe_plan

    program = _load(args.file)
    plan = (
        naive_program_plan(program)
        if args.naive
        else smart_program_plan(program)
    )
    names = [args.proc] if args.proc else sorted(program.cfgs)
    for name in names:
        if name not in plan.plans:
            raise ReproError(f"no procedure named {name}")
        print(describe_plan(plan.plans[name], program.cfgs[name]))
        print()
    print(f"total counters: {plan.n_counters}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Average program execution times and their variance "
            "(Sarkar, PLDI 1989)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="build and print the graphs")
    p_compile.add_argument("file")
    p_compile.add_argument("--proc", help="only this procedure")
    p_compile.add_argument(
        "--show",
        choices=["cfg", "ecfg", "fcdg", "dot-cfg", "dot-fcdg"],
        default="cfg",
    )
    p_compile.set_defaults(func=_cmd_compile)

    p_run = sub.add_parser("run", help="execute a program")
    p_run.add_argument("file")
    p_run.add_argument("--inputs", help="comma-separated INPUT() vector")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--model", choices=sorted(_MODELS), default="scalar")
    p_run.add_argument(
        "--max-steps", type=int, default=10_000_000, help=_MAX_STEPS_HELP
    )
    p_run.add_argument(
        "--backend", choices=list(BACKENDS), default="auto",
        help="execution engine (default: auto — codegen, falling back "
        "to reference)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_profile = sub.add_parser(
        "profile", help="run under a counter plan; optionally store counts"
    )
    p_profile.add_argument("file")
    p_profile.add_argument("--runs", type=int, default=1)
    p_profile.add_argument("--inputs")
    p_profile.add_argument("--seed", type=int, default=0)
    p_profile.add_argument(
        "--plan", choices=["smart", "naive"], default="smart"
    )
    p_profile.add_argument("--model", choices=sorted(_MODELS), default="scalar")
    p_profile.add_argument(
        "--mode", choices=["counters", "paths"], default="counters",
        help="profiling instrumentation: Definition-3 counters or "
        "Ball–Larus path registers (default: counters)",
    )
    p_profile.add_argument("--db", help="profile database path (JSON)")
    p_profile.add_argument("--key", help="database key (default: file name)")
    p_profile.add_argument(
        "--loop-moments", action="store_true",
        help="record E[FREQ^2] per loop",
    )
    p_profile.add_argument(
        "--backend", choices=list(BACKENDS), default="auto",
        help="execution engine (default: auto — codegen, falling back "
        "to reference)",
    )
    p_profile.set_defaults(func=_cmd_profile)

    p_analyze = sub.add_parser(
        "analyze", help="compute TIME / VAR / STD_DEV per procedure"
    )
    p_analyze.add_argument("file")
    p_analyze.add_argument("--runs", type=int, default=1)
    p_analyze.add_argument("--inputs")
    p_analyze.add_argument("--seed", type=int, default=0)
    p_analyze.add_argument("--model", choices=sorted(_MODELS), default="scalar")
    p_analyze.add_argument(
        "--loop-variance",
        choices=sorted(_LOOP_VARIANCE),
        default="zero",
    )
    p_analyze.add_argument("--db", help="read the profile from this database")
    p_analyze.add_argument("--key")
    p_analyze.add_argument(
        "--figure3", action="store_true", help="print the annotated FCDG"
    )
    p_analyze.add_argument(
        "--gprof",
        action="store_true",
        help="print a gprof-style flat/call-graph/hot-spot report",
    )
    p_analyze.add_argument(
        "--static-bounds",
        action="store_true",
        help="add profile-free [TIME_lo, TIME_hi] / VAR envelope columns "
        "from value-range analysis of trip counts",
    )
    p_analyze.add_argument(
        "--calibration", metavar="PATH",
        help="price operations with this calibration artifact instead of "
        "--model: TIME comes out in nanoseconds, VAR in ns²",
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    def app_parser(name: str, help_text: str):
        sub_parser = sub.add_parser(name, help=help_text)
        sub_parser.add_argument("file")
        sub_parser.add_argument("--runs", type=int, default=3)
        sub_parser.add_argument("--inputs")
        sub_parser.add_argument("--seed", type=int, default=0)
        sub_parser.add_argument(
            "--model", choices=sorted(_MODELS), default="scalar"
        )
        return sub_parser

    p_traces = app_parser(
        "traces", "select scheduling traces and branch layouts"
    )
    p_traces.add_argument("--penalty", type=float, default=2.0)
    p_traces.set_defaults(func=_cmd_traces)

    p_partition = app_parser(
        "partition", "decide parallel loop/call tasks (PTRAN style)"
    )
    p_partition.add_argument("--processors", type=int, default=4)
    p_partition.add_argument("--overhead", type=float, default=200.0)
    p_partition.set_defaults(func=_cmd_partition)

    p_spill = app_parser(
        "spill", "rank variables by register-allocation benefit"
    )
    p_spill.add_argument("--proc", help="procedure (default: MAIN)")
    p_spill.set_defaults(func=_cmd_spill)

    p_batch = sub.add_parser(
        "batch",
        help="profile many programs with cached artifacts (serial or pooled)",
    )
    p_batch.add_argument("files", nargs="*", help="minifort source files")
    p_batch.add_argument(
        "--generate", type=int, default=0, metavar="N",
        help="add N seeded generator programs to the batch",
    )
    p_batch.add_argument(
        "--gen-seed", type=int, default=0,
        help="first generator seed (default 0)",
    )
    p_batch.add_argument("--runs", type=int, default=1)
    p_batch.add_argument("--inputs", help="comma-separated INPUT() vector")
    p_batch.add_argument("--seed", type=int, default=0)
    p_batch.add_argument(
        "--plan", choices=["smart", "naive"], default="smart"
    )
    p_batch.add_argument("--model", choices=sorted(_MODELS), default="scalar")
    p_batch.add_argument(
        "--mode", choices=["auto", "serial", "pool"], default="auto"
    )
    p_batch.add_argument(
        "--profile-mode", choices=["counters", "paths"], default="counters",
        help="profiling instrumentation: Definition-3 counters or "
        "Ball–Larus path registers (default: counters)",
    )
    p_batch.add_argument(
        "--jobs", type=int, help="worker processes (default: CPU count)"
    )
    p_batch.add_argument(
        "--cache", help="artifact cache directory (omit: in-memory only)"
    )
    p_batch.add_argument(
        "--max-steps", type=int, default=10_000_000, help=_MAX_STEPS_HELP
    )
    p_batch.add_argument(
        "--verify", action="store_true",
        help="run the artifact verifier on every item before profiling",
    )
    p_batch.add_argument(
        "--backend", choices=list(BACKENDS), default="auto",
        help="execution engine (default: auto — codegen, falling back "
        "to reference)",
    )
    p_batch.add_argument(
        "--json", metavar="PATH",
        help="write the canonical aggregate JSON here ('-' for stdout)",
    )
    p_batch.add_argument(
        "--trace-out", metavar="PATH",
        help="append tracing spans as JSONL here while the batch runs",
    )
    p_batch.set_defaults(func=_cmd_batch)

    p_check = sub.add_parser(
        "check",
        help="verify artifacts and lint sources (the repro check)",
    )
    p_check.add_argument("files", nargs="*", help="minifort source files")
    p_check.add_argument(
        "--builtin", action="store_true",
        help="also check every built-in workload",
    )
    p_check.add_argument(
        "--generate", type=int, default=0, metavar="N",
        help="also check N seeded generator programs",
    )
    p_check.add_argument(
        "--gen-seed", type=int, default=0,
        help="first generator seed (default 0)",
    )
    p_check.add_argument(
        "--plan", choices=["smart", "naive", "paths", "both", "all"],
        default="both",
        help="which plans to verify: counter kinds, 'paths' "
        "(REP5xx path-plan audit), 'both' counter kinds (default) or "
        "'all' three",
    )
    p_check.add_argument(
        "--no-lint", action="store_true", help="skip the REP3xx lints"
    )
    p_check.add_argument(
        "--hints", action="store_true",
        help="also emit hint-level findings "
        "(REP301/304/305/306/307)",
    )
    p_check.add_argument(
        "--json", metavar="PATH",
        help="write all reports as JSON here ('-' for stdout)",
    )
    p_check.set_defaults(func=_cmd_check)

    p_serve = sub.add_parser(
        "serve",
        help="run the profiling service (micro-batched asyncio server)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8437,
        help="port to bind (0: pick an ephemeral port)",
    )
    p_serve.add_argument(
        "--db", help="profile database JSON path (omit: in-memory)"
    )
    p_serve.add_argument(
        "--cache", help="artifact cache directory (omit: memory tier only)"
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=16,
        help="most pending requests one micro-batch flush takes",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=128,
        help="admission queue bound; beyond it requests get 429",
    )
    p_serve.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request budget in seconds (exceeded: 504)",
    )
    p_serve.add_argument(
        "--max-steps-cap", type=int, default=10_000_000,
        help="ceiling on client-requested interpreter steps",
    )
    p_serve.add_argument(
        "--save-every", type=int, default=0,
        help="persist the database every N ingests (0: only on drain)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; >1 boots a consistent-hash routing "
        "front door over N database shards",
    )
    p_serve.add_argument(
        "--trace-out", metavar="PATH",
        help="append tracing spans as JSONL here while the service runs",
    )
    p_serve.add_argument(
        "--calibration", metavar="PATH",
        help="load this calibration artifact: enables model=calibrated "
        "queries (ns units) and GET /calibration",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_call = sub.add_parser(
        "call", help="talk to a running profiling service"
    )
    p_call.add_argument("--host", default="127.0.0.1")
    p_call.add_argument("--port", type=int, default=8437)
    p_call.add_argument("--timeout", type=float, default=60.0)
    p_call.add_argument(
        "--retries", type=int, default=0,
        help="retry 429/503 responses this many times, honoring the "
        "server's retry_after_ms hint",
    )
    p_call.add_argument(
        "--backoff", type=float, default=0.05,
        help="base retry sleep in seconds (doubles per attempt)",
    )
    call_sub = p_call.add_subparsers(dest="endpoint", required=True)

    call_sub.add_parser("health", help="GET /healthz")
    call_sub.add_parser("metrics", help="GET /metrics")

    c_compile = call_sub.add_parser(
        "compile", help="compile a file on the service"
    )
    c_compile.add_argument("file")
    c_compile.add_argument("--key", help="register the source under this key")
    c_compile.add_argument(
        "--plan", choices=["smart", "naive"], default="smart"
    )
    c_compile.add_argument(
        "--verify", action="store_true",
        help="run the artifact verifier server-side",
    )

    c_profile = call_sub.add_parser(
        "profile", help="profile a file on the service"
    )
    c_profile.add_argument("file")
    c_profile.add_argument("--runs", type=int, default=1)
    c_profile.add_argument("--seed", type=int, default=0)
    c_profile.add_argument("--inputs", help="comma-separated INPUT() vector")
    c_profile.add_argument(
        "--plan", choices=["smart", "naive"], default="smart"
    )
    c_profile.add_argument("--verify", action="store_true")
    c_profile.add_argument(
        "--loop-variance", choices=sorted(_LOOP_VARIANCE), default="zero"
    )
    c_profile.add_argument(
        "--backend", choices=list(BACKENDS), default="auto",
    )
    c_profile.add_argument(
        "--ingest", metavar="KEY",
        help="also accumulate the result into the service database",
    )
    c_profile.add_argument(
        "--full", action="store_true",
        help="include the raw TOTAL_FREQ profile in the output",
    )

    c_ingest = call_sub.add_parser(
        "ingest",
        help="profile a file locally and POST the raw delta to the service",
    )
    c_ingest.add_argument("key", help="profile database key")
    c_ingest.add_argument("file")
    c_ingest.add_argument("--runs", type=int, default=1)
    c_ingest.add_argument("--seed", type=int, default=0)
    c_ingest.add_argument("--inputs", help="comma-separated INPUT() vector")

    c_query = call_sub.add_parser(
        "query", help="Definition-3 frequencies + variance for a key"
    )
    c_query.add_argument("key")
    c_query.add_argument(
        "--loop-variance", choices=sorted(_LOOP_VARIANCE), default="zero"
    )
    c_query.add_argument(
        "--model", choices=[*sorted(_MODELS), "calibrated"], default="scalar"
    )

    c_profiles = call_sub.add_parser(
        "profiles",
        help="GET /profiles — every key (sharded services merge all "
        "workers' slices)",
    )
    c_profiles.add_argument(
        "--analyze", action="store_true",
        help="include per-key Definition-3 analysis",
    )
    c_profiles.add_argument(
        "--raw", action="store_true",
        help="include each key's raw TOTAL_FREQ profile",
    )
    c_profiles.add_argument(
        "--loop-variance", choices=sorted(_LOOP_VARIANCE), default="zero"
    )
    c_profiles.add_argument(
        "--model", choices=[*sorted(_MODELS), "calibrated"], default="scalar"
    )

    call_sub.add_parser(
        "calibration",
        help="GET /calibration — the service's loaded calibration artifact",
    )

    c_chunks = call_sub.add_parser(
        "chunks",
        help="Kruskal-Weiss chunk-size advice for a key's profiled loops",
    )
    c_chunks.add_argument("key")
    c_chunks.add_argument("--processors", type=int, default=8)
    c_chunks.add_argument("--overhead", type=float, default=10.0)
    c_chunks.add_argument(
        "--model", choices=[*sorted(_MODELS), "calibrated"], default="scalar"
    )
    c_chunks.add_argument(
        "--loop-variance", choices=sorted(_LOOP_VARIANCE), default="profiled"
    )
    p_call.set_defaults(func=_cmd_call)

    p_trace = sub.add_parser(
        "trace",
        help="print a per-stage latency tree for one pipeline pass",
    )
    p_trace.add_argument(
        "file", help="minifort source file or built-in workload name"
    )
    p_trace.add_argument("--runs", type=int, default=1)
    p_trace.add_argument("--inputs", help="comma-separated INPUT() vector")
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument(
        "--plan", choices=["smart", "naive"], default="smart"
    )
    p_trace.add_argument("--model", choices=sorted(_MODELS), default="scalar")
    p_trace.add_argument(
        "--mode", choices=["counters", "paths"], default="counters",
        help="profiling instrumentation: Definition-3 counters or "
        "Ball–Larus path registers (default: counters)",
    )
    p_trace.add_argument(
        "--loop-variance", choices=sorted(_LOOP_VARIANCE), default="zero"
    )
    p_trace.add_argument(
        "--trace-out", metavar="PATH",
        help="also append the raw spans as JSONL here",
    )
    p_trace.add_argument(
        "--chrome-trace", metavar="PATH",
        help="also write the spans as a Chrome trace-event JSON file "
        "(load in Perfetto or chrome://tracing)",
    )
    p_trace.add_argument(
        "--dump-source", action="store_true",
        help="print the codegen backend's emitted Python source for "
        "the chosen plan and model instead of tracing a run",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_validate = sub.add_parser(
        "validate",
        help="measure wall clock, calibrate the cost model, score "
        "TIME/VAR predictions",
    )
    p_validate.add_argument(
        "files", nargs="*",
        help="minifort source files or built-in workload names",
    )
    p_validate.add_argument(
        "--builtin", action="store_true",
        help="measure every built-in workload",
    )
    p_validate.add_argument(
        "--only", metavar="NAMES",
        help="with --builtin: comma-separated subset of builtins",
    )
    p_validate.add_argument(
        "--generate", type=int, default=0, metavar="N",
        help="also measure N seeded generator programs",
    )
    p_validate.add_argument(
        "--gen-seed", type=int, default=1000,
        help="first generator seed (default 1000)",
    )
    p_validate.add_argument(
        "--command", dest="command_argv", nargs=argparse.REMAINDER,
        metavar="ARGV",
        help="measure an arbitrary external command instead of programs "
        "(everything after --command is the argv)",
    )
    p_validate.add_argument(
        "--trials", type=int, default=5,
        help="timed runs per subject (default 5)",
    )
    p_validate.add_argument(
        "--warmup", type=int, default=2,
        help="discarded warmup runs per subject (default 2)",
    )
    p_validate.add_argument(
        "--backend", choices=list(BACKENDS), default="auto",
        help="execution engine for the timed runs (default: auto)",
    )
    p_validate.add_argument("--seed", type=int, default=0)
    p_validate.add_argument(
        "--inputs", help="fixed comma-separated INPUT() vector"
    )
    p_validate.add_argument(
        "--input-dist",
        choices=["constant", "poisson", "geometric", "uniform"],
        help="draw per-trial INPUT() vectors from this Section-5 "
        "trip-count distribution instead of fixed --inputs",
    )
    p_validate.add_argument(
        "--input-mean", type=float, default=8.0,
        help="mean of the --input-dist draws (default 8)",
    )
    p_validate.add_argument(
        "--input-count", type=int, default=1,
        help="entries per drawn INPUT() vector (default 1)",
    )
    p_validate.add_argument(
        "--max-steps", type=int, default=10_000_000, help=_MAX_STEPS_HELP
    )
    p_validate.add_argument(
        "--calibrate", metavar="OUT",
        help="fit the cost model against the measurements and save the "
        "calibration artifact here (needs >= 9 subjects)",
    )
    p_validate.add_argument(
        "--calibration", metavar="PATH",
        help="load this calibration artifact and score its TIME/VAR "
        "predictions against the measurements",
    )
    p_validate.add_argument(
        "--ridge", type=float, default=1e-9,
        help="ridge damping for the calibration fit",
    )
    p_validate.add_argument(
        "--json", metavar="PATH",
        help="write measurements/calibration/scores as JSON "
        "('-' for stdout)",
    )
    p_validate.add_argument(
        "--trace-out", metavar="PATH",
        help="append validate.* tracing spans as JSONL here",
    )
    p_validate.set_defaults(func=_cmd_validate)

    p_plan = sub.add_parser(
        "plan", help="show counter placement plans (smart vs naive)"
    )
    p_plan.add_argument("file")
    p_plan.add_argument("--proc", help="only this procedure")
    p_plan.add_argument(
        "--naive", action="store_true", help="show the naive plan instead"
    )
    p_plan.set_defaults(func=_cmd_plan)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
