"""Path-register cost vs the Section 3 counter ladder.

A Ball–Larus path register answers strictly more than edge counters —
it records *which* acyclic paths ran, and Definition-3 frequencies
reconstruct from the spectrum bit-for-bit — but it pays for that with
a register update on every nonzero-increment edge plus a two-update
flush per back edge.  This benchmark quantifies the price in the
paper's own currency (dynamic counter-update operations, Section 3.3)
against the full counter-placement ladder (naive, Opt 1, Opt 1+2,
Opt 1+2+3) on the paper example, the Livermore kernel and a seeded
generator-corpus composite, and measures the wall-clock overhead of
path mode vs counter mode on both execution engines (reference and
codegen).

Emits a human table plus machine-readable
``benchmarks/results/BENCH_paths.json``.

Gate: ``PATHS_GATE`` (1.5) — on the codegen backend,
aggregate path-profiled wall time must stay within that factor of
aggregate counter-profiled (smart plan) wall time across the gated
cells.  The fused lowering makes path mode a handful of ``r += k`` /
``paths[r] += 1.0`` statements per iteration, so it should ride close
to counter mode, not multiples of it.
"""

from __future__ import annotations

from repro import (
    SCALAR_MACHINE, compile_source, run_program, smart_program_plan,
)
from repro.paths import PathExecutor, path_program_plan
from repro.profiling import PlanExecutor
from repro.report import format_table
from repro.workloads.generators import ProgramGenerator

from conftest import (
    BACKENDS,
    GATED_WORKLOADS,
    LADDER,
    enforce,
    gate,
    ladder_counts,
    ms,
    publish,
    record,
    time_cell,
)

REPS = 5

N_GENERATORS = 15
GEN_MAX_STEPS = 300_000

#: Codegen path-mode wall time may be at most this factor of
#: counter-mode (smart plan) wall time over the gated cells.
PATHS_GATE = 1.5

MODES = ("counters", "paths")


def _ladder_updates(items):
    """Dynamic update ops per ladder level and for the path register.

    ``items`` is ``[(program, run_kwargs), ...]``; each cell sums the
    whole composite.  Also returns the static site counts (counters
    placed vs path-register update sites emitted).
    """
    updates = dict.fromkeys([level for level, _ in LADDER] + ["paths"], 0)
    sites = dict(updates)
    for program, kwargs in items:
        for level, (counters, n) in ladder_counts(program, **kwargs).items():
            updates[level] += n
            sites[level] += counters
        path_plan = path_program_plan(program)
        path_executor = PathExecutor(path_plan)
        run_program(program, hooks=path_executor, **kwargs)
        path_executor.finalize_run()
        updates["paths"] += path_executor.updates
        sites["paths"] += path_plan.n_sites
    return updates, sites


def _time_cell(items):
    """Time one workload on every (backend, mode) leg, interleaved."""
    counter_plans = [smart_program_plan(program) for program, _ in items]
    path_plans = [path_program_plan(program) for program, _ in items]
    new_hooks = {
        "counters": lambda: [PlanExecutor(plan) for plan in counter_plans],
        "paths": lambda: [PathExecutor(plan) for plan in path_plans],
    }
    cell, _last, _steps = time_cell(
        items,
        {
            f"{backend}.{mode}": (
                new_hooks[mode],
                {"model": SCALAR_MACHINE, "backend": backend},
            )
            for backend in BACKENDS
            for mode in MODES
        },
        trials=REPS,
    )
    return cell


def test_path_profiling_cost(paper_program, loops_program):
    generators = [
        (
            compile_source(ProgramGenerator(seed).source()),
            {"seed": 7919 * (seed + 1), "max_steps": GEN_MAX_STEPS},
        )
        for seed in range(N_GENERATORS)
    ]
    workloads = {
        "paper": [(paper_program, {})],
        "livermore": [(loops_program, {})],
        "generators": generators,
    }

    update_rows = []
    wall_rows = []
    ladder = {}
    layers = {}
    gated = {mode: 0.0 for mode in MODES}
    for name, items in workloads.items():
        updates, sites = _ladder_updates(items)
        ladder[name] = updates
        update_rows.append(
            [name]
            + [updates[level] for level, _ in LADDER]
            + [updates["paths"]]
            + [sites["opt1+2+3"], sites["paths"]]
        )
        cell = _time_cell(items)
        for leg, measurement in cell.items():
            layers[f"exec.{leg}.{name}"] = measurement
        if name in GATED_WORKLOADS:
            for mode in MODES:
                gated[mode] += cell[f"codegen.{mode}"].mean_ns
        overhead = (
            cell["codegen.paths"].mean_ns / cell["codegen.counters"].mean_ns
        )
        wall_rows.append(
            [name]
            + [
                ms(cell[f"{backend}.{mode}"])
                for backend in BACKENDS
                for mode in MODES
            ]
            + [f"{overhead:.2f}x"]
        )

    aggregate = gated["paths"] / gated["counters"]
    update_table = format_table(
        ["workload", "naive", "opt1", "opt1+2", "opt1+2+3", "paths",
         "smart sites", "path sites"],
        update_rows,
        title="dynamic counter-update operations: "
        "Section 3 ladder vs Ball–Larus path register",
    )
    wall_table = format_table(
        ["workload"]
        + [
            f"{backend[:4]} {mode[:4]} ms"
            for backend in BACKENDS
            for mode in MODES
        ]
        + ["codegen ovh"],
        wall_rows,
        title=f"wall-clock per backend, counter vs path mode "
        f"(mean ± 95% CI of {REPS} interleaved trials, scalar model); "
        f"gated codegen aggregate {aggregate:.2f}x (gate {PATHS_GATE:.1f}x)",
    )
    publish("path_profiling_cost", update_table + "\n\n" + wall_table)

    # Shape: the fully optimized counter plan stays the cheapest way
    # to measure Definition 3 — path registers pay extra updates for
    # the extra information.  Structurally a path register costs about
    # what the un-dropped per-condition placement (Opt 1) costs: its
    # increments live on a subset of the condition edges and each back
    # edge adds a two-update flush, so it must track that ladder rung
    # closely rather than the per-block naive plan (which DO-dominated
    # code makes artificially cheap: one bump covers a whole block).
    for name, updates in ladder.items():
        assert updates["opt1+2+3"] <= updates["paths"], (name, updates)
        assert updates["paths"] <= 1.1 * updates["opt1"], (name, updates)
    enforce(
        record(
            "paths",
            end_to_end={
                "paths.codegen_paths_over_counters": gate(
                    aggregate, PATHS_GATE, "lower"
                )
            },
            layers=layers,
            backend=",".join(BACKENDS),
        )
    )
