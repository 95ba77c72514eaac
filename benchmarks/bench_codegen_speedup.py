"""Codegen-backend speedup over the reference interpreter.

The tentpole claim of the codegen backend: emitting each checked CFG
once as plain Python source — native ``while`` loops, locals, folded
constants, fused straight-line blocks, counter bumps as direct
``slots[i] += 1.0`` adds — makes runs ≥10x faster than the
tree-walking reference interpreter in *aggregate* over the
Livermore/generator corpus, while staying bit-identical.  This
benchmark measures the ratio across plain, costed and profiled modes
and emits a human table plus machine-readable
``benchmarks/results/BENCH_codegen.json``.

Gate (applied to the aggregate = total reference time / total codegen
time across the gated Livermore/generator cells; the `paper`/`simple`
cells are reported but ungated — they are per-run-latency
microbenchmarks, not throughput workloads):

* ``REPRO_CODEGEN_GATE`` — vs reference, default 10.0 (CI uses 6.0 as
  a jitter margin).
"""

from __future__ import annotations

import json
import os
import time

from repro import SCALAR_MACHINE, compile_source, smart_program_plan
from repro.pipeline import run_program
from repro.profiling import PlanExecutor
from repro.report import format_table
from repro.workloads.generators import ProgramGenerator

from conftest import RESULTS_DIR, publish

REPS = 5

#: Iterate tiny workloads inside one timing sample so a 61-step
#: program is not measured against clock granularity and noise.
TARGET_STEPS_PER_SAMPLE = 40_000

#: The generator-corpus composite: these programs run back to back
#: inside one timing sample, like a batch-engine sweep would.
N_GENERATORS = 20
GEN_MAX_STEPS = 300_000

BACKENDS = ("reference", "codegen")

#: The speedup claim is over the Livermore/generator corpus; the
#: tiny `paper` fixture (61 steps per run, structured like every
#: procedure) and `simple` ride along for visibility but measure
#: per-run latency more than execution throughput, so they are not
#: gated.
GATED_WORKLOADS = frozenset({"livermore", "generators"})

#: (mode name, costed, profiled) — plain interpretation, cost
#: accounting, and full §3 counter profiling with the smart plan.
MODES = (
    ("plain", False, False),
    ("costed", True, False),
    ("profiled", True, True),
)


def _comparable(result):
    return (
        result.halted,
        result.steps,
        result.outputs,
        result.total_cost,
        result.counter_ops,
        result.counter_cost,
        result.node_counts,
        result.edge_counts,
        result.call_counts,
    )


def _time_cell(items, backend, *, costed, profiled):
    """Best-of-REPS total wall time for one (workload, mode) cell.

    ``items`` is a list of ``(program, plan, run_kwargs)``; every
    program in the cell runs back to back each iteration.  Returns
    ``(seconds, steps, observations)`` where ``observations`` pins the
    full comparable state (results + final counter arrays) so a
    speedup only counts when the answers are identical.
    """
    model = SCALAR_MACHINE if costed else None
    plans = [plan if profiled else None for _program, plan, _kw in items]
    # One iteration executes the whole cell back to back (a composite
    # cell behaves like one batch sweep, not N independent loops), and
    # the iteration count amortizes clock granularity for small cells.
    cell_steps = sum(
        run_program(program, backend=backend, **kwargs).steps
        for program, _plan, kwargs in items
    )
    count = max(1, TARGET_STEPS_PER_SAMPLE // max(1, cell_steps))
    iterations = [count] * len(items)
    best = float("inf")
    observations = None
    steps = 0
    for _ in range(REPS):
        hooks = [
            PlanExecutor(plan) if plan is not None else None
            for plan in plans
        ]
        results = [None] * len(items)
        start = time.perf_counter()
        for index, (program, _plan, kwargs) in enumerate(items):
            for _ in range(iterations[index]):
                results[index] = run_program(
                    program,
                    hooks=hooks[index],
                    model=model,
                    backend=backend,
                    **kwargs,
                )
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
            steps = sum(
                result.steps * n for result, n in zip(results, iterations)
            )
            observations = [
                (
                    _comparable(result),
                    executor.counters if executor is not None else None,
                    executor.updates if executor is not None else None,
                )
                for result, executor in zip(results, hooks)
            ]
    return best, steps, observations


def test_codegen_speedup(paper_program, loops_program, simple_program):
    gate = float(os.environ.get("REPRO_CODEGEN_GATE", "10.0"))

    def suite(program, **kwargs):
        return [(program, smart_program_plan(program), kwargs)]

    generators = [
        compile_source(ProgramGenerator(seed).source())
        for seed in range(N_GENERATORS)
    ]
    workloads = {
        "paper": suite(paper_program),
        "livermore": suite(loops_program),
        "simple": suite(simple_program),
        "generators": [
            (
                program,
                smart_program_plan(program),
                {"seed": 7919 * (seed + 1), "max_steps": GEN_MAX_STEPS},
            )
            for seed, program in enumerate(generators)
        ],
    }

    rows = []
    records = {}
    totals = {backend: 0.0 for backend in BACKENDS}
    gated_totals = {backend: 0.0 for backend in BACKENDS}
    for name, items in workloads.items():
        record = {}
        for mode, costed, profiled in MODES:
            times = {}
            observed = {}
            for backend in BACKENDS:
                times[backend], steps, observed[backend] = _time_cell(
                    items, backend, costed=costed, profiled=profiled
                )
                totals[backend] += times[backend]
                if name in GATED_WORKLOADS:
                    gated_totals[backend] += times[backend]
            # The speedup only counts if the answers are identical.
            assert observed["codegen"] == observed["reference"], (
                name, mode,
            )
            speedup = times["reference"] / times["codegen"]
            record[mode] = {
                "reference_seconds": times["reference"],
                "codegen_seconds": times["codegen"],
                "speedup_vs_reference": speedup,
                "steps": steps,
                "codegen_steps_per_second": steps / times["codegen"],
            }
            rows.append(
                [
                    name,
                    mode,
                    steps,
                    f"{times['reference'] * 1e3:.1f}",
                    f"{times['codegen'] * 1e3:.1f}",
                    f"{speedup:.2f}x",
                ]
            )
        records[name] = record

    aggregate = gated_totals["reference"] / gated_totals["codegen"]
    all_aggregate = totals["reference"] / totals["codegen"]
    rows.append(
        [
            "corpus (gated)",
            "all",
            "",
            f"{gated_totals['reference'] * 1e3:.1f}",
            f"{gated_totals['codegen'] * 1e3:.1f}",
            f"{aggregate:.2f}x",
        ]
    )
    rows.append(
        [
            "everything",
            "all",
            "",
            f"{totals['reference'] * 1e3:.1f}",
            f"{totals['codegen'] * 1e3:.1f}",
            f"{all_aggregate:.2f}x",
        ]
    )
    table = format_table(
        [
            "workload",
            "mode",
            "steps",
            "reference ms",
            "codegen ms",
            "vs reference",
        ],
        rows,
        title=f"codegen backend vs reference (best of {REPS}, scalar model)",
    )
    publish("codegen_speedup", table)

    payload = {
        "benchmark": "bench_codegen_speedup",
        "reps": REPS,
        "model": "scalar",
        "generators": N_GENERATORS,
        "gated_workloads": sorted(GATED_WORKLOADS),
        "gate_vs_reference": gate,
        "aggregate_speedup_vs_reference": aggregate,
        "all_workloads_speedup_vs_reference": all_aggregate,
        "workloads": records,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_codegen.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    assert aggregate >= gate, (
        f"codegen aggregate speedup {aggregate:.2f}x below the "
        f"{gate:.1f}x gate vs reference"
    )
