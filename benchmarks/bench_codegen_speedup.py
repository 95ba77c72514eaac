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

import os

from repro import SCALAR_MACHINE, compile_source, smart_program_plan
from repro.profiling import PlanExecutor
from repro.report import format_table
from repro.workloads.generators import ProgramGenerator

from conftest import (
    BACKENDS,
    GATED_WORKLOADS,
    enforce,
    gate,
    ms,
    publish,
    record,
    time_cell,
)

REPS = 5

#: The generator-corpus composite: these programs run back to back
#: inside one timing sample, like a batch-engine sweep would.
N_GENERATORS = 20
GEN_MAX_STEPS = 300_000

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


def _time_cell(items, *, costed, profiled):
    """Time one (workload, mode) cell on both backends, interleaved.

    Returns ``(measurements, steps)``.  The full comparable state
    (results + final counter arrays) of both backends must be
    identical: a speedup only counts when the answers are.
    """
    model = SCALAR_MACHINE if costed else None
    plans = [smart_program_plan(p) if profiled else None for p, _ in items]

    def new_hooks():
        return [PlanExecutor(p) if p is not None else None for p in plans]

    cell, last, steps = time_cell(
        items,
        {b: (new_hooks, {"model": model, "backend": b}) for b in BACKENDS},
        trials=REPS,
    )
    observed = {
        backend: [
            (
                _comparable(result),
                executor.counters if executor is not None else None,
                executor.updates if executor is not None else None,
            )
            for result, executor in zip(*last[backend])
        ]
        for backend in BACKENDS
    }
    assert observed["codegen"] == observed["reference"]
    return cell, steps


def test_codegen_speedup(paper_program, loops_program, simple_program):
    limit = float(os.environ.get("REPRO_CODEGEN_GATE", "10.0"))

    generators = [
        compile_source(ProgramGenerator(seed).source())
        for seed in range(N_GENERATORS)
    ]
    workloads = {
        "paper": [(paper_program, {})],
        "livermore": [(loops_program, {})],
        "simple": [(simple_program, {})],
        "generators": [
            (program, {"seed": 7919 * (seed + 1), "max_steps": GEN_MAX_STEPS})
            for seed, program in enumerate(generators)
        ],
    }

    rows = []
    layers = {}
    totals = {backend: 0.0 for backend in BACKENDS}
    gated_totals = {backend: 0.0 for backend in BACKENDS}
    for name, items in workloads.items():
        for mode, costed, profiled in MODES:
            cell, steps = _time_cell(items, costed=costed, profiled=profiled)
            for backend, measurement in cell.items():
                layers[f"exec.{backend}.{name}.{mode}"] = measurement
                totals[backend] += measurement.mean_ns
                if name in GATED_WORKLOADS:
                    gated_totals[backend] += measurement.mean_ns
            speedup = cell["reference"].mean_ns / cell["codegen"].mean_ns
            rows.append(
                [
                    name,
                    mode,
                    steps,
                    ms(cell["reference"]),
                    ms(cell["codegen"]),
                    f"{speedup:.2f}x",
                ]
            )

    aggregate = gated_totals["reference"] / gated_totals["codegen"]
    all_aggregate = totals["reference"] / totals["codegen"]
    for label, sums, ratio in (
        ("corpus (gated)", gated_totals, aggregate),
        ("everything", totals, all_aggregate),
    ):
        rows.append(
            [
                label,
                "all",
                "",
                f"{sums['reference'] / 1e6:.1f}",
                f"{sums['codegen'] / 1e6:.1f}",
                f"{ratio:.2f}x",
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
        title=(
            f"codegen backend vs reference (mean ± 95% CI of {REPS} "
            "interleaved trials, scalar model)"
        ),
    )
    publish("codegen_speedup", table)
    enforce(
        record(
            "codegen",
            end_to_end={
                "codegen.speedup_vs_reference": gate(
                    aggregate, limit, "higher"
                )
            },
            layers=layers,
            backend=",".join(BACKENDS),
        )
    )
