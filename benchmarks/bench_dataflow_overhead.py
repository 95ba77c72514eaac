"""Dataflow-solver overhead: the four analyses vs compilation.

`repro check` runs reaching definitions, liveness, SCCP and value
ranges on every procedure, and the static bounds solve them again — so
the solver must stay cheap relative to the compile work it rides on.  This benchmark times, over the Livermore corpus plus a
slice of generator programs:

* ``compile``   — ``compile_source`` + both counter plans + lowering
  the codegen backend (``emitted_source()`` emits and ``compile()``s
  the base variant): everything ``repro run`` pays before the first
  statement executes, and a subset of what ``repro check`` pays (its
  REP405 audit lowers *two* variants);
* ``dataflow``  — ``analyze_procedure`` (all four fixpoints) over
  every procedure, including the interprocedural ``param_summaries``
  pass.

Acceptance: the dataflow sweep costs < 20 % of compile time, summed
over the corpus (ratio of the summed leg means).  Besides the usual
results table this benchmark emits
``benchmarks/results/BENCH_dataflow.json`` with every per-program leg
as a layer, for CI trending.
"""

from __future__ import annotations

from repro import compile_source, naive_program_plan, smart_program_plan
from repro.codegen import codegen_backend_for
from repro.dataflow import analyze_procedure, param_summaries
from repro.report import format_table

from conftest import (
    enforce, front_end_corpus, gate, interleaved, ms, publish, record,
)

REPEATS = 7
_OVERHEAD_CEILING = 0.20


def _compile_and_lower(source: str) -> None:
    program = compile_source(source)
    smart_program_plan(program)
    naive_program_plan(program)
    codegen_backend_for(program).emitted_source()


def _dataflow_sweep(program) -> None:
    summaries = param_summaries(program.checked)
    for name, cfg in program.cfgs.items():
        analyze_procedure(
            program.checked, name, cfg, summaries=summaries
        )


def test_dataflow_overhead():
    rows = []
    layers = {}
    totals = dict.fromkeys(("compile", "dataflow"), 0.0)
    for program_id, source in front_end_corpus():
        program = compile_source(source)
        legs = interleaved(
            {
                "compile": lambda _i: _compile_and_lower(source),
                "dataflow": lambda _i: _dataflow_sweep(program),
            },
            trials=REPEATS,
        )
        for stage, measurement in legs.items():
            totals[stage] += measurement.mean_ns
            layers[f"{stage}.{program_id}"] = measurement
        ratio = legs["dataflow"].mean_ns / legs["compile"].mean_ns
        rows.append(
            [program_id, len(program.cfgs), *map(ms, legs.values()),
             f"{100 * ratio:.1f}%"]
        )

    overhead = totals["dataflow"] / totals["compile"]
    rows.append(
        ["TOTAL", "", *(f"{t / 1e6:.2f}" for t in totals.values()),
         f"{100 * overhead:.1f}%"]
    )
    publish(
        "dataflow_overhead",
        format_table(
            ["program", "procs", "compile+lower ms", "dataflow ms",
             "dataflow/compile"],
            rows,
            title=(
                "dataflow solver overhead "
                f"(mean ± 95% CI of {REPEATS} interleaved trials, "
                f"ceiling {100 * _OVERHEAD_CEILING:.0f}%)"
            ),
        ),
    )
    enforce(
        record(
            "dataflow",
            end_to_end={
                "dataflow.over_compile": gate(
                    overhead, _OVERHEAD_CEILING, "lower"
                )
            },
            layers=layers,
        )
    )
