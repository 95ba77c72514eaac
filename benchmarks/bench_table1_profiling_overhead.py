"""Table 1 — sequential execution times with and without profiling.

The paper measured LOOPS and SIMPLE on an IBM 3090 (VS Fortran),
original vs "smart" vs "naive" profiling, with compiler optimization
ON and OFF.  Here the same three configurations run on the cycle
model's two machines; the wall-clock of the instrumented interpreter
is additionally measured (mean ± 95% CI) into ``BENCH_table1.json``.

Shape to reproduce: smart overhead < naive overhead, both small, and
the *relative* profiling overhead larger on the optimized machine
(counter updates do not optimize away).
"""

from __future__ import annotations

import os

import pytest

from repro import (
    OPTIMIZING_MACHINE,
    SCALAR_MACHINE,
    naive_program_plan,
    run_program,
    smart_program_plan,
)
from repro.profiling import PlanExecutor
from repro.report import format_table
from repro.validate.measure import measure_callable

from conftest import publish, record

WALL_CLOCK_TRIALS = 10


def _measure(program, model):
    """(original, smart, naive) total cycles for one run each."""
    original = run_program(program, model=model).total_cost
    smart_exec = PlanExecutor(smart_program_plan(program))
    smart = run_program(
        program, model=model, hooks=smart_exec
    ).cost_with_profiling
    naive_exec = PlanExecutor(naive_program_plan(program))
    naive = run_program(
        program, model=model, hooks=naive_exec
    ).cost_with_profiling
    return original, smart, naive


def _table1(programs):
    rows = []
    shape_ok = True
    overheads = {}
    for prog_name, program in programs:
        for model in (OPTIMIZING_MACHINE, SCALAR_MACHINE):
            original, smart, naive = _measure(program, model)
            smart_ovh = (smart - original) / original
            naive_ovh = (naive - original) / original
            overheads[(prog_name, model.name)] = (smart_ovh, naive_ovh)
            rows.append(
                [
                    prog_name,
                    "ON" if model is OPTIMIZING_MACHINE else "OFF",
                    original,
                    smart,
                    naive,
                    f"{100 * smart_ovh:.2f}%",
                    f"{100 * naive_ovh:.2f}%",
                ]
            )
            shape_ok &= original <= smart < naive
            shape_ok &= smart_ovh < naive_ovh
    # Relative overhead larger with optimization ON (paper's effect).
    for prog_name, _ in programs:
        on = overheads[(prog_name, OPTIMIZING_MACHINE.name)]
        off = overheads[(prog_name, SCALAR_MACHINE.name)]
        shape_ok &= on[0] > off[0] and on[1] > off[1]
    table = format_table(
        ["program", "opt", "original", "smart", "naive",
         "smart ovh", "naive ovh"],
        rows,
        title=(
            "Table 1: execution cycles with and without profiling "
            "(LOOPS / SIMPLE, optimization ON and OFF)"
        ),
    )
    return table, shape_ok


def test_table1_cycle_model(loops_program, simple_program):
    programs = [("LOOPS", loops_program), ("SIMPLE", simple_program)]
    table, shape_ok = _table1(programs)
    publish("table1_profiling_overhead", table)
    assert shape_ok, "Table 1 shape violated:\n" + table


def test_table1_wall_clock(loops_program, simple_program):
    """Wall-clock analog of Table 1's rows: each configuration's
    interpreter run, recorded as a layer (no gate)."""
    layers = {}
    for prog_name, program in (("loops", loops_program),
                               ("simple", simple_program)):
        for config, plan in (
            ("original", None),
            ("smart", smart_program_plan(program)),
            ("naive", naive_program_plan(program)),
        ):
            hooks = PlanExecutor(plan) if plan is not None else None
            label = f"exec.{prog_name}.{config}"
            layers[label] = measure_callable(
                lambda _trial: run_program(
                    program, model=SCALAR_MACHINE, hooks=hooks
                ),
                trials=WALL_CLOCK_TRIALS,
                warmup=1,
                label=label,
            )
    record("table1", layers=layers)


def test_overhead_independent_of_problem_size():
    """Relative profiling overhead is a property of the *code*, not
    the problem size — the reason Table 1's percentages generalize
    beyond the paper's particular inputs."""
    from repro import compile_source
    from repro.workloads.livermore import livermore_source

    overheads = []
    for n in (24, 48, 96):
        program = compile_source(livermore_source(n=n, n2=4))
        original, smart, _ = _measure(program, SCALAR_MACHINE)
        overheads.append((smart - original) / original)
    spread = max(overheads) - min(overheads)
    assert spread < 0.01, overheads  # percentages stay put as N grows


@pytest.mark.skipif(
    not os.environ.get("REPRO_FULLSIZE"),
    reason="paper-size SIMPLE (100x100, NCYCLES=10) takes minutes; "
    "set REPRO_FULLSIZE=1 to include it",
)
def test_table1_paper_size():
    """Table 1 at the paper's stated SIMPLE configuration."""
    from repro import compile_source
    from repro.workloads.simple_cfd import simple_source

    program = compile_source(simple_source(n=100, ncycles=10))
    original, smart, naive = _measure(program, SCALAR_MACHINE)
    assert original <= smart < naive
