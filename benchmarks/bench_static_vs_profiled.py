"""Compile-time analysis vs execution profiles (Section 3's opening).

"We believe that program analysis is feasible for only a few
restricted cases ... and should be complemented by execution profile
information wherever compile-time analysis is unsuccessful."

This benchmark quantifies that belief: TIME(START) estimated from

* a purely static profile (constant folding + heuristics),
* a measured profile,
* the hybrid (measured where executed, static elsewhere),

compared against ground-truth measured cost, on workloads ranging from
fully static (LOOPS: constant-trip DO loops) to data-driven (SIMPLE's
branches, GOTO search loops).
"""

from __future__ import annotations

from repro import (
    SCALAR_MACHINE,
    analyze,
    compile_source,
    oracle_program_profile,
    run_program,
)
from repro.analysis import hybrid_profile, static_profile
from repro.report import format_table
from repro.workloads.unstructured import STATE_MACHINE, TWO_EXIT_LOOP

from conftest import publish


def _evaluate(program, run_specs):
    measured_cost = sum(
        run_program(program, model=SCALAR_MACHINE, **spec).total_cost
        for spec in run_specs
    ) / len(run_specs)
    measured = oracle_program_profile(program, runs=run_specs)
    static = static_profile(program)
    hybrid = hybrid_profile(program, measured)

    def err(profile):
        estimate = analyze(program, profile, SCALAR_MACHINE).total_time
        return estimate, abs(estimate - measured_cost) / measured_cost

    static_time, static_err = err(static)
    profiled_time, profiled_err = err(measured)
    hybrid_time, hybrid_err = err(hybrid)
    return {
        "truth": measured_cost,
        "static": (static_time, static_err),
        "profiled": (profiled_time, profiled_err),
        "hybrid": (hybrid_time, hybrid_err),
    }


def test_static_vs_profiled(loops_program, simple_program):
    results = {
        "LOOPS": _evaluate(loops_program, [{}]),
        "SIMPLE": _evaluate(simple_program, [{}]),
        "TWO_EXIT": _evaluate(
            compile_source(TWO_EXIT_LOOP), [{"seed": s} for s in range(5)]
        ),
        "STATE_MACHINE": _evaluate(
            compile_source(STATE_MACHINE), [{"seed": s} for s in range(5)]
        ),
    }

    rows = []
    for name, data in results.items():
        rows.append(
            [
                name,
                data["truth"],
                data["static"][0],
                f"{100 * data['static'][1]:.1f}%",
                f"{100 * data['profiled'][1]:.2g}%",
                f"{100 * data['hybrid'][1]:.2g}%",
            ]
        )
    publish(
        "static_vs_profiled",
        format_table(
            ["program", "measured", "static TIME", "static err",
             "profiled err", "hybrid err"],
            rows,
            title=(
                "TIME estimation error: compile-time analysis vs "
                "execution profiles"
            ),
        ),
    )

    # Profiled estimates are exact everywhere.
    for name, data in results.items():
        assert data["profiled"][1] < 1e-9, name
        assert data["hybrid"][1] < 1e-9, name  # everything executed

    # Static analysis is competitive on constant-control code …
    assert results["LOOPS"]["static"][1] < 0.40
    # … but the data-driven loops can be badly misestimated, which is
    # the paper's argument for profiles.
    worst = max(data["static"][1] for data in results.values())
    assert worst > 0.40