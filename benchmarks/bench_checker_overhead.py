"""Verifier overhead: full artifact verification vs compilation.

The cache re-verifies every disk hit and CI re-checks the whole
corpus, so the verifier must stay cheap relative to the work it
guards.  This benchmark times, over the Livermore corpus (the paper's
LOOPS benchmark) plus a slice of generator programs:

* ``compile``      — ``compile_source`` + both counter plans (the work
  a cache miss performs and a disk hit avoids);
* ``verify``       — structural checks + plan checks over those
  artifacts (the work a verified disk hit adds);
* ``lint``         — the REP3xx source lints (only ``repro check``
  pays this).

Acceptance: verification costs < 15 % of compile-and-plan time,
summed over the corpus (ratio of the summed leg means).
"""

from __future__ import annotations

from repro import compile_source, naive_program_plan, smart_program_plan
from repro.checker import lint_program, verify_program
from repro.report import format_table

from conftest import (
    enforce, front_end_corpus, gate, interleaved, ms, publish, record,
)

REPEATS = 5
_OVERHEAD_CEILING = 0.15


def _compile_and_plan(source: str) -> None:
    program = compile_source(source)
    smart_program_plan(program)
    naive_program_plan(program)


def test_checker_overhead():
    rows = []
    layers = {}
    totals = dict.fromkeys(("compile", "checker.verify", "checker.lint"), 0.0)
    for program_id, source in front_end_corpus():
        program = compile_source(source)
        plans = {
            "smart": smart_program_plan(program),
            "naive": naive_program_plan(program),
        }
        assert not verify_program(program, plans).diagnostics
        legs = interleaved(
            {
                "compile": lambda _i: _compile_and_plan(source),
                "checker.verify": lambda _i: verify_program(program, plans),
                "checker.lint": (
                    lambda _i: lint_program(program.checked, program.cfgs)
                ),
            },
            trials=REPEATS,
        )
        for stage, measurement in legs.items():
            totals[stage] += measurement.mean_ns
            layers[f"{stage}.{program_id}"] = measurement
        ratio = legs["checker.verify"].mean_ns / legs["compile"].mean_ns
        rows.append(
            [program_id, *map(ms, legs.values()), f"{100 * ratio:.1f}%"]
        )

    overhead = totals["checker.verify"] / totals["compile"]
    rows.append(
        ["TOTAL", *(f"{t / 1e6:.2f}" for t in totals.values()),
         f"{100 * overhead:.1f}%"]
    )
    publish(
        "checker_overhead",
        format_table(
            ["program", "compile+plans ms", "verify ms", "lint ms",
             "verify/compile"],
            rows,
            title=(
                "artifact verification overhead "
                f"(mean ± 95% CI of {REPEATS} interleaved trials, "
                f"ceiling {100 * _OVERHEAD_CEILING:.0f}%)"
            ),
        ),
    )
    enforce(
        record(
            "checker",
            end_to_end={
                "checker.verify_over_compile": gate(
                    overhead, _OVERHEAD_CEILING, "lower"
                )
            },
            layers=layers,
        )
    )
