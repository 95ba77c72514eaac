"""Ablation of the three profiling optimizations (Section 3).

For each workload, counts static counters and dynamic counter-update
operations under: naive (per basic block), Opt 1 (one counter per
control condition), Opt 1+2 (sum-constraint drops) and Opt 1+2+3
(DO-loop batching) — quantifying each optimization's contribution,
which the paper reports only in aggregate ("smart" vs "naive").

Shape: counters and updates decrease (weakly) monotonically along the
ladder, and the full smart plan beats naive on both metrics.
"""

from __future__ import annotations

from repro import compile_source
from repro.report import format_table
from repro.workloads.unstructured import STATE_MACHINE, TWO_EXIT_LOOP

from conftest import ladder_counts, publish


def test_counter_ablation(loops_program, simple_program):
    workloads = [
        ("LOOPS", loops_program, {}),
        ("SIMPLE", simple_program, {}),
        ("TWO_EXIT", compile_source(TWO_EXIT_LOOP), {"seed": 1}),
        ("STATE_MACHINE", compile_source(STATE_MACHINE), {"seed": 1}),
    ]
    per_workload = {
        name: ladder_counts(program, **run_kwargs)
        for name, program, run_kwargs in workloads
    }
    publish(
        "counter_ablation",
        format_table(
            ["workload", "plan", "counters", "dynamic updates"],
            [
                [name, level, counters, updates]
                for name, levels in per_workload.items()
                for level, (counters, updates) in levels.items()
            ],
            title="Counter-placement ablation (Section 3 optimizations)",
        ),
    )
    for name, levels in per_workload.items():
        # Opt 1 alone already beats naive on counters for loopy code;
        # each further optimization must not regress either metric.
        assert levels["opt1+2"][0] <= levels["opt1"][0], name
        assert levels["opt1+2+3"][0] <= levels["opt1+2"][0], name
        assert levels["opt1+2"][1] <= levels["opt1"][1], name
        assert levels["opt1+2+3"][1] <= levels["opt1+2"][1], name
        # The paper's headline: smart < naive on both metrics.
        assert levels["opt1+2+3"][0] <= levels["naive"][0], name
        assert levels["opt1+2+3"][1] <= levels["naive"][1], name


def test_do_batching_dominates_on_loops(loops_program):
    """Opt 3 is the big win on DO-loop-dominated code (LOOPS)."""
    levels = ladder_counts(loops_program)
    without, with_batch = levels["opt1+2"][1], levels["opt1+2+3"][1]
    assert with_batch < without / 2, (
        f"DO batching should halve updates on LOOPS: {without} -> {with_batch}"
    )
