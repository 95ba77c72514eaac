"""Counter-update cost accounting (paper §3.3), pinned across backends.

§3.3 charges profiling overhead per *counter update*: an Opt-3 batch
counter adds the whole trip count in **one** update at the DO_INIT, so
a thousand-iteration loop costs one `counter_update`, not a thousand.
These tests pin `counter_ops`/`counter_cost` to exact values on both
engines — reference and codegen — so a regression in any
accounting (charging per iteration, or per batch entry instead of per
add) cannot land silently.  For the codegen backend the *emitted
source* is audited too: the number of distinct bump sites folded into
the text must equal the plan's lowered site count.
"""

import pytest

from repro import SCALAR_MACHINE, compile_source, smart_program_plan
from repro.codegen.plans import lower_counter_plan
from repro.pipeline import run_program
from repro.profiling import PlanExecutor
from repro.workloads.paper_example import PAPER_SOURCE

pytestmark = pytest.mark.codegen

BACKENDS = ("reference", "codegen")

#: An exit-free DO loop with a runtime-dependent trip count: Opt 3
#: places a batch counter at the DO_INIT instead of eliding it.
BATCHED_LOOP = """      PROGRAM MAIN
      INTEGER I, N, X
      N = INPUT(1)
      X = 0
      DO 10 I = 1, N
        X = X + I
10    CONTINUE
      END
"""


@pytest.mark.parametrize("backend", BACKENDS)
def test_opt3_trip_add_is_one_update(backend):
    program = compile_source(BATCHED_LOOP)
    plan = smart_program_plan(program)
    # Precondition: the loop really is batch-counted, not elided.
    assert plan.plans["MAIN"].batch_counters, "Opt-3 batching expected"
    executor = PlanExecutor(plan)
    result = run_program(
        program,
        hooks=executor,
        model=SCALAR_MACHINE,
        seed=0,
        inputs=(37.0,),
        backend=backend,
    )
    # One update for the entry counter, one for the whole 37-trip
    # batch add — never one per iteration.
    assert result.counter_ops == 2
    assert result.counter_cost == 2 * SCALAR_MACHINE.counter_update
    assert executor.updates == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_figure3_counter_ops_pinned(backend):
    """The paper's Figure-3 example: exact update count, both engines.

    With seed 0 the run makes 20 counter updates under the smart plan
    (pinned from the reference interpreter); `counter_cost` is exactly
    that times the model's per-update charge.
    """
    program = compile_source(PAPER_SOURCE)
    plan = smart_program_plan(program)
    executor = PlanExecutor(plan)
    result = run_program(
        program,
        hooks=executor,
        model=SCALAR_MACHINE,
        seed=0,
        backend=backend,
    )
    assert result.steps == 61
    assert result.counter_ops == 20
    assert result.counter_cost == 20 * SCALAR_MACHINE.counter_update
    assert executor.updates == 20


def test_counter_ops_identical_across_backends():
    results = {}
    program = compile_source(BATCHED_LOOP)
    plan = smart_program_plan(program)
    for backend in BACKENDS:
        executor = PlanExecutor(plan)
        result = run_program(
            program,
            hooks=executor,
            model=SCALAR_MACHINE,
            seed=0,
            inputs=(123.0,),
            backend=backend,
        )
        results[backend] = (
            result.counter_ops,
            result.counter_cost,
            executor.updates,
            executor.counters,
        )
    assert results["codegen"] == results["reference"]


@pytest.mark.parametrize(
    "source,inputs", [(BATCHED_LOOP, (5.0,)), (PAPER_SOURCE, ())]
)
def test_codegen_emits_one_bump_site_per_planned_site(source, inputs):
    """The emitted text carries exactly the plan's update sites.

    `meta.bumps` records every `slots[i] += ...` line the emitter
    wrote; deduplicated (inlined terminals and tail-duplicated nodes
    restate their sites textually) the set must match the lowered slot tables
    one-for-one — §3.3's "cost = number of planted counters" claim,
    checked against the generated code itself.
    """
    from repro.codegen import codegen_backend_for

    program = compile_source(source)
    plan = smart_program_plan(program)
    backend = codegen_backend_for(program)
    backend.ensure_lowered()
    meta = backend.emit_meta(plan)
    for name, proc_plan in plan.plans.items():
        table = lower_counter_plan(proc_plan)
        planned = (
            {(slot, "node", nid) for nid, slot in table.node_slots.items()}
            | {
                (slot, "edge", key)
                for key, slot in table.edge_slots.items()
            }
            | {
                (slot, "batch", nid)
                for nid, pairs in table.batch_slots.items()
                for slot, _offset in pairs
            }
        )
        emitted = set(meta.bumps.get(name, ()))
        assert emitted == planned, name
