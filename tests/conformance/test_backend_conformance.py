"""Cross-backend conformance: codegen vs the reference oracle.

A single harness judges the codegen backend against the tree-walking
reference interpreter, over every builtin workload and the
hand-written structuring programs of ``harness.HANDWRITTEN`` and the
dummy-array programs of ``harness.DUMMY_ARRAYS`` (with
and without an ``INPUT()`` vector) and 75 seeded generator-corpus
programs, plain and profiled, including step-limit aborts swept over
small budgets in counter and path mode.  Any divergence, down to
an error message or the repr of a float, is a bug in a lowering.
"""

import pytest

from repro import compile_source
from repro.errors import InterpreterError, InterpreterLimitError
from repro.paths import PathExecutor, path_program_plan
from repro.pipeline import run_program
from tests.conformance.harness import (
    BACKENDS,
    CORPUS,
    DUMMY_ARRAY_RESULTS,
    INPUTS,
    assert_conformance,
    assert_path_conformance,
    builtin_program,
    generated_program,
    observe,
)

pytestmark = [pytest.mark.conformance, pytest.mark.differential]

N_PROGRAMS = 75


@pytest.mark.parametrize("name", CORPUS)
def test_builtin_with_inputs(name):
    assert_conformance(builtin_program(name), seed=3, inputs=INPUTS)


@pytest.mark.parametrize("name", CORPUS)
def test_builtin_without_inputs(name):
    """No INPUT() vector: programs that read one must fail identically."""
    assert_conformance(builtin_program(name), seed=3)


@pytest.mark.parametrize("name", sorted(DUMMY_ARRAY_RESULTS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_dummy_array_result(name, backend):
    """Both engines report the pinned output or error (type, line and
    message) of each dummy-array program."""
    observed = observe(builtin_program(name), backend)
    assert observed.get("error", observed.get("outputs")) == (
        DUMMY_ARRAY_RESULTS[name]
    )


@pytest.mark.parametrize("gen_seed", range(N_PROGRAMS))
def test_generated_program(gen_seed):
    program = generated_program(gen_seed)
    run_seed = 7919 * (gen_seed + 1)  # deterministic, distinct per program
    assert_conformance(program, seed=run_seed, max_steps=200_000)


#: Budgets that land mid-program on the step-limit seeds: inside
#: fused blocks, between a block and a back edge, at calls and exits.
STEP_LIMITS = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233)


@pytest.mark.parametrize("gen_seed", [0, 17, 42, 63])
def test_step_limit_parity(gen_seed):
    """A max_steps abort raises the same error in the same state.

    ``max_steps`` is a bound: both engines count every step but check
    the budget only at taken loop back edges, before user calls and
    at procedure exits.  Swept over small budgets, the plan-free,
    smart-counters and paths variants must raise the same error (or
    finish identically) with identical live counter slots, path
    counts, STOP partials and update tallies.  A run that finishes
    stayed within its budget; a run that raised needed more.
    """
    program = generated_program(gen_seed)
    unlimited = observe(program, "reference", seed=11)["steps"]
    for max_steps in STEP_LIMITS:
        assert_conformance(program, seed=11, max_steps=max_steps)
        assert_path_conformance(program, seed=11, max_steps=max_steps)
        run = observe(program, "reference", seed=11, max_steps=max_steps)
        if "error" not in run:
            assert run["steps"] == unlimited <= max_steps
        elif run["error"][0] == "InterpreterLimitError":
            assert unlimited > max_steps


STRAIGHT_LINE = """\
      PROGRAM LINE
      INTEGER I, J, K
      I = 1
      J = I + 1
      I = J * 2
      K = I - 4
      PRINT *, I, J
      {last}
      END
"""


def _straight_line(last: str):
    return compile_source(STRAIGHT_LINE.format(last=last))


@pytest.mark.parametrize("backend", BACKENDS)
def test_straight_line_overrun_raises_only_at_exit(backend):
    """A loop- and call-free program past its budget runs to its EXIT
    before the limit fires: the path run records the complete path,
    whose EXIT flush precedes the exit's budget check."""
    program = _straight_line("J = J + K")
    steps = run_program(program, backend=backend).steps
    result = run_program(program, backend=backend, max_steps=steps)
    assert result.steps == steps
    plan = path_program_plan(program)
    for max_steps in range(1, steps):
        executor = PathExecutor(plan)
        with pytest.raises(
            InterpreterLimitError,
            match=f"^exceeded {max_steps} node executions$",
        ):
            run_program(
                program, backend=backend, hooks=executor, max_steps=max_steps
            )
        assert executor.path_counts["LINE"] == {0: 1.0}


@pytest.mark.parametrize("backend", BACKENDS)
def test_node_error_in_the_overrun_stretch_wins(backend):
    """A node's own error after the budget ran out, but before the
    next check, is the error the run raises."""
    program = _straight_line("J = J / K")
    with pytest.raises(InterpreterError, match="division by zero") as info:
        run_program(program, backend=backend, max_steps=1)
    assert not isinstance(info.value, InterpreterLimitError)
