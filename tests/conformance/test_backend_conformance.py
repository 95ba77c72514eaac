"""Cross-backend conformance: codegen vs the reference oracle.

A single harness judges the codegen backend against the tree-walking
reference interpreter, over every builtin workload and the
hand-written structuring programs of ``harness.HANDWRITTEN`` (with
and without an ``INPUT()`` vector) and 75 seeded generator-corpus
programs, plain and profiled, including step-limit aborts.  Any divergence, down to
an error message or the repr of a float, is a bug in a lowering.
"""

import pytest

from tests.conformance.harness import (
    CORPUS,
    INPUTS,
    assert_conformance,
    builtin_program,
    generated_program,
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


@pytest.mark.parametrize("gen_seed", range(N_PROGRAMS))
def test_generated_program(gen_seed):
    program = generated_program(gen_seed)
    run_seed = 7919 * (gen_seed + 1)  # deterministic, distinct per program
    assert_conformance(program, seed=run_seed, max_steps=200_000)


@pytest.mark.parametrize("gen_seed", [0, 17, 42, 63])
def test_step_limit_parity(gen_seed):
    """A max_steps abort happens at the same step with the same message.

    ``max_steps=50`` lands mid-program, which on the codegen backend
    exercises the fused-block slow path: a block whose batched step
    charge overruns the budget replays its nodes one at a time to
    raise the limit error at exactly the right node.
    """
    program = generated_program(gen_seed)
    assert_conformance(program, seed=11, max_steps=50)
