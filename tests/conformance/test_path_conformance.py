"""Path-mode conformance: fused path registers vs the reference hook.

The Ball–Larus path register is fused into all three backends, so it
gets the same treatment counters do: every builtin and hand-written
``harness.HANDWRITTEN`` program (with and without an ``INPUT()``
vector) and the full 75-program generator corpus run
path-profiled on every backend, and the observations — path-count
spectra, STOP partials, update tallies, outputs, costs — must be
identical down to float reprs.  Each conformant reference spectrum is
then reconstructed and must reproduce the counter-measured
Definition-3 ``FREQ``/``NODE_FREQ``/``TOTAL_FREQ`` bit-for-bit.
"""

import pytest

from tests.conformance.harness import (
    CORPUS,
    INPUTS,
    assert_path_conformance,
    builtin_program,
    generated_program,
)

pytestmark = [
    pytest.mark.conformance,
    pytest.mark.differential,
    pytest.mark.paths,
]

N_PROGRAMS = 75


@pytest.mark.parametrize("name", CORPUS)
def test_builtin_with_inputs(name):
    assert_path_conformance(builtin_program(name), seed=3, inputs=INPUTS)


@pytest.mark.parametrize("name", CORPUS)
def test_builtin_without_inputs(name):
    """No INPUT() vector: programs that read one must fail identically."""
    assert_path_conformance(builtin_program(name), seed=3)


@pytest.mark.parametrize("gen_seed", range(N_PROGRAMS))
def test_generated_program(gen_seed):
    program = generated_program(gen_seed)
    run_seed = 7919 * (gen_seed + 1)  # deterministic, distinct per program
    assert_path_conformance(program, seed=run_seed, max_steps=200_000)
