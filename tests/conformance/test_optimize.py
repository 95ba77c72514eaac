"""Optimized codegen (`optimize=True`) must be observationally free.

The dataflow optimizer folds SCCP-forced branches and drops dead
stores before emission.  Both transformations are only legal because
the pruned regions have *static frequency zero* — so every observable,
down to counter slot values and reconstructed FREQ/NODE_FREQ, must be
bit-identical to the unoptimized engines.  This suite reuses
:func:`tests.conformance.harness.assert_conformance` with
``optimize=True`` passed through ``run_program`` (the reference
interpreter ignores the flag; the codegen backend optimizes), so
"conformant" keeps meaning exactly one thing.
"""

import pytest

from repro.checker import audit_bump_sites
from repro.codegen import codegen_backend_for
from repro.pipeline import smart_program_plan

from tests.conformance.harness import (
    CORPUS,
    INPUTS,
    assert_conformance,
    builtin_program,
    generated_program,
)

pytestmark = [pytest.mark.conformance, pytest.mark.differential]

N_PROGRAMS = 30


@pytest.mark.parametrize("name", CORPUS)
def test_builtin_optimized(name):
    assert_conformance(
        builtin_program(name), seed=3, inputs=INPUTS, optimize=True
    )


@pytest.mark.parametrize("gen_seed", range(N_PROGRAMS))
def test_generated_optimized(gen_seed):
    program = generated_program(gen_seed)
    run_seed = 6007 * (gen_seed + 1)
    assert_conformance(
        program, seed=run_seed, max_steps=200_000, optimize=True
    )


class TestEmission:
    def test_paper_workload_source_shrinks(self):
        """MAIN's `IF (M .GE. 0)` is forced T: folding must pay off."""
        program = builtin_program("paper")
        plain = codegen_backend_for(program).emitted_source()
        optimized = codegen_backend_for(
            program, optimize=True
        ).emitted_source()
        assert optimized.count("\n") < plain.count("\n")

    def test_pruned_arm_recorded_in_meta(self):
        program = builtin_program("paper")
        meta = codegen_backend_for(program, optimize=True).emit_meta()
        pruned = dict(meta.pruned_edges)
        assert pruned["MAIN"], "the forced branch's dead arm must be pruned"
        assert all(label == "F" for _nid, label in pruned["MAIN"])

    def test_optimized_backend_is_cached_separately(self):
        program = builtin_program("paper")
        plain = codegen_backend_for(program)
        optimized = codegen_backend_for(program, optimize=True)
        assert plain is not optimized
        assert codegen_backend_for(program, optimize=True) is optimized


class TestBumpAudit:
    """REP405 stays clean: pruned edge slots are excluded, not missed."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_optimized_emission_passes_audit(self, name):
        program = builtin_program(name)
        plan = smart_program_plan(program)
        backend = codegen_backend_for(program, optimize=True)
        try:
            backend.ensure_lowered()
            meta = backend.emit_meta(plan)
        except Exception:
            pytest.skip("program not lowerable by the codegen backend")
        findings = audit_bump_sites(program, plan, meta)
        assert not findings, [f.render() for f in findings]
