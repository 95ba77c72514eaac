"""Unit tests for the codegen emitter and backend shell.

The conformance suite proves behavioural identity; these tests pin
the *mechanism* — structured emission with basic-block fusion for
every procedure of the builtins and a 500-program generator sweep
(no dispatch loop, tail duplication under its growth bound), no zero
cost adds, variant caching, the pickled cache shell, and the hooks
contract.
"""

import math
import pickle
from dataclasses import replace

import pytest

from repro import (
    OPTIMIZING_MACHINE,
    SCALAR_MACHINE,
    compile_source,
    smart_program_plan,
)
from repro.codegen import UnsupportedHooksError, codegen_backend_for
from repro.codegen.emit import _MAX_GROWTH, emit_module
from repro.codegen.shape import build_shape
from repro.pipeline import paths_program_plan, run_program
from repro.profiling import PlanExecutor
from repro.workloads import builtin_sources
from repro.workloads.paper_example import PAPER_SOURCE
from repro.workloads.generators import ProgramGenerator

pytestmark = pytest.mark.codegen

STRUCTURED = """\
      PROGRAM MAIN
      T = 0.0
      DO 10 I = 1, 4
        T = T + 1.5
10    CONTINUE
      PRINT *, T
      END
"""


@pytest.fixture(scope="module")
def loop_backend():
    program = compile_source(STRUCTURED)
    backend = codegen_backend_for(program)
    backend.ensure_lowered()
    return program, backend


class TestEmission:
    def test_structured_mode_for_reducible_loop(self, loop_backend):
        _program, backend = loop_backend
        meta = backend.emit_meta()
        assert meta.mode["MAIN"] == "structured"

    def test_loop_is_native_while(self, loop_backend):
        """Structured mode lowers the DO loop to a `while`, not a
        dispatch loop over a node index."""
        _program, backend = loop_backend
        source = backend.emitted_source()
        assert "while " in source
        assert "_n = 0" not in source  # no dispatch program counter

    def test_fused_blocks_batch_the_step_charge(self, loop_backend):
        """Straight-line runs charge `_d += K` once, with a slow-path
        replay guarding the step limit."""
        _program, backend = loop_backend
        source = backend.emitted_source()
        assert any(
            line.strip().startswith("_d += ")
            and line.strip() != "_d += 1"
            for line in source.splitlines()
        )

    def test_constant_fold(self, loop_backend):
        """`T + 1.5` keeps the literal; no Cell/env lookups remain."""
        _program, backend = loop_backend
        source = backend.emitted_source()
        assert "1.5" in source
        assert "env[" not in source

    def test_variants_cached_per_plan_and_model(self, loop_backend):
        program, backend = loop_backend
        plan = smart_program_plan(program)
        first = backend.emitted_source(plan, SCALAR_MACHINE)
        again = backend.emitted_source(plan, SCALAR_MACHINE)
        assert first == again
        assert backend.emitted_source() != first  # base variant differs

    def test_no_zero_cost_adds(self):
        """No builtin's variant emits a zero `_c`/`_cc` add, even with
        free counter updates."""
        free_counters = replace(OPTIMIZING_MACHINE, counter_update=0.0)
        for _name, source in builtin_sources():
            program = compile_source(source)
            backend = codegen_backend_for(program)
            plans = (smart_program_plan(program), paths_program_plan(program))
            for plan in plans:
                for model in (SCALAR_MACHINE, free_counters):
                    text = backend.emitted_source(plan, model)
                    assert "+= 0.0" not in text
                    assert "+= 0\n" not in text

    def test_skipped_zero_adds_stay_bit_identical(self):
        """Both accumulators match the reference bit for bit, sign of
        zero included, when every counter update is free."""
        free_counters = replace(OPTIMIZING_MACHINE, counter_update=0.0)
        program = compile_source(PAPER_SOURCE)
        plan = smart_program_plan(program)
        results = [
            run_program(
                program,
                model=free_counters,
                hooks=PlanExecutor(plan),
                seed=3,
                inputs=(6.0,),
                backend=backend,
            )
            for backend in ("reference", "codegen")
        ]
        for field_name in ("total_cost", "counter_cost"):
            values = [getattr(result, field_name) for result in results]
            assert values[0] == values[1]
            assert [math.copysign(1.0, v) for v in values] == [1.0, 1.0]
        assert results[1].counter_cost == 0.0
        assert results[1].counter_ops > 0

    def test_every_procedure_emits_structured(self):
        """Builtins plus generator seeds 0-499: no procedure needs a
        dispatch loop, and tail duplication stays under its bound
        (the worst procedure, livermore's KERN16, grows 1.06x)."""
        sources = [source for _name, source in builtin_sources()]
        sources += [ProgramGenerator(seed).source() for seed in range(500)]
        for source in sources:
            program = compile_source(source)
            shapes = {
                name: build_shape(
                    program.checked,
                    name,
                    cfg,
                    index,
                    program.ecfgs[name].intervals,
                )
                for index, (name, cfg) in enumerate(program.cfgs.items())
            }
            text, meta = emit_module(program.checked, program.cfgs, shapes)
            assert set(meta.mode.values()) == {"structured"}
            assert "_n = " not in text  # no dispatch program counter
            for name, count in meta.emitted_nodes.items():
                assert count <= _MAX_GROWTH * len(meta.reachable[name])


class TestBackendShell:
    def test_backend_cached_on_program(self):
        program = compile_source(STRUCTURED)
        assert codegen_backend_for(program) is codegen_backend_for(program)

    def test_pickle_round_trip_reemits_identical_source(self, loop_backend):
        """The pickled shell carries no emitted code; the clone emits
        byte-identical source for the same (plan, model) and runs
        identically."""
        program, backend = loop_backend
        plan = smart_program_plan(program)
        expected = backend.emitted_source(plan, SCALAR_MACHINE)
        clone = pickle.loads(pickle.dumps(backend))
        assert clone._variants == {}
        assert clone.emitted_source(plan, SCALAR_MACHINE) == expected
        runs = [
            engine.run(
                model=SCALAR_MACHINE, hooks=PlanExecutor(plan), seed=0
            )
            for engine in (backend, clone)
        ]
        assert runs[0].outputs == runs[1].outputs
        assert runs[0].total_cost == runs[1].total_cost
        # Plan-driven runs record no ground-truth counts; plan-free
        # runs with the same seed compare them.
        plain = [
            engine.run(model=SCALAR_MACHINE, seed=0)
            for engine in (backend, clone)
        ]
        assert plain[0].node_counts
        assert plain[0].node_counts == plain[1].node_counts
        assert plain[0].edge_counts == plain[1].edge_counts

    def test_rejects_foreign_hooks(self, loop_backend):
        program, backend = loop_backend

        class Chained(PlanExecutor):
            pass

        plan = smart_program_plan(program)
        with pytest.raises(UnsupportedHooksError):
            backend.run(hooks=Chained(plan))

    def test_all_builtins_lower(self):
        """Every builtin workload is expressible in the codegen
        backend — auto-selection never needs to fall back on them."""
        for _name, source in builtin_sources():
            codegen_backend_for(compile_source(source)).emitted_source()
