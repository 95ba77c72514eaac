"""Unit tests for the codegen emitter and backend shell.

The conformance suite proves behavioural identity; these tests pin
the *mechanism* — structured emission with basic-block fusion for
every procedure of the builtins and a 500-program generator sweep
(no dispatch loop, tail duplication under its growth bound), variant
caching, the pickled cache shell, and the hooks contract.
"""

import pickle

import pytest

from repro import SCALAR_MACHINE, compile_source, smart_program_plan
from repro.codegen import (
    CodegenBackend,
    UnsupportedHooksError,
    codegen_backend_for,
)
from repro.codegen.emit import _MAX_GROWTH, emit_module
from repro.codegen.shape import build_shape
from repro.profiling import PlanExecutor
from repro.workloads import builtin_sources
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

    def test_every_procedure_emits_structured(self):
        """Builtins plus generator seeds 0-499: no procedure needs a
        dispatch loop, and tail duplication stays under its bound
        (the worst procedure, livermore's KERN16, grows 1.06x)."""
        sources = [source for _name, source in builtin_sources()]
        sources += [ProgramGenerator(seed).source() for seed in range(500)]
        for source in sources:
            program = compile_source(source)
            shapes = {
                name: build_shape(program.checked, name, cfg, index)
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

    def test_pickle_ships_base_source(self, loop_backend):
        program, backend = loop_backend
        clone = pickle.loads(pickle.dumps(backend))
        assert clone._shipped_source == backend.emitted_source()
        clone.ensure_lowered()
        assert clone.run(seed=0).outputs == backend.run(seed=0).outputs

    def test_corrupt_shipped_source_is_discarded(self, loop_backend):
        _program, backend = loop_backend
        state = backend.__getstate__()
        state["source"] = state["source"] + "\n# tampered"
        clone = CodegenBackend.__new__(CodegenBackend)
        clone.__setstate__(state)
        assert clone._shipped_source is None  # fingerprint mismatch
        clone.ensure_lowered()  # re-emits from the CFGs instead

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
        for name, source in builtin_sources():
            backend = codegen_backend_for(compile_source(source))
            backend.ensure_lowered()
