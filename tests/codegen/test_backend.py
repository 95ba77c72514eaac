"""Backend selection, slot tables and the reconstruction schedule.

The conformance suite (tests/conformance/) establishes behavioral
equivalence between the codegen backend and the reference
interpreter; these tests pin the machinery around it: engine
selection and fallback, the codegen shell's caching and pickling, the
counter-slot tables codegen bumps (and their REP401-404 audit), and
the reconstruction schedule's equivalence with the rule solver.
"""

import pickle

import pytest

from repro import compile_source, profile_program, smart_program_plan
from repro.codegen import LoweringError, codegen_backend_for
from repro.obs import metrics
from repro.codegen.plans import (
    lower_counter_plan,
    plan_fingerprint,
    validate_slot_table,
)
from repro.pipeline import _select_backend, run_program
from repro.profiling import (
    PlanExecutor,
    reconstruction_schedule,
)
from repro.profiling.runtime import HookChain
from repro.workloads.paper_example import PAPER_SOURCE

pytestmark = pytest.mark.codegen

SRC = """      PROGRAM MAIN
      INTEGER I, N, X
      N = INPUT(1)
      X = 0
      DO 10 I = 1, N
        X = X + I
10    CONTINUE
      PRINT *, X
      END
"""


@pytest.fixture()
def program():
    return compile_source(SRC)


class TestSelection:
    def test_auto_uses_codegen_first(self, program):
        name, engine = _select_backend(program, None, "auto")
        assert name == "codegen" and engine is not None

    def test_reference_opts_out(self, program):
        assert _select_backend(program, None, "reference") == (
            "reference",
            None,
        )

    def test_unknown_backend_rejected(self, program):
        with pytest.raises(ValueError):
            run_program(program, backend="turbo")

    def test_retired_threaded_backend_rejected(self, program):
        with pytest.raises(ValueError) as excinfo:
            run_program(program, backend="threaded")
        assert "('auto', 'codegen', 'reference')" in str(excinfo.value)

    def test_non_planexecutor_hooks_fall_back(self, program):
        chain = HookChain([PlanExecutor(smart_program_plan(program))])
        assert _select_backend(program, chain, "auto") == (
            "reference",
            None,
        )

    def test_forced_codegen_rejects_foreign_hooks(self, program):
        chain = HookChain([PlanExecutor(smart_program_plan(program))])
        with pytest.raises(LoweringError):
            _select_backend(program, chain, "codegen")

    def test_planexecutor_subclass_falls_back(self, program):
        class Custom(PlanExecutor):
            pass

        hooks = Custom(smart_program_plan(program))
        assert _select_backend(program, hooks, "auto") == (
            "reference",
            None,
        )

    def test_environment_does_not_select(self, program, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        name, _engine = _select_backend(program, None, "auto")
        assert name == "codegen"


def _nested_do(depth: int, call: bool = False) -> str:
    lines = ["      PROGRAM DEEP", "      INTEGER K", "      K = 0"]
    lines += [f"      DO {100 + d} I{d} = 1, 1" for d in range(depth)]
    lines.append("      CALL BUMP(K)" if call else "      K = K + 1")
    lines += [f"{100 + d:<6}CONTINUE" for d in reversed(range(depth))]
    lines += ["      PRINT *, K", "      END"]
    if call:
        lines += [
            "      SUBROUTINE BUMP(K)",
            "      INTEGER K",
            "      K = K + 1",
            "      END",
        ]
    return "\n".join(lines) + "\n"


def _nested_if(depth: int) -> str:
    lines = ["      PROGRAM DEEPIF", "      INTEGER K", "      K = 0"]
    lines += ["      IF (K .EQ. 0) THEN"] * depth
    lines.append("      K = K + 1")
    lines += ["      ENDIF"] * depth
    lines += ["      PRINT *, K", "      END"]
    return "\n".join(lines) + "\n"


def _lowering_fallbacks() -> float:
    counter = metrics.registry().get("repro_backend_fallbacks_total")
    return counter.value(reason="lowering") if counter is not None else 0.0


def _emits(outcome: str) -> float:
    counter = metrics.registry().get("repro_codegen_emits_total")
    return counter.value(outcome=outcome) if counter is not None else 0.0


class TestPythonNestingLimits:
    """Valid programs whose emitted source breaks one of Python's own
    nesting limits fall back to the reference interpreter instead of
    crashing with a SyntaxError."""

    @pytest.mark.parametrize(
        "source",
        [_nested_do(20), _nested_if(100)],
        ids=["20-nested-do", "100-nested-if"],
    )
    def test_auto_falls_back(self, source):
        program = compile_source(source)
        before = _lowering_fallbacks()
        assert run_program(program).outputs == ["1"]
        assert _lowering_fallbacks() == before + 1
        with pytest.raises(LoweringError):
            run_program(program, backend="codegen")

    def test_paths_variant_rejected_before_the_run(self):
        """The base and counter variants compile; only the paths
        variant, emitted for the run itself, hits the limit."""
        program = compile_source(_nested_do(18, call=True))
        profile_program(program, 1, backend="codegen")
        before = _lowering_fallbacks()
        profile, _stats = profile_program(program, 1, mode="paths")
        assert _lowering_fallbacks() == before + 1
        reference, _ = profile_program(
            program, 1, mode="paths", backend="reference"
        )
        assert profile.to_dict() == reference.to_dict()
        with pytest.raises(LoweringError):
            profile_program(program, 1, mode="paths", backend="codegen")

    def test_rejected_variant_is_memoized_and_counted(self, monkeypatch):
        """A variant Python rejects is emitted once, counted once as a
        fallback, and every later ``auto`` run falls back at once."""
        import repro.codegen.backend as backend_module

        attempts = []
        real_emit = backend_module.emit_module

        def counting_emit(*args, **kwargs):
            attempts.append(kwargs.get("path_tables") is not None)
            return real_emit(*args, **kwargs)

        monkeypatch.setattr(backend_module, "emit_module", counting_emit)
        program = compile_source(_nested_do(18, call=True))
        before = _emits("fallback")
        first, _ = profile_program(program, 1, mode="paths")
        again, _ = profile_program(program, 1, mode="paths")
        assert _emits("fallback") == before + 1
        assert attempts == [True]  # the paths variant alone, once
        assert first.to_dict() == again.to_dict()


class TestLazyEmission:
    """Only the variant a run executes is emitted."""

    def test_cold_profile_emits_once(self, program):
        before = _emits("ok")
        profile_program(program, [{"inputs": (4.0,)}] * 2)
        assert _emits("ok") == before + 1

    def test_ensure_lowered_emits_nothing(self, program):
        backend = codegen_backend_for(program)
        before = _emits("ok")
        backend.ensure_lowered()
        assert _emits("ok") == before
        assert backend._variants == {}


class TestBackendCache:
    def test_variants_cached_by_fingerprint(self, program):
        backend = codegen_backend_for(program)
        backend.ensure_lowered()
        plan = smart_program_plan(program)
        first = backend._variant(plan, None)
        # A structurally identical but distinct plan hits the cache.
        again = smart_program_plan(program)
        assert plan_fingerprint(plan) == plan_fingerprint(again)
        assert backend._variant(again, None) is first

    def test_pickle_shell_round_trip(self, program):
        backend = codegen_backend_for(program)
        backend.ensure_lowered()
        clone = pickle.loads(pickle.dumps(backend))
        assert clone._shapes is None  # emitted code is rebuilt lazily
        result = clone.run(seed=5, inputs=(6.0,))
        expected = run_program(
            program, seed=5, inputs=(6.0,), backend="reference"
        )
        assert result.outputs == expected.outputs
        assert result.node_counts == expected.node_counts


class TestSlotTables:
    def test_clean_plan_validates(self, program):
        plan = smart_program_plan(program)
        for proc_plan in plan.plans.values():
            assert validate_slot_table(proc_plan) == []

    def test_orphan_write_detected(self, program):
        plan = smart_program_plan(program).plans["MAIN"]
        table = lower_counter_plan(plan)
        free = plan.id_space - 1
        del plan.counter_measures[free]
        kinds = {f.kind for f in validate_slot_table(plan, table)}
        assert "orphan" in kinds

    def test_unmapped_counter_detected(self, program):
        plan = smart_program_plan(program).plans["MAIN"]
        table = lower_counter_plan(plan)
        table.node_slots.clear()
        kinds = {f.kind for f in validate_slot_table(plan, table)}
        assert "unmapped" in kinds

    def test_duplicate_sites_detected(self, program):
        proc = smart_program_plan(program).plans["MAIN"]
        table = lower_counter_plan(proc)
        node, slot = next(iter(table.node_slots.items()))
        table.edge_slots[(node, "T")] = slot
        kinds = {f.kind for f in validate_slot_table(proc, table)}
        assert "duplicate" in kinds

    def test_out_of_range_slot_detected(self, program):
        proc = smart_program_plan(program).plans["MAIN"]
        table = lower_counter_plan(proc)
        node = next(iter(table.node_slots))
        table.node_slots[node] = proc.id_space + 3
        kinds = {f.kind for f in validate_slot_table(proc, table)}
        assert "range" in kinds

    def test_checker_reports_rep4xx(self, program):
        from repro.checker import check_slot_tables

        plan = smart_program_plan(program)
        assert check_slot_tables(plan) == []
        proc = plan.plans["MAIN"]
        node = next(iter(proc.node_counters))
        proc.node_counters[node] = proc.id_space + 7
        codes = {d.code for d in check_slot_tables(plan)}
        assert "REP404" in codes  # range fault
        assert "REP402" in codes  # original slot now unwritten


class TestReconstructionSchedule:
    def test_replay_matches_solver(self):
        program = compile_source(PAPER_SOURCE)
        plan = smart_program_plan(program)
        executor = PlanExecutor(plan)
        run_program(program, hooks=executor, seed=0)
        for name, proc_plan in plan.plans.items():
            counter_values = executor.counter_values(name)
            values = {
                measure: counter_values[cid]
                for cid, measure in proc_plan.counter_measures.items()
            }
            schedule = reconstruction_schedule(proc_plan)
            assert schedule.replay(values) == proc_plan.rules.solve(values)

    def test_schedule_is_cached(self):
        program = compile_source(PAPER_SOURCE)
        proc_plan = smart_program_plan(program).plans["MAIN"]
        assert reconstruction_schedule(proc_plan) is reconstruction_schedule(
            proc_plan
        )
