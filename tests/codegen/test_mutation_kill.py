"""Mutation testing of the conformance net itself.

A differential harness is only as strong as the miscompiles it can
catch.  The emitter exposes ~10 seeded miscompile modes
(:data:`repro.codegen.MUTATIONS` — a wrong slot index, a dropped or
duplicated counter bump, a skipped coercion, a loop that runs one
trip too many, a negated branch, an off-by-one bounds check, a
missing zero-divide guard, a dropped cost add, a loop exit that sets
the wrong exit code).  Each one is emitted
here through a real :class:`CodegenBackend` and must be *killed* —
either behaviourally, by the same observation the conformance suite
compares (outputs, errors, counts, float-pinned costs, live counter
state, update tallies), or statically, by the REP405 bump-site audit
the checker runs over every emission.

``dup-node-bump`` is the reason both oracles exist: the audit
compares deduplicated site *sets*, so a duplicated bump is invisible
to it and only the behavioural comparison kills it — and the test
asserts exactly that split.
"""

import pytest

from repro import SCALAR_MACHINE, compile_source, smart_program_plan
from repro.checker import audit_bump_sites
from repro.codegen import MUTATIONS, CodegenBackend
from repro.errors import ReproError
from repro.profiling import PlanExecutor
from repro.workloads.unstructured import TWO_EXIT_LOOP
from tests.conformance.harness import assert_conformance

pytestmark = [pytest.mark.codegen, pytest.mark.conformance]

#: One targeted workload per mutation: the *first* emitter site of the
#: mutated kind must be one whose miscompilation is observable.
KILL_SOURCES = {
    "profiled-loop": """\
      PROGRAM MAIN
      T = 0.0
      DO 10 I = 1, 5
        IF (MOD(I, 2) .EQ. 0) THEN
          T = T + 2.0
        ELSE
          T = T + 1.0
        ENDIF
10    CONTINUE
      PRINT *, T
      END
""",
    "coercion": """\
      PROGRAM MAIN
      INTEGER K
      K = 7.9
      PRINT *, K
      END
""",
    "bounds": """\
      PROGRAM MAIN
      REAL ARR(5)
      K = 0
      T = ARR(K)
      PRINT *, T
      END
""",
    "zero-div": """\
      PROGRAM MAIN
      A = 1.0
      B = 0.0
      T = A / B
      PRINT *, T
      END
""",
    "branch": """\
      PROGRAM MAIN
      K = 3
      IF (K .GT. 2) THEN
        PRINT *, 1
      ELSE
        PRINT *, 2
      ENDIF
      END
""",
    # Two exit targets: the first exit site emitted (ACC > 12.5 ->
    # label 20) is the one seed 3 takes.
    "two-exit-loop": TWO_EXIT_LOOP,
}

#: mutation -> which workload makes its first mutated site observable.
WORKLOAD_FOR = {
    "slot-off-by-one": "profiled-loop",
    "drop-node-bump": "profiled-loop",
    "drop-edge-bump": "profiled-loop",
    "dup-node-bump": "profiled-loop",
    "drop-coercion": "coercion",
    "wrong-loop-bound": "profiled-loop",
    "swap-branch": "branch",
    "off-by-one-bounds": "bounds",
    "drop-zero-div": "zero-div",
    "drop-cost": "profiled-loop",
    "swap-exit-code": "two-exit-loop",
}

#: Mutations the static REP405 audit must catch on its own.  The rest
#: are invisible to a site-set audit (dup-node-bump dedupes away; the
#: behavioural mutations never touch a bump site) and must fall to the
#: behavioural oracle instead.
AUDIT_KILLED = {"slot-off-by-one", "drop-node-bump", "drop-edge-bump"}

_PROGRAMS: dict[str, object] = {}


def _program(workload: str):
    if workload not in _PROGRAMS:
        _PROGRAMS[workload] = compile_source(KILL_SOURCES[workload])
    return _PROGRAMS[workload]


def _observe_run(backend, *, model, hooks):
    """One backend run's observable behaviour."""
    try:
        result = backend.run(
            model=model, hooks=hooks, seed=3, max_steps=10_000
        )
    except ReproError as exc:
        return {"error": (type(exc).__name__, str(exc))}
    except Exception as exc:  # a miscompile may escape the taxonomy
        return {"escaped": (type(exc).__name__, str(exc))}
    return {
        "halted": result.halted,
        "steps": result.steps,
        "outputs": result.outputs,
        "total_cost": repr(result.total_cost),
        "counter_ops": result.counter_ops,
        "counter_cost": repr(result.counter_cost),
        "node_counts": result.node_counts,
        "edge_counts": result.edge_counts,
        "main_vars": result.main_vars,
    }


def _observe_backend(backend, *, plan, model):
    """A backend run's observable behaviour plus live counter state.

    A plan-driven run records no ground-truth counts, so a plan-free
    run with the same seed is observed alongside it for those."""
    executor = PlanExecutor(plan) if plan is not None else None
    observed = _observe_run(backend, model=model, hooks=executor)
    if executor is not None:
        observed["counters"] = {
            name: list(arr) for name, arr in executor.counters.items()
        }
        observed["updates"] = executor.updates
        observed["plan_free"] = _observe_run(backend, model=model, hooks=None)
    return observed


def _emit(program, mutation):
    backend = CodegenBackend(
        program.checked,
        program.cfgs,
        {name: ecfg.intervals for name, ecfg in program.ecfgs.items()},
        mutation=mutation,
    )
    backend.ensure_lowered()
    return backend


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_mutation_is_killed(mutation):
    program = _program(WORKLOAD_FOR[mutation])
    plan = smart_program_plan(program)

    clean = _emit(program, None)
    mutant = _emit(program, mutation)

    # The mutation must actually land in the emitted profiled+costed
    # variant — an unapplied mutation would make this test vacuous.
    mutant_meta = mutant.emit_meta(plan, SCALAR_MACHINE)
    assert mutant_meta.mutation_applied, mutation
    assert mutant.emitted_source(plan, SCALAR_MACHINE) != clean.emitted_source(
        plan, SCALAR_MACHINE
    )

    audit = audit_bump_sites(program, plan, mutant_meta)
    behavioural = _observe_backend(
        mutant, plan=plan, model=SCALAR_MACHINE
    ) != _observe_backend(clean, plan=plan, model=SCALAR_MACHINE)

    if mutation in AUDIT_KILLED:
        assert audit, f"{mutation} must be caught by the REP405 audit"
        assert all(d.code == "REP405" for d in audit)
    else:
        assert not audit, (
            f"{mutation} unexpectedly visible to the site audit; "
            "move it into AUDIT_KILLED"
        )
        assert behavioural, f"{mutation} survived both oracles"


def test_clean_emission_passes_both_oracles():
    """The oracles kill mutants, not valid code."""
    for workload in KILL_SOURCES:
        program = _program(workload)
        plan = smart_program_plan(program)
        backend = _emit(program, None)
        assert audit_bump_sites(
            program, plan, backend.emit_meta(plan, SCALAR_MACHINE)
        ) == [], workload


def test_profiled_loop_plan_has_all_site_kinds():
    """The shared kill workload must offer node and edge counter sites
    (otherwise the slot mutations would never fire)."""
    program = _program("profiled-loop")
    plan = smart_program_plan(program)
    from repro.codegen.plans import lower_counter_plan

    table = lower_counter_plan(plan.plans["MAIN"])
    assert table.node_slots or table.batch_slots
    assert table.edge_slots


def test_conformance_kills_exit_code_swap():
    """The conformance harness itself, not just this suite's observer,
    catches a multi-exit loop leaving toward the wrong target."""
    program = compile_source(TWO_EXIT_LOOP)
    program._codegen = _emit(program, "swap-exit-code")
    with pytest.raises(AssertionError, match="codegen backend diverges"):
        assert_conformance(program, seed=3)
