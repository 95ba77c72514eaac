"""Unit tests for the plan executor and loop-moment recorder."""

import itertools

import pytest

from repro import (
    compile_source,
    profile_program,
    run_program,
    smart_program_plan,
)
from repro.costs import SCALAR_MACHINE
from repro.profiling import PlanExecutor
from repro.profiling.runtime import HookChain, LoopMomentRecorder


def program_with_loop(n="8"):
    return compile_source(
        "PROGRAM MAIN\n"
        f"N = {n}\n"
        "DO 10 I = 1, N\n"
        "IF (RAND() .GT. 0.5) X = X + 1.0\n"
        "10 CONTINUE\n"
        "END\n"
    )


class TestPlanExecutor:
    def test_counters_accumulate_across_runs(self):
        program = program_with_loop()
        plan = smart_program_plan(program)
        executor = PlanExecutor(plan)
        run_program(program, hooks=executor, seed=1)
        first_total = sum(executor.counters["MAIN"])
        run_program(program, hooks=executor, seed=2)
        assert sum(executor.counters["MAIN"]) > first_total

    def test_reset_clears_counters(self):
        program = program_with_loop()
        plan = smart_program_plan(program)
        executor = PlanExecutor(plan)
        run_program(program, hooks=executor)
        executor.reset()
        assert all(v == 0.0 for v in executor.counters["MAIN"])

    def test_update_count_matches_result(self):
        program = program_with_loop()
        plan = smart_program_plan(program)
        executor = PlanExecutor(plan)
        result = run_program(program, hooks=executor)
        assert result.counter_ops == executor.updates

    def test_counter_cost_charged(self):
        program = program_with_loop()
        plan = smart_program_plan(program)
        executor = PlanExecutor(plan)
        result = run_program(program, hooks=executor, model=SCALAR_MACHINE)
        assert result.counter_cost == (
            result.counter_ops * SCALAR_MACHINE.counter_update
        )
        assert result.cost_with_profiling == (
            result.total_cost + result.counter_cost
        )

    def test_batched_counter_single_update_per_entry(self):
        # Constant-trip loop has no counters; variable-trip exit-free
        # loop batches one add per entry.
        program = compile_source(
            "PROGRAM MAIN\nN = INT(INPUT(1))\nDO 10 I = 1, N\nX = X + 1.0\n"
            "10 CONTINUE\nEND\n"
        )
        plan = smart_program_plan(program)
        executor = PlanExecutor(plan)
        run_program(program, hooks=executor, inputs=(50.0,))
        # invocation + batched header: 2 updates, not ~50.
        assert executor.updates == 2


class TestLoopMomentRecorder:
    def test_records_entries_and_sumsq(self):
        program = compile_source(
            "PROGRAM MAIN\n"
            "DO 20 J = 1, 3\n"
            "N = J * 2\n"
            "DO 10 I = 1, N\n"
            "X = X + 1.0\n"
            "10 CONTINUE\n"
            "20 CONTINUE\n"
            "END\n"
        )
        recorder = LoopMomentRecorder(program.ecfgs)
        run_program(program, hooks=recorder)
        inner_headers = [
            h
            for h, entries in recorder.entries["MAIN"].items()
            if entries == 3.0
        ]
        assert len(inner_headers) == 1
        inner = inner_headers[0]
        # header executions per entry: trips+1 = 3, 5, 7
        assert recorder.sumsq["MAIN"][inner] == 9.0 + 25.0 + 49.0

    def test_outer_loop_single_entry(self):
        program = program_with_loop()
        recorder = LoopMomentRecorder(program.ecfgs)
        run_program(program, hooks=recorder)
        (header,) = recorder.entries["MAIN"]
        assert recorder.entries["MAIN"][header] == 1.0
        assert recorder.sumsq["MAIN"][header] == 81.0  # (8+1)^2

    def test_hook_chain_combines(self):
        program = program_with_loop()
        plan = smart_program_plan(program)
        executor = PlanExecutor(plan)
        recorder = LoopMomentRecorder(program.ecfgs)
        chain = HookChain(executor, recorder)
        result = run_program(program, hooks=chain)
        assert result.counter_ops == executor.updates
        assert sum(recorder.entries["MAIN"].values()) == 1.0


#: A STOP in a callee while MAIN's loop is active: MAIN's loop never
#: takes an exit edge on the runs that halt (RAND() < 0.5).
STOP_IN_CALLEE = (
    "PROGRAM MAIN\n"
    "X = RAND()\n"
    "DO 10 I = 1, 5\n"
    "CALL HALT(X, I)\n"
    "10 CONTINUE\n"
    "END\n"
    "SUBROUTINE HALT(X, I)\n"
    "IF (X .LT. 0.5 .AND. I .EQ. 3) STOP\n"
    "END\n"
)

#: The STOP two frames down, inside the callee's own loop, so loops in
#: both MAIN and SWEEP are interrupted.
STOP_TWO_FRAMES_DOWN = (
    "PROGRAM MAIN\n"
    "X = RAND()\n"
    "DO 10 I = 1, 4\n"
    "CALL SWEEP(X, I)\n"
    "10 CONTINUE\n"
    "END\n"
    "SUBROUTINE SWEEP(X, I)\n"
    "DO 20 J = 1, I\n"
    "CALL HALT(X, I, J)\n"
    "20 CONTINUE\n"
    "END\n"
    "SUBROUTINE HALT(X, I, J)\n"
    "IF (X .LT. 0.5 .AND. I .EQ. 3 .AND. J .EQ. 2) STOP\n"
    "END\n"
)

SEEDS = range(6)


def _moments(program, seeds):
    profile, _ = profile_program(
        program, [{"seed": s} for s in seeds], record_loop_moments=True
    )
    return {
        name: (dict(proc.loop_sumsq), dict(proc.loop_entries))
        for name, proc in profile.procedures.items()
    }


@pytest.mark.parametrize(
    "source", [STOP_IN_CALLEE, STOP_TWO_FRAMES_DOWN], ids=["callee", "deep"]
)
class TestInterruptedEntries:
    """A STOP's live loop entries are finalized at run end."""

    def test_corpus_halts_mid_loop(self, source):
        program = compile_source(source)
        halted = {run_program(program, seed=s).halted for s in SEEDS}
        assert halted == {"stop", "end"}

    def test_run_order_does_not_change_the_moments(self, source):
        program = compile_source(source)
        for a, b in itertools.combinations(SEEDS, 2):
            assert _moments(program, [a, b]) == _moments(program, [b, a])

    def test_moments_add_across_runs(self, source):
        program = compile_source(source)
        together = _moments(program, SEEDS)
        for name, (sumsq, entries) in together.items():
            for header in sumsq:
                singles = [_moments(program, [s])[name] for s in SEEDS]
                assert sumsq[header] == sum(m[0][header] for m in singles)
                assert entries[header] == sum(m[1][header] for m in singles)

    def test_entries_equal_preheader_executions(self, source):
        # The preheader runs once per taken entry edge of its loop;
        # the plan-free run's edge counts are the ground truth.
        program = compile_source(source)
        for seed in SEEDS:
            moments = _moments(program, [seed])
            taken = run_program(program, seed=seed).edge_counts
            for name, ecfg in program.ecfgs.items():
                for header in ecfg.preheader_of:
                    preheader_runs = sum(
                        taken.get(name, {}).get((e.src, e.label), 0)
                        for e in ecfg.intervals.entry_edges(header)
                    )
                    assert moments[name][1][header] == preheader_runs, (
                        seed, name, header
                    )
