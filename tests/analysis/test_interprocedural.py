"""Unit tests for the interprocedural driver (rule 2 + recursion)."""

import dataclasses
import gc
import pickle

import pytest

from repro import (
    analyze,
    compile_source,
    oracle_program_profile,
    profile_program,
    run_program,
)
from repro.analysis import analyze_program
from repro.codegen import codegen_backend_for
from repro.costs import OPTIMIZING_MACHINE, SCALAR_MACHINE
from repro.costs import estimate
from repro.costs.estimate import CostEstimator, NodeCost, cost_tables
from repro.errors import AnalysisError
from repro.workloads import builtin_sources


def analyzed(source, run_specs=({},), **kwargs):
    program = compile_source(source)
    profile = oracle_program_profile(program, runs=list(run_specs))
    return program, analyze(program, profile, SCALAR_MACHINE, **kwargs)


class TestRule2:
    def test_call_cost_is_callee_time(self):
        source = (
            "PROGRAM MAIN\nCALL WORK(X)\nEND\n"
            "SUBROUTINE WORK(X)\nX = X + 1.0\nX = X * 2.0\nEND\n"
        )
        program, analysis = analyzed(source)
        work_time = analysis.procedures["WORK"].time
        main = analysis.main
        call = next(
            n.id for n in main.ecfg.graph if "CALL WORK" in n.text
        )
        assert main.effective_costs[call] == pytest.approx(
            SCALAR_MACHINE.call_overhead + work_time
        )

    def test_same_average_for_every_call_site(self):
        source = (
            "PROGRAM MAIN\nCALL WORK(X)\nCALL WORK(Y)\nEND\n"
            "SUBROUTINE WORK(X)\nX = X + 1.0\nEND\n"
        )
        program, analysis = analyzed(source)
        main = analysis.main
        calls = [
            n.id for n in main.ecfg.graph if "CALL WORK" in n.text
        ]
        costs = {main.effective_costs[c] for c in calls}
        assert len(costs) == 1

    def test_bottom_up_order_handles_chains(self):
        source = (
            "PROGRAM MAIN\nCALL A(X)\nEND\n"
            "SUBROUTINE A(X)\nCALL B(X)\nCALL B(X)\nEND\n"
            "SUBROUTINE B(X)\nX = X + 1.0\nEND\n"
        )
        program, analysis = analyzed(source)
        a = analysis.procedures["A"]
        b = analysis.procedures["B"]
        assert a.time > 2 * b.time

    def test_callee_variance_propagates(self):
        source = (
            "PROGRAM MAIN\nCALL WORK(INPUT(1))\nEND\n"
            "SUBROUTINE WORK(P)\nIF (P .GT. 0.0) X = 1.0\nEND\n"
        )
        program, analysis = analyzed(
            source, run_specs=({"inputs": (1.0,)}, {"inputs": (-1.0,)})
        )
        assert analysis.procedures["WORK"].var > 0.0
        assert analysis.total_var == pytest.approx(
            analysis.procedures["WORK"].var
        )


class TestRecursion:
    def test_self_recursion_converges(self):
        # FACT(6): expected recursive calls per invocation < 1 when
        # averaged over the whole profile.
        source = (
            "PROGRAM MAIN\nPRINT *, FACT(6)\nEND\n"
            "INTEGER FUNCTION FACT(N)\nINTEGER N\n"
            "IF (N .LE. 1) THEN\nFACT = 1\nELSE\nFACT = N * FACT(N - 1)\n"
            "ENDIF\nEND\n"
        )
        program, analysis = analyzed(source)
        total = run_program(program, model=SCALAR_MACHINE).total_cost
        assert analysis.total_time == pytest.approx(total, rel=1e-6)

    def test_mutual_recursion_converges(self):
        source = (
            "PROGRAM MAIN\nPRINT *, ISEV(9)\nEND\n"
            "INTEGER FUNCTION ISEV(N)\nINTEGER N\n"
            "IF (N .EQ. 0) THEN\nISEV = 1\nELSE\nISEV = IODD(N - 1)\nENDIF\n"
            "END\n"
            "INTEGER FUNCTION IODD(N)\nINTEGER N\n"
            "IF (N .EQ. 0) THEN\nIODD = 0\nELSE\nIODD = ISEV(N - 1)\nENDIF\n"
            "END\n"
        )
        program, analysis = analyzed(source)
        total = run_program(program, model=SCALAR_MACHINE).total_cost
        assert analysis.total_time == pytest.approx(total, rel=1e-6)

    def test_call_graph_marks_recursion(self):
        source = (
            "PROGRAM MAIN\nPRINT *, FACT(3)\nEND\n"
            "INTEGER FUNCTION FACT(N)\nINTEGER N\n"
            "IF (N .LE. 1) THEN\nFACT = 1\nELSE\nFACT = N * FACT(N - 1)\n"
            "ENDIF\nEND\n"
        )
        program, analysis = analyzed(source)
        assert analysis.call_graph.is_recursive("FACT")
        assert not analysis.call_graph.is_recursive("MAIN")


class TestProgramAnalysisAccessors:
    def test_main_accessor(self):
        program, analysis = analyzed("PROGRAM MAIN\nX = 1.0\nEND\n")
        assert analysis.main.name == "MAIN"
        assert analysis.total_time == analysis.main.time

    def test_per_procedure_results_present(self):
        source = (
            "PROGRAM MAIN\nCALL A(X)\nEND\nSUBROUTINE A(X)\nX = 1.0\nEND\n"
        )
        program, analysis = analyzed(source)
        assert set(analysis.procedures) == {"MAIN", "A"}
        for proc in analysis.procedures.values():
            assert proc.variances is not None

    def test_unknown_loop_variance_spec_rejected(self):
        program = compile_source("PROGRAM MAIN\nX = 1.0\nEND\n")
        profile = oracle_program_profile(program, runs=[{}])
        with pytest.raises(AnalysisError):
            analyze(program, profile, SCALAR_MACHINE, loop_variance="bogus")


class TestSharedStaticWork:
    """``pipeline.analyze`` reuses the compiled call graph and the
    per-model COST tables; the result equals a from-scratch
    ``analyze_program`` field for field, and nothing it caches is
    pickled with the program."""

    @pytest.mark.parametrize("name", [n for n, _ in builtin_sources()])
    def test_equals_fresh_analysis(self, name):
        program = compile_source(dict(builtin_sources())[name])
        codegen_backend_for(program)  # the shell the artifact cache ships
        shipped = len(pickle.dumps(program))
        profile, _ = profile_program(
            program, [{"seed": 1, "inputs": (2.25, 9.0, 16.0)}]
        )
        for model in (SCALAR_MACHINE, OPTIMIZING_MACHINE):
            shared = analyze(program, profile, model)
            fresh = analyze_program(
                program.checked,
                program.cfgs,
                profile,
                model,
                artifacts=program.artifacts(),
            )
            assert shared.call_graph == fresh.call_graph
            assert shared.procedures.keys() == fresh.procedures.keys()
            for proc, want in fresh.procedures.items():
                got = shared.procedures[proc]
                for f in dataclasses.fields(want):
                    assert getattr(got, f.name) == getattr(want, f.name), (
                        proc,
                        f.name,
                    )
        assert len(pickle.dumps(program)) == shipped

    def test_tables_hold_one_slot_per_program(self):
        """Fresh, equal models reuse the program's tables; another
        model replaces them; the slot goes when the program does."""
        program = compile_source(dict(builtin_sources())["paper"])
        profile = oracle_program_profile(program, runs=[{}])
        analyze(program, profile, SCALAR_MACHINE)
        held = len(estimate._TABLES)
        first = cost_tables(program.checked, program.cfgs, SCALAR_MACHINE)
        for _ in range(5):
            analyze(program, profile, dataclasses.replace(SCALAR_MACHINE))
        assert len(estimate._TABLES) == held
        again = dataclasses.replace(SCALAR_MACHINE)
        assert cost_tables(program.checked, program.cfgs, again) is first
        analyze(program, profile, OPTIMIZING_MACHINE)
        assert len(estimate._TABLES) == held
        key = id(program.checked)
        del program, profile
        gc.collect()
        assert key not in estimate._TABLES

    def test_caller_estimator_bypasses_the_tables(self):
        program = compile_source(dict(builtin_sources())["paper"])
        profile = oracle_program_profile(program, runs=[{}])
        seen = []

        class Doubled(CostEstimator):
            def cfg_costs(self, cfg, proc_name):
                seen.append(proc_name)
                return {
                    nid: NodeCost(2 * cost.local, cost.calls)
                    for nid, cost in super().cfg_costs(cfg, proc_name).items()
                }

        base = analyze(program, profile, SCALAR_MACHINE)
        doubled = analyze(
            program,
            profile,
            SCALAR_MACHINE,
            estimator=Doubled(program.checked, SCALAR_MACHINE),
        )
        assert seen == list(program.cfgs)
        assert doubled.total_time == pytest.approx(2 * base.total_time)
