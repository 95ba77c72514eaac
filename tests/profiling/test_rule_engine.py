"""``RuleSet.firing_order`` against the naive reference ``RuleSet.solve``.

One engine decides which derivation rules fire, and in which order:
reconstruction replays it as a schedule, and the checker's REP201 (and
the closure oracle of placement's drop test) read it through
``closure``.  ``solve`` is the plain pass-until-no-change scan it
must reproduce exactly — the same rules in the same order, since two
rules may share a target and the one that fires decides the float
arithmetic.
"""

import pytest

from repro import compile_source, run_program, smart_program_plan
from repro.profiling import PlanExecutor, reconstruction_schedule
from repro.profiling.measures import DerivedRule, RuleSet
from repro.profiling.reconstruct import ReconstructionSchedule
from repro.validate.corpus import DEFAULT_INPUTS
from repro.workloads import builtin_sources
from repro.workloads.generators import ProgramGenerator

A, B, C, T = ("a",), ("b",), ("c",), ("t",)


def _shared_target_rules() -> RuleSet:
    """Two rules for ``t``; the lower-indexed one is ready a pass later.

    ``solve``'s first pass fires ``b`` (readying rule 0 only for the
    next pass, since the scan is past it), then ``c``, then rule 3,
    which resolves ``t`` as ``2a``.  A FIFO worklist queues rule 0
    before rule 3 and resolves ``t`` as ``b`` instead.
    """
    rules = RuleSet()
    rules.add(DerivedRule(T, "t", ((1.0, B),)))
    rules.add(DerivedRule(B, "t", ((1.0, A),)))
    rules.add(DerivedRule(C, "t", ((1.0, A),)))
    rules.add(DerivedRule(T, "t", ((2.0, C),)))
    return rules


class TestSharedTarget:
    def test_fires_the_rule_solve_fires(self):
        assert _shared_target_rules().firing_order({A}) == [1, 2, 3]

    def test_replay_equals_solve(self):
        rules = _shared_target_rules()
        values = {A: 1.5}
        schedule = ReconstructionSchedule(
            tuple(rules.rules[i] for i in rules.firing_order({A}))
        )
        assert rules.solve(values)[T] == 3.0
        assert schedule.replay(values) == rules.solve(values)

    def test_closure(self):
        rules = _shared_target_rules()
        assert rules.closure({A}) == {A, B, C, T}
        assert rules.closure({B}) == {B, T}
        assert rules.closure({T}) == {T}


CORPUS = list(builtin_sources()) + [
    (f"gen-{seed}", ProgramGenerator(seed).source()) for seed in range(30)
]


@pytest.mark.parametrize(
    "name,source", CORPUS, ids=[name for name, _ in CORPUS]
)
def test_engine_matches_solve_on_real_plans(name, source):
    """Replay equals ``solve`` on a real run's counter values, and every
    drop probe's closure equals the measures ``solve`` resolves."""
    program = compile_source(source)
    plan = smart_program_plan(program)
    executor = PlanExecutor(plan)
    run_program(
        program,
        hooks=executor,
        inputs=DEFAULT_INPUTS.get(name, ()),
        seed=1,
        max_steps=200_000,
    )
    for proc, proc_plan in plan.plans.items():
        counter_values = executor.counter_values(proc)
        values = {
            measure: counter_values[cid]
            for cid, measure in proc_plan.counter_measures.items()
        }
        rules = proc_plan.rules
        assert reconstruction_schedule(proc_plan).replay(values) == (
            rules.solve(values)
        )
        for measure in values:
            probe = {m: v for m, v in values.items() if m != measure}
            assert rules.closure(set(probe)) == set(rules.solve(probe))
