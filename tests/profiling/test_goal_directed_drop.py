"""Opt 2's goal-directed drop test against the closure-based oracle.

Placement drops a counter when its measure is derivable from the other
counters, searching only the measure's backward rule cone.  The drop
test it replaced re-derived the full closure per candidate and asked
whether every target stayed in it; that test lives on here as the
oracle, and both must produce the identical plan: counters, all three
registries, batch adds and rule lists, in order.
"""

import pytest

from repro import compile_source, smart_program_plan
from repro.errors import ProfilingError
from repro.profiling import placement
from repro.workloads import builtin_sources
from repro.workloads.generators import ProgramGenerator

SEED_BLOCKS = [range(start, start + 50) for start in range(0, 200, 50)]


def _closure_drop(plan, registry, key, known, producers) -> bool:
    """Drop a counter if the full target set stays in the closure."""
    cid = registry[key]
    measure = plan.counter_measures[cid]
    remaining = plan.measured() - {measure}
    closure = plan.rules.closure(remaining)
    if not all(target in closure for target in plan.targets):
        return False
    del registry[key]
    del plan.counter_measures[cid]
    known.discard(measure)
    return True


def _shape(program_plan) -> dict:
    return {
        name: (
            plan.counter_measures,
            plan.node_counters,
            plan.edge_counters,
            plan.batch_counters,
            plan.rules.rules,
            plan.targets,
            plan.id_space,
        )
        for name, plan in program_plan.plans.items()
    }


def _assert_same_plans(source, monkeypatch):
    program = compile_source(source)
    fast = _shape(smart_program_plan(program))
    with monkeypatch.context() as patch:
        patch.setattr(placement, "_try_drop", _closure_drop)
        oracle = _shape(smart_program_plan(program))
    assert fast == oracle


@pytest.mark.parametrize(
    "name,source",
    list(builtin_sources()),
    ids=[name for name, _ in builtin_sources()],
)
def test_builtin_plans_match_the_closure_oracle(name, source, monkeypatch):
    _assert_same_plans(source, monkeypatch)


@pytest.mark.parametrize(
    "seeds", SEED_BLOCKS, ids=[f"seeds{s.start}-{s.stop - 1}" for s in SEED_BLOCKS]
)
def test_generated_plans_match_the_closure_oracle(seeds, monkeypatch):
    for seed in seeds:
        _assert_same_plans(ProgramGenerator(seed).source(), monkeypatch)


def test_derivable_is_closure_membership():
    """Every counter of a real plan: the cone search answers exactly
    whether the closure of the other counters holds its measure."""
    program = compile_source(dict(builtin_sources())["livermore"])
    for name, plan in smart_program_plan(program, enable_drops=False).plans.items():
        producers = placement._producers(plan.rules)
        measured = plan.measured()
        for measure in sorted(measured):
            others = measured - {measure}
            assert placement._derivable(measure, others, producers) == (
                measure in plan.rules.closure(others)
            ), (name, measure)


def test_oracle_patch_reaches_placement(monkeypatch):
    """The oracle really replaces the drop test (a no-op patch would
    make the identity tests vacuous)."""
    calls = []

    def spy(plan, registry, key, known, producers):
        calls.append(key)
        return _closure_drop(plan, registry, key, known, producers)

    monkeypatch.setattr(placement, "_try_drop", spy)
    smart_program_plan(compile_source(dict(builtin_sources())["paper"]))
    assert calls


def test_counters_measure_targets():
    """The premise that makes the local drop test equal the oracle:
    every counter of the undropped plan measures a target."""
    sources = [src for _, src in builtin_sources()]
    sources += [ProgramGenerator(seed).source() for seed in range(40)]
    for source in sources:
        plans = smart_program_plan(compile_source(source), enable_drops=False)
        for plan in plans.plans.values():
            assert set(plan.counter_measures.values()) <= set(plan.targets)


def test_faulty_drop_is_caught_after_the_drops(monkeypatch):
    """The full-closure validation runs on the final counters, so a
    drop that loses a target fails at plan time, not at reconstruction."""

    def drop_everything(plan, registry, key, known, producers):
        del plan.counter_measures[registry.pop(key)]
        return True

    monkeypatch.setattr(placement, "_try_drop", drop_everything)
    with pytest.raises(ProfilingError, match="cannot reconstruct"):
        smart_program_plan(compile_source(dict(builtin_sources())["paper"]))
