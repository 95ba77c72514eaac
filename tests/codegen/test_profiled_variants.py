"""Profiled runs pay for the program and the plan's updates only.

Ground-truth node/edge counts belong to plan-free runs: a run driven
by a counter or path plan records none, on either engine, and the
variants emitted for plans carry no hit bookkeeping.  Around that
rule, a profiled run's per-run set-up is paid once: the same plan and
model objects reuse the last variant without rebuilding its content
key, and the PRNG is seeded only when the program first draws.
"""

import random
import re

import pytest

from repro import (
    SCALAR_MACHINE,
    compile_source,
    naive_program_plan,
    smart_program_plan,
)
from repro.codegen import codegen_backend_for
from repro.obs import metrics
from repro.paths import PathExecutor, path_program_plan
from repro.pipeline import run_program
from repro.profiling import PlanExecutor
from repro.profiling.runtime import HookChain, LoopMomentRecorder
from repro.profiling.sampling import SamplingProfiler
from repro.workloads import builtin_sources
from repro.workloads.paper_example import PAPER_SOURCE

pytestmark = pytest.mark.codegen

#: Names of the plan-free variant's hit bookkeeping.
HIT_NAMES = re.compile(r"\b_h\d|\b_e\d|\b_blk\d|_NH_|_EH_")

BUILTINS = [name for name, _ in builtin_sources()]

#: Enough INPUT() values for every builtin that reads them.
INPUTS = (2.25, 9.0, 16.0)

_PROGRAMS: dict[str, object] = {}


def _builtin(name: str):
    if name not in _PROGRAMS:
        _PROGRAMS[name] = compile_source(dict(builtin_sources())[name])
    return _PROGRAMS[name]


def _emits(outcome: str) -> float:
    counter = metrics.registry().get("repro_codegen_emits_total")
    return counter.value(outcome=outcome) if counter is not None else 0.0


@pytest.mark.parametrize("name", BUILTINS)
def test_plan_variants_carry_no_hit_bookkeeping(name):
    program = _builtin(name)
    backend = codegen_backend_for(program)
    plans = {
        "smart": smart_program_plan(program),
        "naive": naive_program_plan(program),
        "paths": path_program_plan(program),
    }
    for kind, plan in plans.items():
        for model in (None, SCALAR_MACHINE):
            source = backend.emitted_source(plan, model)
            found = HIT_NAMES.search(source)
            assert found is None, (kind, model, found and found.group())
    # The plan-free variant is the oracle: it keeps them.
    assert "_NH_" in backend.emitted_source(None, SCALAR_MACHINE)


@pytest.mark.parametrize("backend", ["reference", "codegen"])
def test_plan_driven_runs_record_no_counts(backend):
    program = compile_source(PAPER_SOURCE)
    for hooks in (
        PlanExecutor(smart_program_plan(program)),
        PathExecutor(path_program_plan(program)),
    ):
        result = run_program(program, hooks=hooks, seed=3, backend=backend)
        assert result.node_counts == {} and result.edge_counts == {}
        assert result.call_counts["MAIN"] == 1
    plain = run_program(program, seed=3, backend=backend)
    assert plain.node_counts["MAIN"] and plain.edge_counts["MAIN"]


def test_other_hooks_keep_counts():
    """Sampling and chained hooks are not plan-driven: their runs keep
    the ground truth, equal to the hook-free run's."""
    program = compile_source(PAPER_SOURCE)
    plain = run_program(program, seed=3, backend="reference")
    chain = HookChain(
        PlanExecutor(smart_program_plan(program)),
        LoopMomentRecorder(program.ecfgs),
    )
    sampler = SamplingProfiler(
        program.checked, program.cfgs, SCALAR_MACHINE, interval=7.0
    )
    for hooks in (chain, sampler):
        result = run_program(program, hooks=hooks, seed=3)
        assert result.node_counts == plain.node_counts
        assert result.edge_counts == plain.edge_counts


def test_same_objects_reuse_the_last_variant(monkeypatch):
    program = compile_source(PAPER_SOURCE)
    plan = smart_program_plan(program)
    run_program(program, hooks=PlanExecutor(plan), model=SCALAR_MACHINE)
    before = _emits("ok")

    def no_content_key(_plan):
        raise AssertionError("content key rebuilt for the same objects")

    monkeypatch.setattr("repro.codegen.backend._plan_key", no_content_key)
    for seed in range(100):
        run_program(
            program, hooks=PlanExecutor(plan), model=SCALAR_MACHINE, seed=seed
        )
    assert _emits("ok") == before


def test_no_draw_builds_no_generator(monkeypatch):
    built = []

    class CountingRandom(random.Random):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(random, "Random", CountingRandom)
    program = compile_source(PAPER_SOURCE)
    plan = smart_program_plan(program)
    for backend in ("reference", "codegen"):
        run_program(program, hooks=PlanExecutor(plan), backend=backend)
        run_program(program, seed=4, backend=backend)
    assert built == []
    # A program that draws seeds its generator once per run, before
    # the first draw.
    drawing = _builtin("shellsort")
    assert "RAND" in drawing.source
    for backend in ("reference", "codegen"):
        run_program(drawing, seed=9, inputs=INPUTS, backend=backend)
    assert built == [(9,), (9,)]
