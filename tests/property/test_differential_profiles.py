"""Differential fuzzing of the three profiling modes.

Every profiling mode must tell the same story about the same run:

* the **smart plan** (optimized counter placement, Section 3) must
  reconstruct ``TOTAL_FREQ`` material identical to the **oracle**
  (interpreter ground truth), and the Definition-3 top-down pass over
  both must yield identical ``NODE_FREQ`` / ``FREQ`` values;
* the **naive plan** (one counter per basic block) measures node
  executions directly; expanded to per-node counts it must equal both
  the interpreter's observed node counts and the smart plan's
  ``NODE_FREQ × invocations``;
* the smart plan must never place more counters than the naive plan,
  and never perform more runtime updates.

Exercised over ~50 seeded generator programs (deterministic — each
seed is one parametrized case), one run each, plus a handful of seeds
with multiple accumulated runs.
"""

import pytest

from repro import (
    compile_source,
    naive_program_plan,
    oracle_program_profile,
    run_program,
    smart_program_plan,
)
from repro.analysis.freq import compute_frequencies
from repro.profiling import (
    PlanExecutor,
    expand_block_counts,
    reconstruct_profile,
)
from repro.workloads.generators import ProgramGenerator

pytestmark = [pytest.mark.differential, pytest.mark.slow]

N_PROGRAMS = 50

_CACHE: dict[int, object] = {}


def _program(gen_seed: int):
    if gen_seed not in _CACHE:
        _CACHE[gen_seed] = compile_source(ProgramGenerator(gen_seed).source())
    return _CACHE[gen_seed]


def _profiles(program, run_seed: int):
    """One run observed simultaneously by all three modes."""
    smart = smart_program_plan(program)
    naive = naive_program_plan(program)
    smart_exec = PlanExecutor(smart)
    naive_exec = PlanExecutor(naive)
    # Same seed -> identical branch outcomes in every execution.  The
    # interpreter's node counts come from the plan-free run: runs
    # driven by a plan record none.
    run_program(program, hooks=smart_exec, seed=run_seed)
    run_program(program, hooks=naive_exec, seed=run_seed)
    result = run_program(program, seed=run_seed)
    return {
        "result": result,
        "smart_plan": smart,
        "naive_plan": naive,
        "smart": reconstruct_profile(smart, smart_exec, runs=1),
        "naive": reconstruct_profile(naive, naive_exec, runs=1),
        "oracle": oracle_program_profile(program, runs=[{"seed": run_seed}]),
    }


@pytest.mark.parametrize("gen_seed", range(N_PROGRAMS))
def test_all_modes_agree(gen_seed):
    program = _program(gen_seed)
    run_seed = 7919 * (gen_seed + 1)  # deterministic, distinct per program
    modes = _profiles(program, run_seed)

    for name in program.cfgs:
        fcdg = program.fcdgs[name]
        smart_proc = modes["smart"].proc(name)
        oracle_proc = modes["oracle"].proc(name)

        # 1. Raw TOTAL_FREQ material: smart reconstruction == oracle.
        assert smart_proc.invocations == oracle_proc.invocations, name
        for key, value in smart_proc.branch_counts.items():
            assert value == oracle_proc.branch_counts.get(key, 0.0), (name, key)
        for header, value in smart_proc.header_counts.items():
            assert value == oracle_proc.header_counts.get(header, 0.0), (
                name, header,
            )

        # 2. Definition-3 pass: identical FREQ / NODE_FREQ / TOTAL_FREQ.
        smart_freqs = compute_frequencies(fcdg, smart_proc)
        oracle_freqs = compute_frequencies(fcdg, oracle_proc)
        assert smart_freqs.total_freq == oracle_freqs.total_freq, name
        assert smart_freqs.freq == oracle_freqs.freq, name
        assert smart_freqs.node_freq == oracle_freqs.node_freq, name

        # 3. Naive block counts == interpreter node counts, node by node.
        observed = modes["result"].node_counts.get(name, {})
        naive_nodes = expand_block_counts(
            program.cfgs[name], modes["naive"].proc(name).block_counts
        )
        for node in program.cfgs[name].nodes:
            assert naive_nodes.get(node, 0.0) == float(
                observed.get(node, 0)
            ), (name, node)

        # 4. Cross-mode NODE_FREQ: smart's relative frequencies scale
        #    back to the naive plan's absolute counts.
        invocations = smart_proc.invocations
        for node, counted in naive_nodes.items():
            if node not in smart_freqs.node_freq:
                continue  # nodes pruned from the ECFG (unreachable)
            estimated = smart_freqs.node_freq[node] * invocations
            assert estimated == pytest.approx(counted, rel=1e-9, abs=1e-9), (
                name, node,
            )


@pytest.mark.parametrize("gen_seed", range(N_PROGRAMS))
def test_smart_never_places_more_counters(gen_seed):
    program = _program(gen_seed)
    smart = smart_program_plan(program)
    naive = naive_program_plan(program)
    assert smart.n_counters <= naive.n_counters
    for name in program.cfgs:
        assert smart.plans[name].n_counters <= naive.plans[name].n_counters, name


@pytest.mark.parametrize("gen_seed", [0, 11, 23, 37, 49])
def test_accumulated_runs_agree(gen_seed):
    """TOTAL_FREQ sums over runs: modes agree on accumulated profiles."""
    program = _program(gen_seed)
    run_specs = [{"seed": s} for s in (1, 2, 3)]
    smart = smart_program_plan(program)
    executor = PlanExecutor(smart)
    for spec in run_specs:
        run_program(program, hooks=executor, **spec)
    reconstructed = reconstruct_profile(smart, executor, runs=len(run_specs))
    oracle = oracle_program_profile(program, runs=run_specs)
    for name in program.cfgs:
        fcdg = program.fcdgs[name]
        smart_freqs = compute_frequencies(fcdg, reconstructed.proc(name))
        oracle_freqs = compute_frequencies(fcdg, oracle.proc(name))
        assert smart_freqs.total_freq == oracle_freqs.total_freq, name
        assert smart_freqs.node_freq == oracle_freqs.node_freq, name
