"""Self-tests of the benchmark: ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import copy
from pathlib import Path

import pytest

from perfbench import checks, library, service

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def estimated():
    """One checked profile-hot op's ingredients, on the paper example."""
    import repro.pipeline as pipeline
    from repro.costs.model import SCALAR_MACHINE
    from repro.workloads import PAPER_SOURCE

    program = pipeline.compile_source(PAPER_SOURCE)
    runs = [{"seed": 3, "inputs": ()}, {"seed": 4, "inputs": ()}]
    profile, stats = pipeline.profile_program(
        program, runs, model=SCALAR_MACHINE
    )
    analysis = pipeline.analyze(program, profile)
    truth = checks.reference_truth(program, runs)
    return program, runs, profile, stats, analysis, truth


def test_check_accepts_a_correct_op(estimated):
    program, runs, profile, stats, analysis, truth = estimated
    assert checks.profile_mismatch(program.cfgs, profile, truth.profile) is None
    assert checks.outputs_mismatch(truth.outputs, truth.outputs) is None
    assert (
        checks.time_identity_mismatch(analysis.total_time, len(runs), stats.base_cost)
        is None
    )


def test_check_accepts_every_op_of_a_run():
    small = ("paper", "newton", "irreducible")  # the last two read INPUT()
    items = [
        item
        for item in library.estimate_cold_setup(seed=5)
        if item.program.id in small
    ]
    runner = library.Runner("estimate-cold", 5, items)
    runner.compute_truth()
    runner.measure(seconds=0.0, trace=False)
    assert runner.failures.count == 0
    assert all(op.ok for op in runner.ops)


def test_check_rejects_a_count_off_by_one(estimated):
    program, _runs, profile, _stats, _analysis, truth = estimated
    wrong = copy.deepcopy(profile)
    proc = next(p for p in wrong.procedures.values() if p.branch_counts)
    key = next(iter(proc.branch_counts))
    proc.branch_counts[key] += 1.0
    assert checks.profile_mismatch(program.cfgs, wrong, truth.profile)


def test_check_rejects_a_wrong_invocation_count(estimated):
    program, _runs, profile, _stats, _analysis, truth = estimated
    wrong = copy.deepcopy(profile)
    next(iter(wrong.procedures.values())).invocations += 1.0
    assert checks.profile_mismatch(program.cfgs, wrong, truth.profile)


def test_check_rejects_time_off_by_a_millionth(estimated):
    _program, runs, _profile, stats, analysis, _truth = estimated
    off = analysis.total_time * (1 + 1e-6)
    assert checks.time_identity_mismatch(off, len(runs), stats.base_cost)


def test_check_rejects_changed_outputs(estimated):
    *_rest, truth = estimated
    changed = [list(out) for out in truth.outputs]
    changed[0].append("extra")
    assert checks.outputs_mismatch(changed, truth.outputs)


def _assert_layers_cover_op(metrics):
    gap = metrics["trace.unattributed_ms"]
    allowed = max(metrics["trace.overhead_ms"], 0.0) + 0.05 * metrics["trace.op_p50_ms"]
    assert 0.0 <= gap <= allowed, metrics


@pytest.mark.parametrize("workload", ["estimate-cold", "profile-hot"])
def test_library_layer_self_times_sum_to_op_time(workload):
    result = library.run(workload, 7, 0.5, True, lambda: 0.0, 1)
    assert result["failed"] == 0
    metrics = result["metrics"]
    _assert_layers_cover_op(metrics)
    assert metrics["codegen.fallback_runs"] == 0
    assert metrics["analysis.busy_ms"] > 0
    assert all(metrics[name] >= 0 for name, _scale in library.LAYER_TIMES.values())


def test_service_layer_times_cover_op_time():
    result = service.run(7, 1.0, True, ROOT, lambda: 0.0, 1)
    assert result["failed"] == 0
    metrics = result["metrics"]
    _assert_layers_cover_op(metrics)
    for route in ("query", "profile", "ingest"):
        assert metrics[f"service.{route}_ms"] > 0
    assert metrics["codegen.fallback_runs"] == 0
