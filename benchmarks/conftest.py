"""Shared fixtures, the one timing path and the one result writer.

Each benchmark module regenerates one of the paper's tables/figures
(see DESIGN.md's per-experiment index).  Reproduced tables are printed
AND written to ``benchmarks/results/*.txt`` so they survive pytest's
output capture; shape assertions live inside the benchmark tests.

Every timing is a ``repro.validate.measure.Measurement`` (mean with a
Student-t 95% CI): single legs come from ``measure_callable``, ratio
gates from :func:`interleaved`, and a gate reads the ratio of leg
means.  :func:`record` writes every ``BENCH_<name>.json`` in one
schema, ``{env, end_to_end, layers}``.
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path
from typing import Callable

import pytest

from repro import naive_program_plan, run_program, smart_program_plan
from repro.profiling import PlanExecutor
from repro.validate.calibrate import machine_fingerprint
from repro.validate.corpus import corpus_sources
from repro.validate.measure import Measurement

RESULTS_DIR = Path(__file__).parent / "results"

#: The execution engines a speed gate compares.
BACKENDS = ("reference", "codegen")

#: The codegen and path gates cover the throughput workloads; the
#: 61-step `paper` fixture (and `simple`) ride along for visibility
#: but measure per-run latency more than execution throughput.
GATED_WORKLOADS = frozenset({"livermore", "generators"})

#: Iterate tiny workloads inside one timing sample so a 61-step
#: program is not measured against clock granularity and noise.
TARGET_STEPS_PER_SAMPLE = 40_000

#: The Section 3 counter-placement ladder.
LADDER = (
    ("naive", None),
    ("opt1", {"enable_drops": False, "enable_do_batch": False}),
    ("opt1+2", {"enable_drops": True, "enable_do_batch": False}),
    ("opt1+2+3", {"enable_drops": True, "enable_do_batch": True}),
)


def publish(name: str, text: str) -> None:
    """Print a reproduced table and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n[saved to benchmarks/results/{name}.txt]")


def interleaved(
    legs: dict[str, Callable[[int], object]], *, trials: int, warmup: int = 1
) -> dict[str, Measurement]:
    """Time legs in shared trials; one ``Measurement`` per leg.

    Like ``measure_callable``, each leg gets the trial index (warmup
    trials are negative).  The leg order rotates every trial, so a
    slow scheduling window hits all legs alike and the ratio of
    their means is far steadier than timing them back to back.
    """
    names = list(legs)
    samples: dict[str, list[float]] = {name: [] for name in names}
    for trial in range(-warmup, trials):
        shift = trial % len(names)
        for name in names[shift:] + names[:shift]:
            started = time.perf_counter_ns()
            legs[name](trial)
            elapsed = time.perf_counter_ns() - started
            if trial >= 0:
                samples[name].append(float(elapsed))
    return {
        name: Measurement(label=name, samples_ns=samples[name], warmup=warmup)
        for name in names
    }


def ms(measurement: Measurement) -> str:
    """``mean ± 95% CI half-width`` in milliseconds, for tables."""
    low, high = measurement.mean_ci()
    return f"{measurement.mean_ns / 1e6:.2f} ± {(high - low) / 2e6:.2f}"


def gate(value: float, limit: float, better: str, *, armed=True) -> dict:
    """One ``end_to_end`` entry; ``better`` is ``"higher"`` or ``"lower"``.

    A gate whose precondition fails on this machine (``armed=False``)
    is ``unmeasured``: recorded, but neither passed nor failed.
    """
    if not armed:
        status = "unmeasured"
    elif value >= limit if better == "higher" else value <= limit:
        status = "pass"
    else:
        status = "fail"
    return {"value": value, "gate": limit, "better": better, "status": status}


def _git_sha() -> str | None:
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=RESULTS_DIR.parent,
        capture_output=True, text=True,
    )
    return done.stdout.strip() or None


def record(
    name: str,
    *,
    end_to_end: dict[str, dict] | None = None,
    layers: dict[str, Measurement | dict],
    backend: str = "auto",
) -> dict:
    """Write ``results/BENCH_<name>.json``; returns the payload.

    ``layers`` values are ``Measurement``s, or plain dicts for figures
    that exist only as totals (a service histogram's sum and count).
    """
    payload = {
        "env": {
            **machine_fingerprint(), "git_sha": _git_sha(), "backend": backend
        },
        "end_to_end": end_to_end or {},
        "layers": {
            layer: {**value.as_dict(), "label": layer}
            if isinstance(value, Measurement) else value
            for layer, value in layers.items()
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"BENCH_{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return payload


def enforce(payload: dict) -> None:
    """Fail on any ``fail`` gate of a :func:`record` payload; skip the
    test, naming the core count, when a gate is ``unmeasured``."""
    gates = payload["end_to_end"]
    failed = {name: e for name, e in gates.items() if e["status"] == "fail"}
    assert not failed, f"gates failed: {failed}"
    unmeasured = [n for n, e in gates.items() if e["status"] == "unmeasured"]
    if unmeasured:
        pytest.skip(
            f"{unmeasured} unmeasured on {payload['env']['cpu_count']} "
            "cores; the readings are recorded"
        )


def front_end_corpus() -> list[tuple[str, str]]:
    """The checker/dataflow corpus: five builtins plus 12 generated."""
    return corpus_sources(
        only=("paper", "livermore", "simple", "shellsort", "gauss"),
        generated=12,
        gen_seed=0,
    )


def ladder_counts(program, **run_kwargs) -> dict[str, tuple[int, int]]:
    """``(static counters, dynamic updates)`` of one run per rung."""
    counts = {}
    for level, level_kwargs in LADDER:
        if level_kwargs is None:
            plan = naive_program_plan(program)
        else:
            plan = smart_program_plan(program, **level_kwargs)
        executor = PlanExecutor(plan)
        run_program(program, hooks=executor, **run_kwargs)
        counts[level] = (plan.n_counters, executor.updates)
    return counts


def time_cell(items, legs: dict[str, tuple], *, trials: int):
    """Time a composite cell's legs interleaved, like one batch sweep.

    ``items`` is ``[(program, run_kwargs), ...]``; ``legs`` maps a leg
    name to ``(new_hooks, run_kwargs)``.  A trial runs each program
    ``repeats`` times with fresh hooks; a warmup trial runs it once,
    just enough to emit its codegen variant.  Returns
    ``(measurements, last, steps)``: ``last[leg]`` is the final trial's
    ``(results, hooks)`` and ``steps`` counts one sample's steps.
    """
    steps = sum(
        run_program(program, backend="codegen", **kwargs).steps
        for program, kwargs in items
    )
    repeats = max(1, TARGET_STEPS_PER_SAMPLE // max(1, steps))
    last = {}

    def leg(name, new_hooks, run_kwargs):
        def run(trial):
            hooks, results = new_hooks(), []
            for (program, kwargs), hook in zip(items, hooks):
                for _ in range(repeats if trial >= 0 else 1):
                    result = run_program(
                        program, hooks=hook, **run_kwargs, **kwargs
                    )
                results.append(result)
            last[name] = (results, hooks)

        return run

    measurements = interleaved(
        {name: leg(name, *spec) for name, spec in legs.items()}, trials=trials
    )
    return measurements, last, repeats * steps


@pytest.fixture(scope="session")
def loops_program():
    from repro import compile_source
    from repro.workloads.livermore import livermore_source

    return compile_source(livermore_source(n=60, n2=8))


@pytest.fixture(scope="session")
def simple_program():
    from repro import compile_source
    from repro.workloads.simple_cfd import simple_source

    return compile_source(simple_source(n=10, ncycles=3))


@pytest.fixture(scope="session")
def paper_program():
    from repro.workloads.paper_example import paper_program as build

    return build()
