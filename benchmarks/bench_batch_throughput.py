"""Batch-profiling throughput: serial loop vs engine vs cached pool.

The paper's Table 1 argues optimized counter placement makes the
*runtime* side of profiling cheap.  This benchmark measures the
*toolchain* side over a (program × run-configuration) matrix:

* ``serial loop`` — today's one-at-a-time pipeline: every task calls
  ``compile_source`` + ``profile_program``, re-deriving CFGs, ECFGs,
  FCDGs and the counter plan for every run configuration;
* ``engine, cold cache`` — the batch engine with an empty disk cache:
  static artifacts derived once per *program*, amortized over its run
  configurations;
* ``engine, warm cache (serial/pooled)`` — a second invocation over
  the same workload: every compilation is served from the cache.

Acceptance: cached batch profiling (pooled, warm) must be at least
2× faster than the serial loop on the 32-program workload (ratio of
interleaved leg means), and serial and pooled execution must return
byte-identical aggregates.
"""

from __future__ import annotations

from repro import compile_source, profile_program
from repro.batch import BatchItem, run_batch
from repro.report import format_table
from repro.validate.measure import measure_callable
from repro.workloads.generators import ProgramGenerator

from conftest import enforce, gate, interleaved, publish, record

N_PROGRAMS = 32
RUN_CONFIGS = [{"seed": seed} for seed in range(6)]
#: Interleaved trials per leg.  The cold pass populates the cache
#: (which is also the warm legs' warmup), so no warmup trials run.
TRIALS = 3
_SPEEDUP_FLOOR = 2.0
#: Table rows: layer -> configuration.
CONFIGURATIONS = {
    "batch.serial_loop": "serial loop (recompile per task)",
    "batch.engine_cold": "engine, cold cache (serial, 1 pass)",
    "batch.engine_warm": "engine, warm cache (serial)",
    "batch.engine_warm_pooled": "engine, warm cache (pooled)",
}


def _workload() -> list[BatchItem]:
    return [
        BatchItem(
            id=f"gen-{seed}",
            source=ProgramGenerator(seed).source(),
            runs=tuple(dict(spec) for spec in RUN_CONFIGS),
        )
        for seed in range(N_PROGRAMS)
    ]


def _serial_loop(items: list[BatchItem]) -> None:
    """The pre-batch pipeline: re-derive everything per (program, run)."""
    for item in items:
        for spec in item.runs:
            program = compile_source(item.source)
            profile_program(program, runs=[dict(spec)])


def test_batch_throughput(tmp_path):
    items = _workload()
    reports = {}

    def engine(label, **kwargs):
        def run(_trial):
            reports[label] = run_batch(items, cache=tmp_path, **kwargs)

        return run

    # The cold pass fills the cache, so it has exactly one sample.
    layers = {
        "batch.engine_cold": measure_callable(
            engine("cold", mode="serial"), trials=1, label="batch.engine_cold"
        ),
        **interleaved(
            {
                "batch.serial_loop": lambda _trial: _serial_loop(items),
                "batch.engine_warm": engine("warm", mode="serial"),
                "batch.engine_warm_pooled": engine(
                    "pooled", mode="process", jobs=2
                ),
            },
            trials=TRIALS,
            warmup=0,
        ),
    }

    assert all(r.ok for r in reports["cold"].results)
    assert reports["cold"].cache_stats["misses"] == N_PROGRAMS
    assert reports["warm"].cache_stats["misses"] == 0
    assert reports["pooled"].cache_stats["misses"] == 0

    # Determinism: execution mode and cache temperature must not leak
    # into the aggregate.  Byte-identical, not just numerically close.
    aggregates = {label: r.aggregate_json() for label, r in reports.items()}
    assert aggregates["cold"] == aggregates["warm"] == aggregates["pooled"]

    serial_loop = layers["batch.serial_loop"].mean_ns
    tasks = N_PROGRAMS * len(RUN_CONFIGS)
    publish(
        "batch_throughput",
        format_table(
            ["configuration", "tasks", "seconds", "speedup"],
            [
                [text, tasks, layers[layer].mean_ns / 1e9,
                 serial_loop / layers[layer].mean_ns]
                for layer, text in CONFIGURATIONS.items()
            ],
            title=(
                f"batch profiling throughput: {N_PROGRAMS} programs x "
                f"{len(RUN_CONFIGS)} run configs "
                f"(mean of {TRIALS} interleaved trials)"
            ),
        ),
    )
    pooled_speedup = serial_loop / layers["batch.engine_warm_pooled"].mean_ns
    enforce(
        record(
            "batch",
            end_to_end={
                "batch.pooled_warm_speedup": gate(
                    pooled_speedup, _SPEEDUP_FLOOR, "higher"
                )
            },
            layers=layers,
        )
    )


def test_cache_amortizes_repeated_configs(tmp_path):
    """More run configs per program -> bigger win from cached artifacts."""
    source = ProgramGenerator(5).source()
    many_runs = tuple({"seed": seed} for seed in range(8))
    item = BatchItem(id="hot", source=source, runs=many_runs)
    reports = []
    legs = interleaved(
        {
            "batch.loop_8_configs": lambda _trial: _serial_loop([item]),
            # A fresh cache per trial: one compilation instead of eight.
            "batch.engine_8_configs": lambda trial: reports.append(
                run_batch([item], mode="serial", cache=tmp_path / f"c{trial}")
            ),
        },
        trials=TRIALS,
    )
    assert all(r.cache_stats["misses"] == 1 for r in reports)
    assert all(r.results[0].ok for r in reports)
    # The engine must not be slower than recompiling per config.
    speedup = (
        legs["batch.loop_8_configs"].mean_ns
        / legs["batch.engine_8_configs"].mean_ns
    )
    enforce(
        record(
            "batch_amortization",
            end_to_end={
                "batch.amortized_speedup": gate(speedup, 1.0, "higher")
            },
            layers=legs,
        )
    )
