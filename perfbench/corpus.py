"""Seeded inputs: the programs each workload runs and their run specs.

Everything here is a pure function of the workload seed.  Generated
programs come from :class:`repro.workloads.ProgramGenerator` with seeds
drawn from the workload seed, kept only when their source falls in a
stated size band (``GEN_LINES``): the size decides how much front-end
and emission work a program costs, so a fixed band keeps runs with
different seeds comparable while their control flow still varies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Source-line band of generated programs, ``[low, high)``.
GEN_LINES = (60, 80)


@dataclass(frozen=True)
class Program:
    """One corpus program and the runs an operation profiles it over."""

    id: str
    source: str
    runs: tuple[dict, ...]


def workload_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def builtin_sources(only: tuple[str, ...] | None = None) -> list[tuple[str, str]]:
    from repro.workloads import builtin_sources as all_builtins

    pairs = all_builtins()
    if only is None:
        return pairs
    by_id = dict(pairs)
    return [(name, by_id[name]) for name in only]


def generated_sources(rng: random.Random, count: int) -> list[tuple[str, str]]:
    """``count`` generated programs whose length is inside ``GEN_LINES``."""
    from repro.workloads import ProgramGenerator

    low, high = GEN_LINES
    out: list[tuple[str, str]] = []
    while len(out) < count:
        gen_seed = rng.randrange(1 << 31)
        source = ProgramGenerator(gen_seed).source()
        if low <= len(source.splitlines()) < high:
            out.append((f"gen-{gen_seed}", source))
    return out


def run_specs(rng: random.Random, program_id: str, count: int) -> tuple[dict, ...]:
    """``count`` run specs; builtins that read INPUT() get their vectors."""
    from repro.validate.corpus import DEFAULT_INPUTS

    inputs = tuple(DEFAULT_INPUTS.get(program_id, ()))
    return tuple(
        {"seed": rng.randrange(1 << 30), "inputs": inputs}
        for _ in range(count)
    )
