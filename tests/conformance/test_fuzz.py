"""Seeded structural fuzzing of the cross-backend contract.

The conformance corpus only covers programs the generator naturally
produces.  This suite perturbs those programs *structurally* — swap
the arms of an IF, change a DO trip count, inject an early STOP,
negate a relational, nudge a constant — and requires every mutant
that still compiles to be bit-identical on the codegen backend and
the reference interpreter (or for the codegen lowering to opt out with
an explicit :class:`LoweringError`; silent divergence is the only
failure).

All randomness is ``random.Random`` seeded from the case id, so every
failure replays exactly.  A failing mutant is greedily minimized
(mutations are dropped one at a time while the failure persists) and
the reproducer source is written to the directory named by the
``REPRO_FUZZ_FAILURES`` environment variable (falling back to the
test's tmp dir) before the assertion is re-raised.
"""

import json
import os
import random
import re

import pytest

from repro.errors import ReproError
from repro.codegen import LoweringError
from repro.pipeline import compile_source
from repro.workloads.generators import ProgramGenerator
from tests.conformance.harness import assert_conformance

pytestmark = [pytest.mark.conformance, pytest.mark.differential]

N_CASES = 40

_RELOP_FLIPS = {
    ".LT.": ".GE.",
    ".GE.": ".LT.",
    ".GT.": ".LE.",
    ".LE.": ".GT.",
    ".EQ.": ".NE.",
    ".NE.": ".EQ.",
}

_DO_RE = re.compile(r"^(\s*)DO (\d+) (\w+) = (.+?), (\d+)\s*$")
_FLOAT_RE = re.compile(r"\d\.\d+")


# -- mutators ------------------------------------------------------------
#
# Each mutator takes (lines, rng) and returns the mutated line list, or
# None when the program offers no site for it.  Mutators are pure in
# (lines, rng seed), so a mutation plan replays deterministically.


def _if_blocks(lines):
    """All (if_idx, else_idx, endif_idx) triples with a real ELSE arm."""
    stack, found = [], []
    for i, line in enumerate(lines):
        text = line.strip()
        if text.startswith("IF (") and text.endswith("THEN"):
            stack.append([i, None])
        elif text == "ELSE" and stack:
            stack[-1][1] = i
        elif text == "ENDIF" and stack:
            if_idx, else_idx = stack.pop()
            if else_idx is not None:
                found.append((if_idx, else_idx, i))
    return found


def _swap_if_arms(lines, rng):
    blocks = _if_blocks(lines)
    if not blocks:
        return None
    if_idx, else_idx, endif_idx = rng.choice(blocks)
    then_arm = lines[if_idx + 1 : else_idx]
    else_arm = lines[else_idx + 1 : endif_idx]
    return (
        lines[: if_idx + 1]
        + else_arm
        + [lines[else_idx]]
        + then_arm
        + lines[endif_idx:]
    )


def _perturb_trip(lines, rng):
    sites = [i for i, line in enumerate(lines) if _DO_RE.match(line)]
    if not sites:
        return None
    i = rng.choice(sites)
    match = _DO_RE.match(lines[i])
    stop = int(match.group(5))
    new_stop = rng.choice([stop + 1, max(stop - 1, 0), stop * 2, 0, 1])
    out = list(lines)
    out[i] = (
        f"{match.group(1)}DO {match.group(2)} {match.group(3)} = "
        f"{match.group(4)}, {new_stop}"
    )
    return out


def _inject_stop(lines, rng):
    sites = [
        i
        for i, line in enumerate(lines)
        if re.match(r"^\s+(\w+(\([^)]*\))? = |PRINT |CALL )", line)
    ]
    if not sites:
        return None
    i = rng.choice(sites)
    return lines[:i] + ["      STOP"] + lines[i:]


def _negate_relop(lines, rng):
    sites = [
        (i, op)
        for i, line in enumerate(lines)
        for op in _RELOP_FLIPS
        if op in line
    ]
    if not sites:
        return None
    i, op = rng.choice(sites)
    out = list(lines)
    out[i] = out[i].replace(op, _RELOP_FLIPS[op], 1)
    return out


def _perturb_const(lines, rng):
    sites = [i for i, line in enumerate(lines) if _FLOAT_RE.search(line)]
    if not sites:
        return None
    i = rng.choice(sites)
    old = _FLOAT_RE.search(lines[i]).group(0)
    new = f"{float(old) + rng.choice([-1.0, 0.5, 2.0]):.3f}"
    out = list(lines)
    out[i] = out[i].replace(old, new, 1)
    return out


MUTATORS = {
    "swap-if-arms": _swap_if_arms,
    "perturb-trip": _perturb_trip,
    "inject-stop": _inject_stop,
    "negate-relop": _negate_relop,
    "perturb-const": _perturb_const,
}


def _make_plan(case: int):
    """The deterministic mutation plan for one fuzz case."""
    rng = random.Random(0x5EED ^ (case * 2654435761))
    k = 1 + rng.randrange(3)
    return [
        (rng.choice(sorted(MUTATORS)), rng.getrandbits(32)) for _ in range(k)
    ]


def _apply_plan(source: str, plan):
    """Apply a mutation plan; returns (mutant_source, applied_steps)."""
    lines = source.splitlines()
    applied = []
    for op, op_seed in plan:
        mutated = MUTATORS[op](lines, random.Random(op_seed))
        if mutated is not None:
            lines = mutated
            applied.append((op, op_seed))
    return "\n".join(lines) + "\n", applied


# -- the oracle ----------------------------------------------------------


def _check_mutant(source: str, *, seed: int):
    """None if conformant (or codegen opted out); the failure otherwise."""
    try:
        program = compile_source(source)
    except ReproError:
        return None  # mutant does not compile: vacuous, not a divergence
    try:
        assert_conformance(program, seed=seed, max_steps=100_000)
    except LoweringError:
        return None  # explicit opt-out is allowed; silence is not
    except AssertionError as failure:
        return failure
    return None


def _minimize(source: str, applied, *, seed: int):
    """Greedily drop mutations while the conformance failure persists."""
    current = list(applied)
    shrunk = True
    while shrunk and len(current) > 1:
        shrunk = False
        for drop in range(len(current)):
            candidate = current[:drop] + current[drop + 1 :]
            mutant, replayed = _apply_plan(source, candidate)
            if replayed == candidate and _check_mutant(mutant, seed=seed):
                current = candidate
                shrunk = True
                break
    return current


def _failure_dir(tmp_path):
    configured = os.environ.get("REPRO_FUZZ_FAILURES")
    if configured:
        os.makedirs(configured, exist_ok=True)
        return configured
    return str(tmp_path)


@pytest.mark.parametrize("case", range(N_CASES))
def test_fuzzed_mutant_conforms(case, tmp_path):
    base = ProgramGenerator(case).source()
    plan = _make_plan(case)
    mutant, applied = _apply_plan(base, plan)
    if not applied:
        pytest.skip("no mutation site in this program")
    run_seed = 104729 * (case + 1)
    failure = _check_mutant(mutant, seed=run_seed)
    if failure is None:
        return
    minimal = _minimize(base, applied, seed=run_seed)
    repro_source, _ = _apply_plan(base, minimal)
    out_dir = _failure_dir(tmp_path)
    stem = os.path.join(out_dir, f"fuzz-case-{case}")
    with open(stem + ".f", "w") as handle:
        handle.write(repro_source)
    with open(stem + ".json", "w") as handle:
        json.dump(
            {
                "case": case,
                "generator_seed": case,
                "run_seed": run_seed,
                "mutations": [list(step) for step in minimal],
                "failure": str(failure),
            },
            handle,
            indent=2,
        )
    raise AssertionError(
        f"fuzz case {case} diverges across backends "
        f"(minimized reproducer: {stem}.f): {failure}"
    ) from failure


def test_corpus_is_not_vacuous():
    """Most fuzz cases must mutate and most mutants must still compile."""
    mutated = compiled = 0
    for case in range(N_CASES):
        base = ProgramGenerator(case).source()
        mutant, applied = _apply_plan(base, _make_plan(case))
        if not applied:
            continue
        mutated += 1
        try:
            compile_source(mutant)
        except ReproError:
            continue
        compiled += 1
    assert mutated >= int(N_CASES * 0.8), mutated
    assert compiled >= int(N_CASES * 0.5), compiled


@pytest.mark.parametrize("op", sorted(MUTATORS))
def test_each_mutator_fires(op):
    """Every mutator finds a site somewhere in the first 40 programs."""
    for case in range(N_CASES):
        lines = ProgramGenerator(case).source().splitlines()
        if MUTATORS[op](lines, random.Random(7)) is not None:
            return
    raise AssertionError(f"mutator {op} never fired on the corpus")
