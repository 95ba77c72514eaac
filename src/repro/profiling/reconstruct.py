"""Reconstruction of full profiles from reduced counter sets.

Given final counter values and the plan that produced them, resolve
every dropped measure via the plan's derivation rules (guaranteed to
complete because placement validated the rule closure symbolically)
and assemble a :class:`ProcedureProfile`.

Which rules fire, and in which order, depends only on *which* measures
the counters provide — never on their numeric values — so each plan
takes its order once from :meth:`RuleSet.firing_order`, the engine
the checker's REP201 also uses, and caches it as a
:class:`ReconstructionSchedule`.  Replaying the schedule performs the
same float additions in the same order as :meth:`RuleSet.solve`, so
results are bit-identical, without a per-call fixpoint.
"""

from __future__ import annotations

from repro.errors import ProfilingError
from repro.profiling.database import ProcedureProfile, ProgramProfile
from repro.profiling.measures import DerivedRule, Measure
from repro.profiling.placement import CounterPlan, ProgramPlan
from repro.profiling.runtime import PlanExecutor


class ReconstructionSchedule:
    """The precomputed firing order of one plan's derivation rules."""

    __slots__ = ("order",)

    def __init__(self, order: tuple[DerivedRule, ...]):
        self.order = order

    def replay(self, values: dict[Measure, float]) -> dict[Measure, float]:
        """Resolve every derivable measure; bit-identical to ``solve``.

        ``values`` must provide exactly the plan's counter measures —
        the known set the schedule was computed against.
        """
        resolved = dict(values)
        for rule in self.order:
            total = rule.bias
            for coefficient, term in rule.terms:
                if isinstance(term, tuple):
                    total += coefficient * resolved[term]
                else:
                    total += coefficient * term
            resolved[rule.target] = total
        return resolved


def reconstruction_schedule(plan: CounterPlan) -> ReconstructionSchedule:
    """The (cached) rule schedule of one procedure's plan.

    :meth:`RuleSet.firing_order` with the counter measures as the known
    set: the rules in the exact order :meth:`RuleSet.solve` fires them.
    """
    cached = getattr(plan, "_cached_schedule", None)
    if cached is not None:
        return cached
    rules = plan.rules.rules
    schedule = ReconstructionSchedule(
        tuple(rules[i] for i in plan.rules.firing_order(plan.measured()))
    )
    plan._cached_schedule = schedule
    return schedule


def reconstruct_procedure(
    plan: CounterPlan, counter_values: dict[int, float]
) -> ProcedureProfile:
    """Resolve all target measures of one procedure's plan."""
    values: dict[Measure, float] = {}
    for cid, measure in plan.counter_measures.items():
        if cid not in counter_values:
            raise ProfilingError(
                f"{plan.proc}: missing value for counter {cid}"
            )
        values[measure] = counter_values[cid]
    resolved = reconstruction_schedule(plan).replay(values)

    profile = ProcedureProfile(plan.proc)
    for target in plan.targets:
        if target not in resolved:
            raise ProfilingError(
                f"{plan.proc}: could not reconstruct measure {target}"
            )
        value = resolved[target]
        if target == ("invoc",):
            profile.invocations = value
        elif target[0] == "cond":
            profile.branch_counts[(target[1], target[2])] = value
        elif target[0] == "header":
            profile.header_counts[target[1]] = value
        elif target[0] == "block":
            # Naive plans measure basic blocks; the condition-level
            # material the analysis needs is absent, but the block
            # counts themselves are a full node-execution profile
            # (see :func:`expand_block_counts`).
            profile.block_counts[target[1]] = value
    return profile


def reconstruct_profile(
    plan: ProgramPlan, executor: PlanExecutor, runs: int = 1
) -> ProgramProfile:
    """Reconstruct a whole program's profile from an executed plan."""
    profile = ProgramProfile(runs=runs)
    for name, proc_plan in plan.plans.items():
        profile.procedures[name] = reconstruct_procedure(
            proc_plan, executor.counter_values(name)
        )
    return profile


def expand_block_counts(
    cfg, block_counts: dict[int, float]
) -> dict[int, float]:
    """Per-node execution counts from per-block counts.

    Every member of a basic block executes exactly as often as its
    leader, so a naive plan's block profile expands to the same
    node-execution profile the interpreter observes — the differential
    tests compare the two directly.
    """
    from repro.profiling.placement import basic_blocks

    counts: dict[int, float] = {}
    for leader, members in basic_blocks(cfg).items():
        value = block_counts.get(leader, 0.0)
        for member in members:
            counts[member] = value
    return counts
