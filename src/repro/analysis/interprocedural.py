"""Interprocedural driver: rule 2 and the bottom-up call-graph order.

Rule 2 of Section 4: a call node's COST is the callee's TIME(START),
the same average for every call site.  Procedures are therefore
visited bottom-up in the call graph.  By analogy, a call node's
*cost variance* is the callee's VAR(START) (callee executions are
assumed independent), which propagates variance interprocedurally.

Recursion (which the paper defers to [Sar87, Sar89]) is handled by an
optional geometric-closure extension: the procedures of a call-graph
SCC are solved by fixpoint iteration of the linear TIME equations —
convergent exactly when the expected number of recursive calls per
invocation is below 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import AnalysisError
from repro.analysis.distributions import (
    LoopDistribution,
    LoopVariance,
    distribution_loop_variance,
    profiled_loop_variance,
    zero_loop_variance,
)
from repro.analysis.freq import FrequencyAnalysis, compute_frequencies
from repro.analysis.time import compute_times
from repro.analysis.variance import VarianceResult, compute_variances
from repro.callgraph import CallGraph, build_call_graph
from repro.cdg import FCDG, build_fcdg
from repro.cfg.graph import ControlFlowGraph
from repro.costs.estimate import CostEstimator, NodeCost
from repro.costs.model import MachineModel
from repro.ecfg import ExtendedCFG, build_ecfg
from repro.lang.symbols import CheckedProgram
from repro.profiling.database import ProgramProfile

#: How loop-frequency variance is modelled: the paper's zero default,
#: an assumed distribution, profiled second moments, or a callable.
LoopVarianceSpec = (
    str | LoopDistribution | Callable[[int, float], float] | None
)


@dataclass
class ProcedureAnalysis:
    """All per-procedure artifacts and results."""

    name: str
    cfg: ControlFlowGraph
    ecfg: ExtendedCFG
    fcdg: FCDG
    freqs: FrequencyAnalysis
    node_costs: dict[int, NodeCost]
    #: COST(u) with callee TIMEs folded in (what the TIME pass saw).
    effective_costs: dict[int, float] = field(default_factory=dict)
    times: dict[int, float] = field(default_factory=dict)
    variances: VarianceResult | None = None

    @property
    def time(self) -> float:
        """TIME(START): average execution time of one invocation."""
        return self.times[self.ecfg.start]

    @property
    def var(self) -> float:
        return self.variances.var[self.ecfg.start]

    @property
    def std_dev(self) -> float:
        return self.variances.std_dev(self.ecfg.start)


@dataclass
class ProgramAnalysis:
    """Program-wide results, keyed by procedure."""

    checked: CheckedProgram
    model: MachineModel
    call_graph: CallGraph
    procedures: dict[str, ProcedureAnalysis] = field(default_factory=dict)

    @property
    def main(self) -> ProcedureAnalysis:
        return self.procedures[self.checked.unit.main.name]

    @property
    def total_time(self) -> float:
        """Average execution time of one program run."""
        return self.main.time

    @property
    def total_var(self) -> float:
        return self.main.var

    @property
    def total_std_dev(self) -> float:
        return self.main.std_dev


def _resolve_loop_variance(
    spec: LoopVarianceSpec, fcdg: FCDG, profile
) -> LoopVariance:
    if spec is None or spec == "zero":
        return zero_loop_variance
    if spec == "profiled":
        return profiled_loop_variance(fcdg, profile)
    if isinstance(spec, LoopDistribution):
        return distribution_loop_variance(spec)
    if callable(spec):
        return spec
    raise AnalysisError(f"unknown loop variance spec {spec!r}")


def analyze_program(
    checked: CheckedProgram,
    cfgs: dict[str, ControlFlowGraph],
    profile: ProgramProfile,
    model: MachineModel,
    *,
    loop_variance: LoopVarianceSpec = "zero",
    artifacts: dict[str, tuple[ExtendedCFG, FCDG]] | None = None,
    call_graph: CallGraph | None = None,
    estimator: CostEstimator | None = None,
    recursion_max_iter: int = 200,
    recursion_tol: float = 1e-9,
) -> ProgramAnalysis:
    """Compute TIME and VAR for every procedure of a program.

    ``artifacts`` may carry pre-built (ECFG, FCDG) pairs and
    ``call_graph`` the program's pre-built call graph, to avoid
    recomputation; ``loop_variance`` selects the VAR(FREQ) model;
    ``estimator`` may replace the default table-driven COST estimator
    (anything with a compatible ``cfg_costs``).
    """
    if call_graph is None:
        call_graph = build_call_graph(checked)
    if estimator is None:
        estimator = CostEstimator(checked, model)
    analysis = ProgramAnalysis(
        checked=checked, model=model, call_graph=call_graph
    )

    # Per-procedure structural prework (independent of the call graph).
    loop_var_fns: dict[str, LoopVariance] = {}
    for name, cfg in cfgs.items():
        if artifacts is not None and name in artifacts:
            ecfg, fcdg = artifacts[name]
        else:
            ecfg = build_ecfg(cfg)
            fcdg = build_fcdg(ecfg)
        proc_profile = profile.proc(name)
        freqs = compute_frequencies(fcdg, proc_profile)
        analysis.procedures[name] = ProcedureAnalysis(
            name=name,
            cfg=cfg,
            ecfg=ecfg,
            fcdg=fcdg,
            freqs=freqs,
            node_costs=estimator.cfg_costs(cfg, name),
        )
        loop_var_fns[name] = _resolve_loop_variance(
            loop_variance, fcdg, proc_profile
        )

    times: dict[str, float] = {}
    variances: dict[str, float] = {}

    def solve(name: str) -> None:
        proc = analysis.procedures[name]
        effective: dict[int, float] = {}
        cost_var: dict[int, float] = {}
        for node_id, node_cost in proc.node_costs.items():
            total = node_cost.local
            var_total = 0.0
            for callee in node_cost.calls:
                total += times.get(callee, 0.0)
                var_total += variances.get(callee, 0.0)
            effective[node_id] = total
            if var_total:
                cost_var[node_id] = var_total
        proc.effective_costs = effective
        proc.times = compute_times(proc.fcdg, proc.freqs, effective)
        proc.variances = compute_variances(
            proc.fcdg,
            proc.freqs,
            proc.times,
            cost_variance=cost_var,
            loop_variance=loop_var_fns[name],
        )
        times[name] = proc.time
        variances[name] = proc.var

    for scc in call_graph.sccs:
        recursive = len(scc) > 1 or scc[0] in call_graph.calls.get(scc[0], {})
        if not recursive:
            solve(scc[0])
            continue
        # Geometric-closure extension: fixpoint over the SCC.
        for name in scc:
            times[name] = 0.0
            variances[name] = 0.0
        previous_delta = float("inf")
        for _ in range(recursion_max_iter):
            delta = 0.0
            for name in scc:
                old_time = times[name]
                old_var = variances[name]
                solve(name)
                delta = max(
                    delta,
                    abs(times[name] - old_time),
                    abs(variances[name] - old_var),
                )
            if delta <= recursion_tol:
                break
            if delta > previous_delta * 1.0001 and delta > 1e6:
                raise AnalysisError(
                    f"recursive cost of {scc} diverges: the expected number "
                    "of recursive calls per invocation is >= 1"
                )
            previous_delta = delta
        else:
            raise AnalysisError(
                f"recursive cost of {scc} did not converge in "
                f"{recursion_max_iter} iterations"
            )
    return analysis
