"""Measure keys and derivation rules shared by placement/reconstruction.

A *measure* is one quantity a profile needs.  Measures are plain
tuples so they serialize and hash naturally:

* ``("invoc",)``          — invocations of the procedure
  (``TOTAL_FREQ(START, U)``);
* ``("cond", u, l)``      — times node ``u`` took branch ``l``;
* ``("header", h)``       — executions of loop header ``h``
  (the loop-frequency condition of ``h``'s preheader);
* ``("exec", n)``         — executions of ECFG node ``n``; always
  derived as the sum of the node's firing control conditions;
* ``("block", n)``        — executions of the basic block led by ``n``
  (naive plans only).

A :class:`DerivedRule` states how a dropped measure is recovered from
others.  :meth:`RuleSet.firing_order` is the one engine that decides
which rules fire, and in which order, from a set of known measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import NamedTuple, Union

Measure = tuple  # ("invoc",) | ("cond", u, l) | ("header", h) | ...


def invoc_measure() -> Measure:
    return ("invoc",)


def cond_measure(node: int, label: str) -> Measure:
    return ("cond", node, label)


def header_measure(header: int) -> Measure:
    return ("header", header)


def exec_measure(node: int) -> Measure:
    return ("exec", node)


def block_measure(leader: int) -> Measure:
    return ("block", leader)


#: A dependency term: either a measure key or a literal constant.
Term = Union[Measure, float]


class DerivedRule(NamedTuple):
    """target = bias + Σ (coefficient × term).

    All four of the paper's derivations are linear, so one rule shape
    suffices:

    * complement (Opt 2, branches):
      ``cond(u, l*) = exec(u) − Σ_{l≠l*} cond(u, l)``
    * back-edge sum (Opt 2, loops):
      ``header(h) = exec(preheader) + Σ back-edge takings``
    * exit sum (Opt 2, loops):
      ``cond(u, l*) = exec(preheader) − Σ other exit takings``
    * constant trip count (Opt 3):
      ``header(h) = (trip + 1) × exec(preheader)``

    ``exec`` measures themselves are generated for every FCDG node as
    the sum of its parents' condition measures.

    A NamedTuple rather than a frozen dataclass: plan building and
    artifact verification construct and hash hundreds of rules per
    procedure, and tuple construction/hashing is several times
    cheaper than ``object.__setattr__``-based field init.
    """

    target: Measure
    kind: str
    terms: tuple[tuple[float, Term], ...]
    bias: float = 0.0

    def evaluate(self, values: dict[Measure, float]) -> float | None:
        """The rule's value, or None if a dependency is unresolved."""
        total = self.bias
        for coefficient, term in self.terms:
            if isinstance(term, tuple):
                if term not in values:
                    return None
                total += coefficient * values[term]
            else:
                total += coefficient * term
        return total


@dataclass
class RuleSet:
    """All rules of one plan, indexed for fixpoint evaluation."""

    rules: list[DerivedRule] = field(default_factory=list)

    def add(self, rule: DerivedRule) -> None:
        self.rules.append(rule)

    def firing_order(self, known: set[Measure]) -> list[int]:
        """Indices of the rules :meth:`solve` fires from ``known``, in
        its order: the one engine behind closure, reconstruction
        schedules and the checker's REP201.

        ``solve`` scans the rules in index order, pass after pass; this
        replays that with one min-heap per pass.  A rule whose last
        missing dependency rule ``i`` resolves joins the current pass if
        its index is above ``i``, else the next one.  A rule whose
        target is already resolved never fires, so rules for known
        measures are not even indexed.
        """
        rules = self.rules
        resolved = set(known)
        waiting: dict[Measure, list[int]] = {}  # dependency -> rules
        missing: dict[int, int] = {}  # rule -> unresolved dependencies
        current: list[int] = []  # ascending indices: already a heap
        for index, rule in enumerate(rules):
            if rule.target in resolved:
                continue
            deps = [
                term
                for _, term in rule.terms
                if isinstance(term, tuple) and term not in resolved
            ]
            if not deps:
                current.append(index)
            else:
                missing[index] = len(deps)
            for dep in deps:
                waiting.setdefault(dep, []).append(index)
        later: list[int] = []
        order: list[int] = []
        while current:
            index = heappop(current)
            target = rules[index].target
            if target not in resolved:
                resolved.add(target)
                order.append(index)
                for other in waiting.get(target, ()):
                    missing[other] -= 1
                    if not missing[other]:
                        heappush(current if other > index else later, other)
            if not current:
                current, later = later, []
        return order

    def closure(self, known: set[Measure]) -> set[Measure]:
        """All measures derivable from ``known`` via the rules."""
        rules = self.rules
        resolved = set(known)
        resolved.update(rules[i].target for i in self.firing_order(known))
        return resolved

    def solve(self, values: dict[Measure, float]) -> dict[Measure, float]:
        """Numerically resolve every derivable measure (fixpoint); the
        naive reference the tests pin :meth:`firing_order` to."""
        resolved = dict(values)
        changed = True
        while changed:
            changed = False
            for rule in self.rules:
                if rule.target in resolved:
                    continue
                value = rule.evaluate(resolved)
                if value is not None:
                    resolved[rule.target] = value
                    changed = True
        return resolved
