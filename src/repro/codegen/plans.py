"""Counter-plan lowering: the dense slot tables codegen bumps.

A :class:`~repro.profiling.placement.CounterPlan` already allocates
counter ids densely in ``[0, id_space)``; the codegen backend keeps
the identity ``slot == counter id`` so its emitted ``slots[i] += 1.0``
bumps write straight into :meth:`PlanExecutor.counter_values` and
reconstruction sees byte-identical inputs either way.  This module
derives the per-procedure slot tables from a plan, fingerprints plans
so emitted variants can be cached per plan content, and validates the
slot tables (the material behind the checker's REP401-404
diagnostics).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.profiling.placement import CounterPlan, ProgramPlan


@dataclass(frozen=True)
class SlotSite:
    """One runtime update site writing a counter slot."""

    kind: str  # "node" | "edge" | "batch"
    where: tuple  # (node,) for node/batch sites, (src, label) for edges


@dataclass
class ProcSlotTable:
    """The lowered slot layout of one procedure's counter plan."""

    proc: str
    id_space: int
    #: node id -> slot bumped by 1.0 when the node executes.
    node_slots: dict[int, int] = field(default_factory=dict)
    #: (src, label) -> slot bumped by 1.0 when the edge is taken.
    edge_slots: dict[tuple[int, str], int] = field(default_factory=dict)
    #: DO_INIT node -> ((slot, offset), ...) batched trip-count adds.
    batch_slots: dict[int, tuple[tuple[int, int], ...]] = field(
        default_factory=dict
    )

    def sites(self) -> dict[int, list[SlotSite]]:
        """slot -> every update site that writes it."""
        by_slot: dict[int, list[SlotSite]] = {}
        for node, slot in self.node_slots.items():
            by_slot.setdefault(slot, []).append(SlotSite("node", (node,)))
        for key, slot in self.edge_slots.items():
            by_slot.setdefault(slot, []).append(SlotSite("edge", key))
        for node, entries in self.batch_slots.items():
            for slot, _offset in entries:
                by_slot.setdefault(slot, []).append(SlotSite("batch", (node,)))
        return by_slot


def lower_counter_plan(plan: CounterPlan) -> ProcSlotTable:
    """The slot table of one procedure's plan (slot == counter id)."""
    return ProcSlotTable(
        proc=plan.proc,
        id_space=plan.id_space,
        node_slots=dict(plan.node_counters),
        edge_slots=dict(plan.edge_counters),
        batch_slots={
            node: tuple(entries)
            for node, entries in plan.batch_counters.items()
        },
    )


@dataclass(frozen=True)
class SlotFault:
    """One slot-table defect found by :func:`validate_slot_table`."""

    kind: str  # "orphan" | "unmapped" | "duplicate" | "range"
    slot: int
    detail: str


def validate_slot_table(
    plan: CounterPlan, table: ProcSlotTable | None = None
) -> list[SlotFault]:
    """Check a lowered slot table against its plan.

    Sound lowerings satisfy, for every *live* counter (one with an
    entry in ``counter_measures``):

    * exactly one update site writes its slot (duplicates would
      double-count, zero sites would silently reconstruct from 0);
    * every written slot is live (an orphan write corrupts nothing the
      plan measures, but means the registries disagree);
    * every slot index lies in the dense ``[0, id_space)`` range the
      runtime allocates.
    """
    if table is None:
        table = lower_counter_plan(plan)
    faults: list[SlotFault] = []
    live = set(plan.counter_measures)
    sites = table.sites()
    for slot, where in sorted(sites.items()):
        if not 0 <= slot < table.id_space:
            faults.append(
                SlotFault(
                    "range",
                    slot,
                    f"slot {slot} outside id space [0, {table.id_space})",
                )
            )
        if slot not in live:
            faults.append(
                SlotFault(
                    "orphan",
                    slot,
                    f"slot {slot} is written by {len(where)} site(s) but "
                    "backs no measured counter",
                )
            )
        elif len(where) > 1:
            places = ", ".join(
                f"{site.kind}{site.where}" for site in where
            )
            faults.append(
                SlotFault(
                    "duplicate",
                    slot,
                    f"slot {slot} is written by {len(where)} sites: {places}",
                )
            )
    for slot in sorted(live):
        if slot not in sites:
            measure = plan.counter_measures[slot]
            faults.append(
                SlotFault(
                    "unmapped",
                    slot,
                    f"counter {slot} measures {measure} but no update "
                    "site writes its slot",
                )
            )
    return faults


def plan_fingerprint(plan: ProgramPlan) -> tuple:
    """A content key for caching emitted variants per plan.

    Two plans with equal fingerprints prescribe identical runtime
    counter updates, so the backend may reuse one emitted variant for
    both (ablation builds can share a ``kind`` while differing in
    placement, hence content — not kind — is the key).

    The fingerprint is memoized on the plan object — the backend looks
    it up on every profiled run, and plans are immutable once built.
    """
    cached = getattr(plan, "_fingerprint_cache", None)
    if cached is not None:
        return cached
    per_proc = []
    for name in sorted(plan.plans):
        p = plan.plans[name]
        per_proc.append(
            (
                name,
                p.id_space,
                tuple(sorted(p.node_counters.items())),
                tuple(sorted(p.edge_counters.items())),
                tuple(
                    (node, tuple(entries))
                    for node, entries in sorted(p.batch_counters.items())
                ),
            )
        )
    fingerprint = (plan.kind, tuple(per_proc))
    try:
        plan._fingerprint_cache = fingerprint
    except AttributeError:
        pass  # slotted or frozen plan: recompute each call
    return fingerprint
