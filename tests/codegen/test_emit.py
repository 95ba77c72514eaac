"""Unit tests for the codegen emitter and backend shell.

The conformance suite proves behavioural identity; these tests pin
the *mechanism* — structured emission with basic-block fusion for
every procedure of the builtins and a 500-program generator sweep
(no dispatch loop, tail duplication under its growth bound), step
budget checks only at back edges, calls and exits (no replayed
blocks), no zero cost adds, variant caching, the pickled cache shell,
and the hooks contract.
"""

import math
import pickle
from dataclasses import replace

import pytest

from repro import (
    OPTIMIZING_MACHINE,
    SCALAR_MACHINE,
    compile_source,
    smart_program_plan,
)
from repro.cfg.graph import StmtKind
from repro.codegen import UnsupportedHooksError, codegen_backend_for
from repro.codegen.emit import _MAX_GROWTH, emit_module
from repro.codegen.shape import build_shape
from repro.lang import ast
from repro.pipeline import paths_program_plan, run_program
from repro.profiling import PlanExecutor
from repro.workloads import builtin_sources
from repro.workloads.paper_example import PAPER_SOURCE
from repro.workloads.generators import ProgramGenerator

pytestmark = pytest.mark.codegen

STRUCTURED = """\
      PROGRAM MAIN
      T = 0.0
      DO 10 I = 1, 4
        T = T + 1.5
10    CONTINUE
      PRINT *, T
      END
"""


@pytest.fixture(scope="module")
def loop_backend():
    program = compile_source(STRUCTURED)
    backend = codegen_backend_for(program)
    backend.ensure_lowered()
    return program, backend


class TestEmission:
    def test_structured_mode_for_reducible_loop(self, loop_backend):
        _program, backend = loop_backend
        meta = backend.emit_meta()
        assert meta.mode["MAIN"] == "structured"

    def test_loop_is_native_while(self, loop_backend):
        """Structured mode lowers the DO loop to a `while`, not a
        dispatch loop over a node index."""
        _program, backend = loop_backend
        source = backend.emitted_source()
        assert "while " in source
        assert "_n = 0" not in source  # no dispatch program counter

    def test_fused_blocks_batch_the_step_charge(self, loop_backend):
        """Straight-line runs charge `_d += K` once and check no
        budget."""
        _program, backend = loop_backend
        source = backend.emitted_source()
        assert any(
            line.strip().startswith("_d += ")
            and line.strip() != "_d += 1"
            for line in source.splitlines()
        )

    def test_constant_fold(self, loop_backend):
        """`T + 1.5` keeps the literal; no Cell/env lookups remain."""
        _program, backend = loop_backend
        source = backend.emitted_source()
        assert "1.5" in source
        assert "env[" not in source

    def test_variants_cached_per_plan_and_model(self, loop_backend):
        program, backend = loop_backend
        plan = smart_program_plan(program)
        first = backend.emitted_source(plan, SCALAR_MACHINE)
        again = backend.emitted_source(plan, SCALAR_MACHINE)
        assert first == again
        assert backend.emitted_source() != first  # base variant differs

    def test_no_zero_cost_adds(self):
        """No builtin's variant emits a zero `_c`/`_cc` add, even with
        free counter updates."""
        free_counters = replace(OPTIMIZING_MACHINE, counter_update=0.0)
        for _name, source in builtin_sources():
            program = compile_source(source)
            backend = codegen_backend_for(program)
            plans = (smart_program_plan(program), paths_program_plan(program))
            for plan in plans:
                for model in (SCALAR_MACHINE, free_counters):
                    text = backend.emitted_source(plan, model)
                    assert "+= 0.0" not in text
                    assert "+= 0\n" not in text

    def test_skipped_zero_adds_stay_bit_identical(self):
        """Both accumulators match the reference bit for bit, sign of
        zero included, when every counter update is free."""
        free_counters = replace(OPTIMIZING_MACHINE, counter_update=0.0)
        program = compile_source(PAPER_SOURCE)
        plan = smart_program_plan(program)
        results = [
            run_program(
                program,
                model=free_counters,
                hooks=PlanExecutor(plan),
                seed=3,
                inputs=(6.0,),
                backend=backend,
            )
            for backend in ("reference", "codegen")
        ]
        for field_name in ("total_cost", "counter_cost"):
            values = [getattr(result, field_name) for result in results]
            assert values[0] == values[1]
            assert [math.copysign(1.0, v) for v in values] == [1.0, 1.0]
        assert results[1].counter_cost == 0.0
        assert results[1].counter_ops > 0

    def test_every_procedure_emits_structured(self):
        """Builtins plus generator seeds 0-499: no procedure needs a
        dispatch loop, and tail duplication stays under its bound
        (the worst procedure, livermore's KERN16, grows 1.06x)."""
        sources = [source for _name, source in builtin_sources()]
        sources += [ProgramGenerator(seed).source() for seed in range(500)]
        for source in sources:
            program = compile_source(source)
            shapes = {
                name: build_shape(
                    program.checked,
                    name,
                    cfg,
                    index,
                    program.ecfgs[name].intervals,
                )
                for index, (name, cfg) in enumerate(program.cfgs.items())
            }
            text, meta = emit_module(program.checked, program.cfgs, shapes)
            assert set(meta.mode.values()) == {"structured"}
            assert "_n = " not in text  # no dispatch program counter
            for name, count in meta.emitted_nodes.items():
                assert count <= _MAX_GROWTH * len(meta.reachable[name])


@pytest.fixture(scope="module")
def builtin_variants():
    """Every builtin's plan-free, smart-counters and paths variants,
    costed, as ``(label, program, backend, plan, source)``."""
    variants = []
    for name, source in builtin_sources():
        program = compile_source(source)
        backend = codegen_backend_for(program)
        plans = {
            "plan-free": None,
            "counters": smart_program_plan(program),
            "paths": paths_program_plan(program),
        }
        for kind, plan in plans.items():
            text = backend.emitted_source(plan, SCALAR_MACHINE)
            variants.append((f"{name}/{kind}", program, backend, plan, text))
    return variants


def _proc_bodies(text: str) -> dict[str, list[str]]:
    """Emitted procedure name -> its body lines, up to the ``finally``
    flush."""
    bodies: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("def P_"):
            current = bodies.setdefault(line[6 : line.index("(")], [])
        elif line == "    finally:":
            current = None
        elif current is not None:
            current.append(line.strip())
    return bodies


def _check_sites(program, name: str) -> int:
    """Taken back edges + user call sites + exit sites of one
    procedure's CFG; EXIT and STOP are inlined at each incoming edge,
    so each such edge is one exit site."""
    cfg = program.cfgs[name]
    intervals = program.ecfgs[name].intervals
    backs = sum(len(edges) for edges in intervals.loop_back_edges.values())
    procedures = program.checked.unit.procedures
    table = program.checked.tables[name]
    calls = 0
    for node in cfg.nodes.values():
        if node.kind is StmtKind.CALL:
            calls += 1
        if node.cond is not None:
            exprs = [node.cond]
        elif node.kind in (
            StmtKind.ASSIGN, StmtKind.PRINT, StmtKind.DO_INIT, StmtKind.CALL
        ):
            exprs = list(ast.stmt_expressions(node.stmt))
        else:
            exprs = []
        for expr in exprs:
            for sub in ast.walk_expr(expr):
                if isinstance(sub, ast.FuncCall) and sub.name in procedures:
                    info = table.lookup(sub.name)
                    calls += info is None or not info.is_array
    terminals = {
        nid
        for nid, node in cfg.nodes.items()
        if node.kind in (StmtKind.EXIT, StmtKind.STOP)
    }
    exits = sum(
        1 for e in cfg.edges if e.dst in terminals and not e.is_pseudo
    )
    return backs + calls + exits


class TestStepBudgetChecks:
    """``max_steps`` is a bound: emitted code counts every step but
    checks the budget only at taken back edges, calls and exits."""

    GUARD = "if _d > _b:"

    def test_no_variant_replays_a_block(self, builtin_variants):
        for label, _program, _backend, _plan, text in builtin_variants:
            assert "_d -= " not in text, label

    def test_guards_sit_only_at_back_edges_calls_and_exits(
        self, builtin_variants
    ):
        """Each guard precedes a ``continue`` (a taken back edge), the
        flush before a user call, or an EXIT/STOP; every ``continue``
        and every call flush is guarded."""
        after_guard = ("continue", "_s[0] += _d", "return", "raise _HALT()")
        stop_paths = ("_pp[_pr] = ", "_PSB[0].append(")
        for label, _program, _backend, _plan, text in builtin_variants:
            for name, body in _proc_bodies(text).items():
                for i, line in enumerate(body):
                    if line == self.GUARD:
                        assert body[i + 1].startswith("raise ILE(")
                        nxt = body[i + 2]
                        assert nxt.startswith(after_guard + stop_paths), (
                            f"{label} {name}: guard before {nxt!r}"
                        )
                    elif line in ("continue", "_s[0] += _d"):
                        assert body[i - 2] == self.GUARD, (
                            f"{label} {name}: unguarded {line!r}"
                        )

    def test_guards_at_most_back_edges_calls_and_exits(
        self, builtin_variants
    ):
        """Per procedure, guards <= back edges + call sites + exits.

        Tail duplication (a node reached again away from a join)
        re-emits its sites; the bound is checked on every procedure
        that emits each node once, which is all but one builtin
        procedure."""
        checked = 0
        for label, program, backend, plan, text in builtin_variants:
            meta = backend.emit_meta(plan, SCALAR_MACHINE)
            for name, body in _proc_bodies(text).items():
                cfg = program.cfgs[name]
                nonterminal = {
                    nid
                    for nid in meta.reachable[name]
                    if cfg.nodes[nid].kind
                    not in (StmtKind.EXIT, StmtKind.STOP)
                }
                if meta.emitted_nodes[name] != len(nonterminal):
                    continue  # tail-duplicated
                checked += 1
                guards = body.count(self.GUARD)
                assert guards <= _check_sites(program, name), (
                    f"{label} {name}: {guards} guards"
                )
        assert checked >= 3 * 30


class TestBackendShell:
    def test_backend_cached_on_program(self):
        program = compile_source(STRUCTURED)
        assert codegen_backend_for(program) is codegen_backend_for(program)

    def test_pickle_round_trip_reemits_identical_source(self, loop_backend):
        """The pickled shell carries no emitted code; the clone emits
        byte-identical source for the same (plan, model) and runs
        identically."""
        program, backend = loop_backend
        plan = smart_program_plan(program)
        expected = backend.emitted_source(plan, SCALAR_MACHINE)
        clone = pickle.loads(pickle.dumps(backend))
        assert clone._variants == {}
        assert clone.emitted_source(plan, SCALAR_MACHINE) == expected
        runs = [
            engine.run(
                model=SCALAR_MACHINE, hooks=PlanExecutor(plan), seed=0
            )
            for engine in (backend, clone)
        ]
        assert runs[0].outputs == runs[1].outputs
        assert runs[0].total_cost == runs[1].total_cost
        # Plan-driven runs record no ground-truth counts; plan-free
        # runs with the same seed compare them.
        plain = [
            engine.run(model=SCALAR_MACHINE, seed=0)
            for engine in (backend, clone)
        ]
        assert plain[0].node_counts
        assert plain[0].node_counts == plain[1].node_counts
        assert plain[0].edge_counts == plain[1].edge_counts

    def test_rejects_foreign_hooks(self, loop_backend):
        program, backend = loop_backend

        class Chained(PlanExecutor):
            pass

        plan = smart_program_plan(program)
        with pytest.raises(UnsupportedHooksError):
            backend.run(hooks=Chained(plan))

    def test_all_builtins_lower(self):
        """Every builtin workload is expressible in the codegen
        backend — auto-selection never needs to fall back on them."""
        for _name, source in builtin_sources():
            codegen_backend_for(compile_source(source)).emitted_source()
