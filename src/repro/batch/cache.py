"""Content-addressed cache of static profiling artifacts.

Everything the paper derives *statically* from a program — CFGs, the
extended CFGs, the forward control dependence graphs and the counter
placement plans — depends only on the source text, never on run
inputs.  The batch engine therefore keys all of it by a content hash
of the source and reuses it across runs, batch invocations and worker
processes:

* an **in-memory tier** (per process) makes repeated profiling of the
  same program within one batch free after the first task;
* an optional **on-disk tier** (shared between processes and
  invocations) persists pickled artifacts under
  ``<dir>/<hh>/<hash>.pkl``, written atomically so concurrent workers
  never observe partial entries.

Cache keys mix in a format version and the package version, so stale
entries from older layouts are simply misses.  A corrupted or
unreadable disk entry is counted, deleted and recompiled — it can
never poison a batch.  Entries that *unpickle* but fail the artifact
verifier (:mod:`repro.checker`) get the same treatment: a disk hit is
only trusted after its structural and plan invariants re-check clean.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.codegen import codegen_backend_for
from repro.obs import metrics
from repro.paths import path_program_plan
from repro.pipeline import (
    CompiledProgram,
    compile_source,
    naive_program_plan,
    smart_program_plan,
)
from repro.profiling import ProgramPlan

#: Bump when the pickled artifact layout changes incompatibly.
#: 2: programs carry a closure-compiled engine's shell.
#: 3: programs also carry their codegen-backend shell (``_codegen``),
#:    including the emitted base source and its fingerprint.
#: 4: entries may carry Ball–Larus path plans (plan kind ``"paths"``).
#: 5: the closure-compiled engine is retired; programs carry only the
#:    codegen shell.
#: 6: the codegen shell no longer ships emitted base source or its
#:    fingerprint; every variant is emitted on first use.
#: 7: the codegen shell also references the front end's interval
#:    structures, which its emitter takes the loops from.
#: 8: interval structures carry their loops' exit edges (``loop_exits``).
CACHE_FORMAT = 8

_PLAN_BUILDERS = {
    "smart": smart_program_plan,
    "naive": naive_program_plan,
    "paths": path_program_plan,
}


def source_key(source: str) -> str:
    """The content hash a source text is cached under."""
    material = f"{CACHE_FORMAT}\x00{repro.__version__}\x00{source}"
    return hashlib.sha256(material.encode()).hexdigest()


@dataclass
class CachedArtifacts:
    """One program's static artifacts: the compilation plus its plans."""

    program: CompiledProgram
    plans: dict[str, ProgramPlan] = field(default_factory=dict)


def _compile_entry(source: str) -> CachedArtifacts:
    """Compile a source and attach the codegen backend's shell.

    Nothing is emitted here: the shell pickles only the program's
    checked AST and CFGs (shared via the pickle memo), and the first
    run in any process emits the one variant it executes.
    """
    program = compile_source(source)
    codegen_backend_for(program)
    return CachedArtifacts(program=program)


@dataclass
class CacheStats:
    """Accounting for one cache instance (monotonic counters)."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    plan_builds: int = 0
    corrupt_entries: int = 0
    #: Disk entries that unpickled but failed artifact verification.
    invalid_entries: int = 0

    @property
    def lookups(self) -> int:
        return self.memory_hits + self.disk_hits + self.misses

    def as_dict(self) -> dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "plan_builds": self.plan_builds,
            "corrupt_entries": self.corrupt_entries,
            "invalid_entries": self.invalid_entries,
        }


class ArtifactCache:
    """Two-tier (memory + optional disk) static-artifact cache.

    With ``path=None`` the cache is memory-only: still useful inside
    one process, invisible to others.  ``max_memory_entries`` bounds
    the in-memory tier (least-recently-used eviction, so a long-lived
    profiling service keeps its hot programs resident while cold ones
    fall back to the disk tier); the disk tier is unbounded.
    ``verify_loads`` (default on) runs the artifact verifier on every
    disk hit; an entry with broken invariants is evicted and the
    program recompiled, exactly like a corrupt pickle.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        max_memory_entries: int = 256,
        verify_loads: bool = True,
    ):
        self.path = Path(path) if path is not None else None
        self.max_memory_entries = max_memory_entries
        self.verify_loads = verify_loads
        self.stats = CacheStats()
        self._memory: dict[str, CachedArtifacts] = {}

    # -- public ----------------------------------------------------------

    def artifacts(
        self, source: str, plan_kind: str = "smart"
    ) -> tuple[CompiledProgram, ProgramPlan, str]:
        """The compiled program and requested plan for ``source``.

        Returns ``(program, plan, tier)`` where ``tier`` names where
        the compilation came from: ``"memory"``, ``"disk"`` or
        ``"compiled"`` (a miss).  Compilation errors propagate to the
        caller — they are per-program failures, not cache failures.
        """
        if plan_kind not in _PLAN_BUILDERS:
            raise ValueError(f"unknown plan kind {plan_kind!r}")
        key = source_key(source)
        entry, tier = self._lookup(key)
        if entry is None:
            entry = _compile_entry(source)
            tier = "compiled"
            self.stats.misses += 1
            self._remember(key, entry)
        if plan_kind not in entry.plans:
            entry.plans[plan_kind] = _PLAN_BUILDERS[plan_kind](entry.program)
            self.stats.plan_builds += 1
            self._store(key, entry)
        return entry.program, entry.plans[plan_kind], tier

    def compiled(self, source: str) -> tuple[CompiledProgram, str]:
        """The compiled program alone (no counter plan needed)."""
        key = source_key(source)
        entry, tier = self._lookup(key)
        if entry is None:
            entry = _compile_entry(source)
            tier = "compiled"
            self.stats.misses += 1
            self._remember(key, entry)
            self._store(key, entry)
        return entry.program, tier

    def clear_memory(self) -> None:
        """Drop the in-memory tier (the disk tier survives)."""
        self._memory.clear()

    # -- tiers -----------------------------------------------------------

    def _lookup(self, key: str) -> tuple[CachedArtifacts | None, str]:
        lookups = metrics.counter(
            "repro_cache_lookups_total",
            "Artifact cache lookups by serving tier.",
            labels=("tier",),
        )
        entry = self._memory.pop(key, None)
        if entry is not None:
            # Re-insert at the most-recently-used end: the insertion
            # order of ``_memory`` is the LRU order ``_remember``
            # evicts from.
            self._memory[key] = entry
            self.stats.memory_hits += 1
            lookups.inc(tier="memory")
            return entry, "memory"
        entry = self._load_disk(key)
        if entry is not None:
            self.stats.disk_hits += 1
            lookups.inc(tier="disk")
            self._remember(key, entry)
            return entry, "disk"
        lookups.inc(tier="miss")
        return None, "compiled"

    def _remember(self, key: str, entry: CachedArtifacts) -> None:
        while len(self._memory) >= self.max_memory_entries:
            self._memory.pop(next(iter(self._memory)))
            metrics.counter(
                "repro_cache_evictions_total",
                "In-memory cache entries evicted (LRU).",
            ).inc()
        self._memory[key] = entry

    def _disk_path(self, key: str) -> Path:
        assert self.path is not None
        return self.path / key[:2] / f"{key}.pkl"

    def _load_disk(self, key: str) -> CachedArtifacts | None:
        if self.path is None:
            return None
        file = self._disk_path(key)
        try:
            blob = file.read_bytes()
        except OSError:
            return None
        try:
            entry = pickle.loads(blob)
            if not isinstance(entry, CachedArtifacts):
                raise TypeError(f"unexpected cache payload {type(entry)!r}")
        except Exception:
            # Truncated write, foreign file, stale class layout, ...:
            # recover by dropping the entry and recompiling.
            self.stats.corrupt_entries += 1
            metrics.counter(
                "repro_cache_bad_entries_total",
                "Disk entries dropped as corrupt or invalid.",
                labels=("reason",),
            ).inc(reason="corrupt")
            try:
                file.unlink()
            except OSError:
                pass
            return None
        if self.verify_loads and not self._verify_entry(entry):
            self.stats.invalid_entries += 1
            metrics.counter(
                "repro_cache_bad_entries_total",
                "Disk entries dropped as corrupt or invalid.",
                labels=("reason",),
            ).inc(reason="invalid")
            try:
                file.unlink()
            except OSError:
                pass
            return None
        return entry

    @staticmethod
    def _verify_entry(entry: CachedArtifacts) -> bool:
        """True when a re-hydrated entry's invariants all check out."""
        from repro.checker import verify_program

        return not verify_program(entry.program, entry.plans).errors

    def _store(self, key: str, entry: CachedArtifacts) -> None:
        if self.path is None:
            return
        file = self._disk_path(key)
        file.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=file.parent, prefix=f".{key[:8]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(entry, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, file)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1
