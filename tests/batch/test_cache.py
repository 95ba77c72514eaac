"""The artifact cache: tier accounting, persistence, corruption recovery."""

import pickle

import pytest

from repro.batch import ArtifactCache, CachedArtifacts, source_key
from repro.errors import ReproError
from repro.obs import metrics
from repro.workloads.generators import ProgramGenerator

pytestmark = pytest.mark.batch

SOURCE = ProgramGenerator(7).source()
OTHER = ProgramGenerator(8).source()


class TestAccounting:
    def test_miss_then_memory_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        program, plan, tier = cache.artifacts(SOURCE)
        assert tier == "compiled"
        again, plan2, tier2 = cache.artifacts(SOURCE)
        assert tier2 == "memory"
        assert again is program and plan2 is plan
        assert cache.stats.misses == 1
        assert cache.stats.memory_hits == 1
        assert cache.stats.disk_hits == 0
        assert cache.stats.plan_builds == 1

    def test_disk_hit_from_fresh_instance(self, tmp_path):
        ArtifactCache(tmp_path).artifacts(SOURCE)
        fresh = ArtifactCache(tmp_path)
        _, _, tier = fresh.artifacts(SOURCE)
        assert tier == "disk"
        assert fresh.stats.disk_hits == 1
        assert fresh.stats.misses == 0
        # The persisted entry already contains the smart plan.
        assert fresh.stats.plan_builds == 0

    def test_distinct_sources_miss_independently(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.artifacts(SOURCE)
        cache.artifacts(OTHER)
        assert cache.stats.misses == 2
        assert source_key(SOURCE) != source_key(OTHER)

    def test_memory_only_cache_never_touches_disk(self):
        cache = ArtifactCache(None)
        cache.artifacts(SOURCE)
        _, _, tier = cache.artifacts(SOURCE)
        assert tier == "memory"
        assert cache.stats.stores == 0

    def test_plan_kinds_share_one_compilation(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        program_s, smart, _ = cache.artifacts(SOURCE, "smart")
        program_n, naive, _ = cache.artifacts(SOURCE, "naive")
        assert program_s is program_n
        assert smart.kind == "smart" and naive.kind == "naive"
        assert cache.stats.misses == 1
        assert cache.stats.plan_builds == 2

    def test_unknown_plan_kind_rejected(self):
        with pytest.raises(ValueError):
            ArtifactCache(None).artifacts(SOURCE, "telepathic")

    def test_memory_tier_eviction_bounded(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_memory_entries=2)
        for seed in range(4):
            cache.compiled(ProgramGenerator(seed).source())
        assert len(cache._memory) <= 2

    def test_compile_error_propagates_uncached(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(ReproError):
            cache.artifacts("PROGRAM BAD (")
        # Nothing poisonous was stored.
        assert cache.stats.stores == 0
        assert list(tmp_path.rglob("*.pkl")) == []


class TestCorruptionRecovery:
    def _entry_file(self, tmp_path):
        files = list(tmp_path.rglob("*.pkl"))
        assert len(files) == 1
        return files[0]

    def test_truncated_entry_recompiles(self, tmp_path):
        ArtifactCache(tmp_path).artifacts(SOURCE)
        file = self._entry_file(tmp_path)
        file.write_bytes(file.read_bytes()[:20])

        fresh = ArtifactCache(tmp_path)
        _, _, tier = fresh.artifacts(SOURCE)
        assert tier == "compiled"
        assert fresh.stats.corrupt_entries == 1
        assert fresh.stats.misses == 1
        # The entry was rewritten and is healthy again.
        healed = ArtifactCache(tmp_path)
        _, _, tier2 = healed.artifacts(SOURCE)
        assert tier2 == "disk"
        assert healed.stats.corrupt_entries == 0

    def test_garbage_bytes_recompile(self, tmp_path):
        ArtifactCache(tmp_path).artifacts(SOURCE)
        self._entry_file(tmp_path).write_bytes(b"not a pickle at all")
        fresh = ArtifactCache(tmp_path)
        _, _, tier = fresh.artifacts(SOURCE)
        assert tier == "compiled"
        assert fresh.stats.corrupt_entries == 1

    def test_wrong_payload_type_recompiles(self, tmp_path):
        ArtifactCache(tmp_path).artifacts(SOURCE)
        self._entry_file(tmp_path).write_bytes(pickle.dumps({"not": "artifacts"}))
        fresh = ArtifactCache(tmp_path)
        _, _, tier = fresh.artifacts(SOURCE)
        assert tier == "compiled"
        assert fresh.stats.corrupt_entries == 1

    def test_clear_memory_falls_back_to_disk(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.artifacts(SOURCE)
        cache.clear_memory()
        _, _, tier = cache.artifacts(SOURCE)
        assert tier == "disk"


class TestKeying:
    def test_key_depends_on_source_text(self):
        assert source_key("PROGRAM A") != source_key("PROGRAM B")

    def test_key_stable_for_same_text(self):
        assert source_key(SOURCE) == source_key(SOURCE)

    def test_entries_shard_by_key_prefix(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.artifacts(SOURCE)
        key = source_key(SOURCE)
        assert (tmp_path / key[:2] / f"{key}.pkl").exists()

    def test_cached_artifacts_roundtrip_pickle(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        program, plan, _ = cache.artifacts(SOURCE)
        blob = pickle.dumps(CachedArtifacts(program, {"smart": plan}))
        entry = pickle.loads(blob)
        assert entry.program.main_name == program.main_name

    def test_miss_emits_nothing(self):
        """A miss compiles and plans; emission waits for the first run."""

        def emits() -> float:
            counter = metrics.registry().get("repro_codegen_emits_total")
            return counter.value(outcome="ok") if counter is not None else 0.0

        before = emits()
        ArtifactCache().artifacts(ProgramGenerator(11).source())
        assert emits() == before

    def test_fresh_entry_carries_only_the_codegen_shell(self):
        from repro.batch.cache import _compile_entry

        blob = pickle.dumps(_compile_entry(SOURCE))
        assert b"repro.fastexec" not in blob
        assert b"repro.codegen.backend" in blob


class TestLruHotTier:
    """The memory tier is LRU: recently *used* entries stay resident."""

    THIRD = ProgramGenerator(9).source()

    def test_hit_refreshes_recency(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_memory_entries=2)
        cache.artifacts(SOURCE)
        cache.artifacts(OTHER)
        # Touch SOURCE: it becomes the most recently used entry, so
        # admitting a third program must evict OTHER, not SOURCE.
        cache.artifacts(SOURCE)
        cache.artifacts(self.THIRD)
        _, _, tier = cache.artifacts(SOURCE)
        assert tier == "memory"
        _, _, tier = cache.artifacts(OTHER)
        assert tier == "disk"  # evicted from memory, disk tier serves

    def test_fifo_would_have_failed(self, tmp_path):
        """Insertion order alone must not decide eviction."""
        cache = ArtifactCache(tmp_path, max_memory_entries=2)
        cache.artifacts(SOURCE)  # oldest insertion
        cache.artifacts(OTHER)
        cache.artifacts(SOURCE)  # ... but most recent use
        cache.artifacts(self.THIRD)  # evicts exactly one entry
        hits_before = cache.stats.memory_hits
        cache.artifacts(SOURCE)
        assert cache.stats.memory_hits == hits_before + 1

    def test_memory_only_cache_evicts_lru(self):
        cache = ArtifactCache(None, max_memory_entries=2)
        cache.artifacts(SOURCE)
        cache.artifacts(OTHER)
        cache.artifacts(SOURCE)
        cache.artifacts(self.THIRD)
        # No disk tier: the evicted entry is recompiled on next use,
        # and re-admitting it evicts the now-least-recent SOURCE.
        misses_before = cache.stats.misses
        cache.artifacts(OTHER)
        assert cache.stats.misses == misses_before + 1
        _, _, tier = cache.artifacts(self.THIRD)
        assert tier == "memory"
