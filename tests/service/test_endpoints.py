"""End-to-end endpoint behavior against a live in-process service."""

import threading
import time

import pytest

from repro import analyze, compile_source, profile_program
from repro.costs.model import SCALAR_MACHINE
from repro.service import ServiceClient, ServiceConfig, ServiceThread
from repro.workloads.paper_example import PAPER_SOURCE

pytestmark = pytest.mark.service


@pytest.fixture(scope="module")
def server():
    with ServiceThread(ServiceConfig()) as handle:
        yield handle


@pytest.fixture()
def client(server):
    with ServiceClient(port=server.port) as c:
        yield c


class TestHealthAndMetrics:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0

    def test_metrics_shape(self, client):
        metrics = client.metrics()
        assert metrics["draining"] is False
        for section in ("batcher", "cache", "database", "requests_total"):
            assert section in metrics


class TestCompile:
    def test_compile_roundtrip(self, client):
        result = client.compile(PAPER_SOURCE, verify=True)
        assert result["ok"] is True
        assert result["procedures"] == ["FOO", "MAIN"]
        assert result["main"] == "MAIN"
        assert result["counters"] > 0
        assert result["verified"] is True

    def test_second_compile_hits_hot_tier(self, client):
        client.compile(PAPER_SOURCE)
        result = client.compile(PAPER_SOURCE)
        assert result["cache_tier"] == "memory"

    def test_parse_error_is_422(self, client):
        from repro.service import ServiceError

        with pytest.raises(ServiceError) as excinfo:
            client.compile("      THIS IS NOT MINIFORT\n")
        assert excinfo.value.status == 422
        assert excinfo.value.payload["error"]["stage"] == "compile"


class TestProfile:
    def test_summary_matches_local_pipeline(self, client):
        remote = client.profile(PAPER_SOURCE, runs=2)
        program = compile_source(PAPER_SOURCE)
        profile, _ = profile_program(program, runs=2)
        local = analyze(program, profile, SCALAR_MACHINE)
        assert remote["summary"]["time"] == pytest.approx(local.total_time)
        assert remote["summary"]["std_dev"] == pytest.approx(
            local.total_std_dev
        )
        assert remote["runs"] == 2

    def test_raw_profile_is_returned(self, client):
        result = client.profile(PAPER_SOURCE, runs=1)
        assert result["profile"]["runs"] == 1
        assert "MAIN" in result["profile"]["procedures"]

    def test_naive_plan_reports_block_counts(self, client):
        result = client.profile(PAPER_SOURCE, runs=1, plan="naive")
        blocks = result["summary"]["procedures"]["MAIN"]["block_counts"]
        assert blocks  # naive plans measure basic blocks


class TestIngestAndQuery:
    def test_accumulate_then_normalize(self, client):
        program = compile_source(PAPER_SOURCE)
        for batch in (2, 3):
            profile, _ = profile_program(program, runs=batch)
            client.ingest("acc", profile, source=PAPER_SOURCE)
        result = client.query("acc")
        assert result["runs"] == 5
        # Definition 3 normalizes the summed counts: same frequencies
        # and TIME as a local analysis over the same accumulation.
        total, _ = profile_program(program, runs=2)
        more, _ = profile_program(program, runs=3)
        total.merge(more)
        local = analyze(program, total, SCALAR_MACHINE)
        remote = result["analysis"]
        assert remote["time"] == pytest.approx(local.total_time)
        main = remote["procedures"]["MAIN"]
        assert main["invocations"] == pytest.approx(
            local.procedures["MAIN"].freqs.invocations
        )

    def test_profile_with_server_side_ingest(self, client):
        result = client.profile(PAPER_SOURCE, runs=2, ingest="server-side")
        assert result["ingested"]["key"] == "server-side"
        query = client.query("server-side")
        assert query["runs"] == 2
        assert query["analysis"] is not None

    def test_query_unknown_key_is_404(self, client):
        from repro.service import ServiceError

        with pytest.raises(ServiceError) as excinfo:
            client.query("never-ingested")
        assert excinfo.value.status == 404

    def test_query_registered_source_without_profile_serves_bounds(
        self, client
    ):
        """A compiled-but-never-profiled key answers with static bounds."""
        source = (
            "      PROGRAM MAIN\n"
            "      INTEGER I\n"
            "      REAL S\n"
            "      S = 0.0\n"
            "      DO 10 I = 1, 100\n"
            "        S = S + 1.5\n"
            "10    CONTINUE\n"
            "      END\n"
        )
        client.compile(source, key="bounds-only")
        result = client.query("bounds-only")
        assert result["runs"] == 0
        assert result["analysis"] is None
        assert "note" in result
        main = result["static_bounds"]["MAIN"]
        assert main["unbounded"] is False
        assert 0 < main["time_lo"] <= main["time_hi"]
        # Once a profile is ingested the normal analysis takes over.
        program = compile_source(source)
        profile, _ = profile_program(program, runs=1)
        client.ingest("bounds-only", profile, source=source)
        result = client.query("bounds-only")
        assert result["runs"] == 1
        assert result["analysis"] is not None
        assert "static_bounds" not in result
        assert main["time_lo"] <= result["analysis"]["time"] <= main["time_hi"]

    def test_query_without_source_returns_raw_only(self, client):
        program = compile_source(PAPER_SOURCE)
        profile, _ = profile_program(program, runs=1)
        client.ingest("sourceless", profile)  # no source registered
        result = client.query("sourceless")
        assert result["analysis"] is None
        assert result["raw"]["runs"] == 1
        assert "note" in result


class TestCoalescing:
    def test_identical_concurrent_requests_coalesce(self, held_flush):
        with ServiceThread(ServiceConfig(max_batch=16)) as handle:
            results = []

            def call():
                with ServiceClient(port=handle.port) as c:
                    results.append(c.profile(PAPER_SOURCE, runs=1))

            threads = [threading.Thread(target=call) for _ in range(6)]
            with ServiceClient(port=handle.port) as probe:
                threads[0].start()
                assert held_flush.entered.wait(timeout=30)
                for t in threads[1:]:
                    t.start()
                deadline = time.time() + 30
                while probe.healthz()["queue_depth"] < 5:
                    assert time.time() < deadline, "requests never queued"
                    time.sleep(0.01)
                held_flush.release.set()
                for t in threads:
                    t.join()
                stats = probe.metrics()["batcher"]
        assert len(results) == 6
        times = {r["summary"]["time"] for r in results}
        assert len(times) == 1  # every waiter got the same result
        # The first request's flush held the other five in the queue:
        # they ride the next flush as one engine item.
        assert stats["flushes"] == 2
        assert stats["coalesced"] == 4
