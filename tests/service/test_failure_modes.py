"""Service failure modes: rejection, timeouts, bad input, drain.

The degradation contract: a full admission queue answers 429 without
touching the engine, a request that exceeds its budget answers 504, a
body the server cannot parse answers 400, and a graceful shutdown
flushes every *accepted* request — an ingest that was answered 200 is
in the database file afterwards, always.
"""

import http.client
import json
import threading
import time

import pytest

from repro import compile_source, profile_program
from repro.profiling.database import ProfileDatabase
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
)
from repro.workloads.paper_example import PAPER_SOURCE

pytestmark = pytest.mark.service

#: ~0.4s of work even on the codegen backend (and under the 10M-step
#: limit): enough to outlive a 0.1s budget.
SLOW_SOURCE = """\
      PROGRAM MAIN
      INTEGER I, X
      X = 0
      DO 10 I = 1, 2000000
        X = X + 1
10    CONTINUE
      END
"""


def raw_post(port: int, path: str, body: bytes, content_type="application/json"):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(
            "POST", path, body=body, headers={"Content-Type": content_type}
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


class TestBadRequests:
    @pytest.fixture(scope="class")
    def server(self):
        with ServiceThread(ServiceConfig()) as handle:
            yield handle

    def test_malformed_json_body_is_400(self, server):
        status, payload = raw_post(server.port, "/profile", b"{not json")
        assert status == 400
        assert "malformed JSON" in payload["error"]["message"]

    def test_non_object_body_is_400(self, server):
        status, _ = raw_post(server.port, "/compile", b"[1, 2]")
        assert status == 400

    def test_missing_source_is_400(self, server):
        status, payload = raw_post(server.port, "/profile", b"{}")
        assert status == 400
        assert "source" in payload["error"]["message"]

    def test_bad_plan_is_400(self, server):
        status, _ = raw_post(
            server.port,
            "/profile",
            json.dumps({"source": PAPER_SOURCE, "plan": "psychic"}).encode(),
        )
        assert status == 400

    def test_retired_backend_is_400(self, server):
        status, payload = raw_post(
            server.port,
            "/profile",
            json.dumps({"source": PAPER_SOURCE, "backend": "threaded"}).encode(),
        )
        assert status == 400
        assert "['auto', 'codegen', 'reference']" in payload["error"]["message"]

    def test_unknown_route_is_404(self, server):
        status, _ = raw_post(server.port, "/nope", b"{}")
        assert status == 404

    def test_wrong_method_is_405(self, server):
        with ServiceClient(port=server.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.request("GET", "/compile")
        assert excinfo.value.status == 405

    def test_bad_ingest_profile_is_422(self, server):
        status, payload = raw_post(
            server.port,
            "/profiles/k/ingest",
            json.dumps({"profile": {"bogus": 1}}).encode(),
        )
        assert status == 422
        assert "TOTAL_FREQ" in payload["error"]["message"]

    def test_oversized_body_is_413(self):
        config = ServiceConfig(max_body=512)
        with ServiceThread(config) as handle:
            status, _ = raw_post(
                handle.port,
                "/compile",
                json.dumps({"source": "X" * 4096}).encode(),
            )
        assert status == 413


class TestQueueFullRejection:
    def test_429_when_admission_queue_is_full(self, held_flush):
        # The first request's flush is held, so the next two stay
        # pending; with queue_limit=2 the fourth must be shed at the
        # door.
        config = ServiceConfig(queue_limit=2, max_batch=64)
        with ServiceThread(config) as handle:
            outcomes: list = [None, None, None]

            def call(i):
                with ServiceClient(port=handle.port, timeout=60) as c:
                    outcomes[i] = c.profile(PAPER_SOURCE, runs=1 + i)

            threads = [
                threading.Thread(target=call, args=(i,)) for i in range(3)
            ]
            threads[0].start()
            assert held_flush.entered.wait(timeout=30)
            for t in threads[1:]:
                t.start()
            deadline = time.time() + 5
            with ServiceClient(port=handle.port) as probe:
                while time.time() < deadline:
                    if probe.healthz()["queue_depth"] >= 2:
                        break
                    time.sleep(0.01)
                with pytest.raises(ServiceError) as excinfo:
                    probe.profile(PAPER_SOURCE, runs=4)
                assert excinfo.value.status == 429
                assert excinfo.value.payload["error"]["retry_after_ms"] > 0
                stats = probe.metrics()["batcher"]
                assert stats["rejected_queue_full"] == 1
            # Released, the held flush and the two queued requests
            # still complete successfully.
            held_flush.release.set()
            for t in threads:
                t.join(timeout=30)
        assert all(r is not None and r["ok"] for r in outcomes)


class TestRequestTimeout:
    def test_504_when_budget_exceeded(self):
        config = ServiceConfig(request_timeout=0.1)
        with ServiceThread(config) as handle:
            with ServiceClient(port=handle.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.profile(SLOW_SOURCE, runs=1)
                assert excinfo.value.status == 504
                assert client.metrics()["timeouts"] == 1


class TestGracefulShutdown:
    def test_no_accepted_ingest_is_lost_mid_batch(self, tmp_path, held_flush):
        db_path = tmp_path / "profiles.json"
        # The held flush of a first profile request guarantees the
        # second is still sitting in the admission queue when shutdown
        # starts; the drain releases the hold.
        config = ServiceConfig(db=str(db_path), max_batch=64)
        handle = ServiceThread(config).start()

        program = compile_source(PAPER_SOURCE)
        delta, _ = profile_program(program, runs=1)

        results: dict[str, dict] = {"held": {}, "batched": {}}

        def profile_and_ingest(key, runs):
            with ServiceClient(port=handle.port, timeout=60) as c:
                results[key].update(
                    c.profile(PAPER_SOURCE, runs=runs, ingest=key)
                )

        held = threading.Thread(target=profile_and_ingest, args=("held", 1))
        held.start()
        assert held_flush.entered.wait(timeout=30)
        queued = threading.Thread(
            target=profile_and_ingest, args=("batched", 2)
        )
        queued.start()
        accepted = 0
        with ServiceClient(port=handle.port) as client:
            deadline = time.time() + 5
            while time.time() < deadline:
                if client.healthz()["queue_depth"] >= 1:
                    break
                time.sleep(0.01)
            for _ in range(3):
                response = client.ingest("direct", delta, source=PAPER_SOURCE)
                assert response["ok"]
                accepted += 1

        # Shut down while one request is mid-flush and one queued.
        handle.stop()
        held.join(timeout=30)
        queued.join(timeout=30)

        # The queued request was flushed by the drain, not dropped.
        assert results["held"].get("ingested", {}).get("key") == "held"
        assert results["batched"].get("ingested", {}).get("key") == "batched"

        # Every accepted ingest survived into the database file.
        reloaded = ProfileDatabase(db_path)
        assert not reloaded.recovered_corrupt
        assert reloaded.lookup("direct").runs == accepted
        assert reloaded.lookup("held").runs == 1
        assert reloaded.lookup("batched").runs == 2

    def test_new_work_rejected_while_draining(self, held_flush):
        import asyncio

        handle = ServiceThread(ServiceConfig(max_batch=64)).start()
        # Drain closes the listener immediately, so observe the
        # draining window over connections opened *before* shutdown —
        # exactly what real in-flight keep-alive clients hold.
        monitor = http.client.HTTPConnection(
            "127.0.0.1", handle.port, timeout=30
        )
        probe = http.client.HTTPConnection(
            "127.0.0.1", handle.port, timeout=30
        )
        for conn in (monitor, probe):
            conn.request("GET", "/healthz")
            conn.getresponse().read()

        with ServiceClient(port=handle.port, timeout=60) as blocker_client:
            # SLOW_SOURCE keeps the drain busy flushing for ~0.4s
            # once the drain releases its held flush.
            blocker = threading.Thread(
                target=lambda: blocker_client.profile(SLOW_SOURCE, runs=1)
            )
            blocker.start()
            assert held_flush.entered.wait(timeout=30)
            # Start the drain on the service loop without waiting.
            asyncio.run_coroutine_threadsafe(
                handle.service.shutdown(), handle._loop
            )
            deadline = time.time() + 5
            status = None
            while time.time() < deadline:
                monitor.request("GET", "/healthz")
                response = monitor.getresponse()
                payload = json.loads(response.read())
                status = payload["status"]
                if status == "draining" or response.will_close:
                    break
                time.sleep(0.005)
            assert status == "draining"
            probe.request(
                "POST",
                "/profile",
                body=json.dumps({"source": PAPER_SOURCE}).encode(),
                headers={"Content-Type": "application/json"},
            )
            rejected = probe.getresponse()
            assert rejected.status == 503
            rejected.read()
            blocker.join(timeout=30)
        monitor.close()
        probe.close()
        handle.stop()
