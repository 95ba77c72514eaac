"""Drain and crash behavior of the sharded deployment.

The two operational promises under test:

* **drain loses nothing** — SIGTERM (here: ``FrontDoorThread.stop``,
  the same code path) with ingests in flight across four workers:
  every delta the service answered 200 is on disk afterwards, spread
  over the per-shard database files, and a single-worker absorb boot
  reassembles them exactly.
* **a crash is contained** — SIGKILLing one worker makes its key
  range answer 503 (with a retry hint) while every other shard keeps
  serving; the supervisor respawns the dead worker, nothing is
  replayed, and everything it had saved is back after the restart.
"""

import os
import signal
import threading
import time

import pytest

from repro import compile_source, profile_program
from repro.profiling.database import ProfileDatabase
from repro.service import (
    FrontDoorConfig,
    FrontDoorThread,
    HashRing,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.workloads.paper_example import PAPER_SOURCE

pytestmark = [pytest.mark.service, pytest.mark.slow]


def wait_until(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestDrain:
    WORKERS = 4

    def test_sigterm_drain_loses_no_acknowledged_ingest(self, tmp_path):
        base = tmp_path / "profiles.json"
        config = FrontDoorConfig(
            workers=self.WORKERS,
            worker=ServiceConfig(
                db=str(base),
                save_every=0,  # durability comes only from the drain
            ),
        )
        program = compile_source(PAPER_SOURCE)
        delta, _ = profile_program(program, runs=1)
        raw = delta.to_dict()

        acknowledged: dict[str, int] = {}
        lock = threading.Lock()
        stop = threading.Event()

        def hammer(worker_id: int, port: int) -> None:
            key = f"drain-{worker_id}"
            with ServiceClient(port=port) as client:
                while not stop.is_set():
                    try:
                        client.ingest(key, raw)
                    except (ServiceError, ConnectionError, OSError):
                        return  # drain reached us; nothing acknowledged
                    with lock:
                        acknowledged[key] = acknowledged.get(key, 0) + 1

        with FrontDoorThread(config) as handle:
            threads = [
                threading.Thread(target=hammer, args=(i, handle.port))
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            # Let ingests build up, then drain with requests in flight.
            wait_until(lambda: sum(acknowledged.values()) >= 40, timeout=30)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)

        assert sum(acknowledged.values()) >= 40
        # The fleet is gone; its shard files must hold every 200.
        merged = ProfileDatabase(base, absorb_shards=True)
        assert len(merged.absorbed_shards) == self.WORKERS
        for key, count in acknowledged.items():
            assert merged.lookup(key) is not None, key
            # ">=": a 200 the client never got to read (connection cut
            # mid-drain) is still durable — only *lost* acks would be
            # a bug, and those show up as runs < count.
            assert merged.lookup(key).runs >= count

    def test_every_shard_save_is_atomic_json(self, tmp_path):
        """No shard file is ever a half-written torso after a drain."""
        import json

        base = tmp_path / "profiles.json"
        config = FrontDoorConfig(
            workers=2,
            worker=ServiceConfig(db=str(base)),
        )
        program = compile_source(PAPER_SOURCE)
        delta, _ = profile_program(program, runs=2)
        with FrontDoorThread(config) as handle:
            with ServiceClient(port=handle.port) as client:
                for i in range(6):
                    client.ingest(f"atomic-{i}", delta)
        for shard in range(2):
            text = ProfileDatabase.shard_path(base, shard).read_text()
            json.loads(text)  # parses or the save was not atomic


class TestCrash:
    WORKERS = 3

    @pytest.fixture()
    def fleet(self, tmp_path):
        config = FrontDoorConfig(
            workers=self.WORKERS,
            worker=ServiceConfig(
                db=str(tmp_path / "profiles.json"),
                save_every=1,  # bound the crash-loss window to zero
            ),
        )
        with FrontDoorThread(config) as handle:
            yield handle

    def test_kill_one_worker_503s_its_range_until_respawn(self, fleet):
        ring = HashRing(self.WORKERS)
        program = compile_source(PAPER_SOURCE)
        delta, _ = profile_program(program, runs=1)
        keys = [f"crash-{i}" for i in range(9)]
        with ServiceClient(port=fleet.port, retries=3) as client:
            for key in keys:
                client.ingest(key, delta, source=PAPER_SOURCE)

            victim_shard = ring.shard_for(keys[0])
            survivor = next(
                k for k in keys if ring.shard_for(k) != victim_shard
            )
            handle = fleet.door.supervisor.handles[victim_shard]
            restarts_before = handle.restarts
            os.kill(handle.pid, signal.SIGKILL)
            handle.process.join(10)

            # The owner's key range fails fast with a retry hint...
            with ServiceClient(port=fleet.port) as impatient:
                try:
                    impatient.query(keys[0])
                    respawned_already = True
                except ServiceError as exc:
                    respawned_already = False
                    assert exc.status == 503
                    assert exc.payload["error"]["retry_after_ms"] > 0
                    assert exc.payload["error"]["shard"] == victim_shard
                # ...while every other shard keeps answering.
                assert impatient.query(survivor)["runs"] == 1

            # The supervisor respawns the worker; nothing is replayed,
            # but save_every=1 means everything acknowledged is back.
            assert wait_until(
                lambda: fleet.door.supervisor.handles[victim_shard].up
                and fleet.door.supervisor.handles[victim_shard].restarts
                > restarts_before,
                timeout=60,
            )
            for key in keys:
                assert client.query(key)["runs"] == 1
            if not respawned_already:
                health = client.healthz()
                restarts = {
                    s["shard"]: s["restarts"] for s in health["shards"]
                }
                assert restarts[victim_shard] >= 1

            # The restarted shard accepts new accumulation.
            client.ingest(keys[0], delta)
            assert client.query(keys[0])["runs"] == 2
