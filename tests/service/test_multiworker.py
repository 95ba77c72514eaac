"""End-to-end behavior of the sharded deployment (front door + workers).

One module-scoped three-worker fleet serves every test here; the
drain/crash scenarios that need a fleet of their own live in
``test_drain_failure.py``.
"""

import pytest

from repro import compile_source, profile_program
from repro.service import (
    FrontDoorConfig,
    FrontDoorThread,
    HashRing,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
)
from repro.workloads.paper_example import PAPER_SOURCE

pytestmark = pytest.mark.service

WORKERS = 3

#: (key, runs) ingest corpus — enough keys that every shard owns some.
CORPUS = [(f"prog-{i}", 1 + i % 3) for i in range(9)]


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fleet")
    config = FrontDoorConfig(
        workers=WORKERS,
        worker=ServiceConfig(
            db=str(tmp / "profiles.json"),
            cache=str(tmp / "cache"),
            save_every=1,
        ),
    )
    with FrontDoorThread(config) as handle:
        yield handle


@pytest.fixture(scope="module")
def client(fleet):
    with ServiceClient(port=fleet.port, retries=3) as c:
        yield c


@pytest.fixture(scope="module")
def ingested(client):
    """The corpus, accumulated through the front door once."""
    program = compile_source(PAPER_SOURCE)
    for key, runs in CORPUS:
        profile, _ = profile_program(program, runs=runs)
        client.ingest(key, profile, source=PAPER_SOURCE)
    return dict(CORPUS)


class TestAggregatedHealth:
    def test_healthz_reports_every_shard(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == WORKERS
        assert health["healthy_workers"] == WORKERS
        assert [s["shard"] for s in health["shards"]] == [0, 1, 2]
        for entry in health["shards"]:
            assert entry["status"] == "ok"
            assert entry["port"]
            assert entry["restarts"] == 0

    def test_metrics_aggregates_across_shards(self, client, ingested):
        metrics = client.metrics()
        assert metrics["frontdoor"]["workers"] == WORKERS
        assert metrics["aggregate"]["keys"] == len(ingested)
        assert metrics["aggregate"]["runs"] == sum(ingested.values())
        assert [s["up"] for s in metrics["shards"]] == [True] * WORKERS
        # Every shard persisted *something*: the corpus spreads out.
        per_shard = [s["database"]["keys"] for s in metrics["shards"]]
        assert sum(per_shard) == len(ingested)
        assert all(keys > 0 for keys in per_shard)

    def test_prometheus_text_has_shard_series(self, client):
        text = client.metrics_text()
        assert "repro_shard_up" in text
        assert "repro_shard_requests_total" in text


class TestStickyRouting:
    def test_placement_matches_the_ring(self, fleet, client, ingested):
        """Each key lives on exactly the shard the ring names."""
        ring = HashRing(WORKERS)
        handles = fleet.door.supervisor.handles
        for key, runs in ingested.items():
            owner = ring.shard_for(key)
            for shard, handle in enumerate(handles):
                with ServiceClient(port=handle.port) as direct:
                    if shard == owner:
                        assert direct.query(key)["runs"] == runs
                    else:
                        with pytest.raises(ServiceError) as excinfo:
                            direct.query(key)
                        assert excinfo.value.status == 404

    def test_query_through_the_door_answers_from_the_owner(
        self, client, ingested
    ):
        for key, runs in ingested.items():
            result = client.query(key)
            assert result["runs"] == runs
            assert result["analysis"] is not None

    def test_unknown_key_is_a_404_from_its_owner(self, client, ingested):
        with pytest.raises(ServiceError) as excinfo:
            client.query("never-ingested")
        assert excinfo.value.status == 404

    def test_unknown_path_is_a_404_from_the_door(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request("GET", "/no/such/path")
        assert excinfo.value.status == 404

    def test_request_id_round_trips_through_the_door(self, client):
        client.healthz()
        minted = client.last_request_id
        assert minted
        client.request("GET", "/healthz", request_id="trace-me-1234")
        assert client.last_request_id == "trace-me-1234"

    def test_profile_with_ingest_routes_by_key(self, client, ingested):
        result = client.profile(PAPER_SOURCE, runs=2, ingest="prog-0")
        assert result["ingested"]["key"] == "prog-0"
        assert client.query("prog-0")["runs"] == ingested["prog-0"] + 2
        ingested["prog-0"] += 2

    def test_hot_paths_stick_with_their_key(self, client):
        from repro.paths import PathExecutor, path_program_plan
        from repro.pipeline import run_program

        program = compile_source(PAPER_SOURCE)
        plan = path_program_plan(program)
        executor = PathExecutor(plan)
        for _ in range(2):
            run_program(program, hooks=executor)
            executor.finalize_run()
        spectrum = {
            proc: {str(pid): count for pid, count in table.items()}
            for proc, table in executor.path_counts.items()
        }
        out = client.ingest_paths(
            "spectrum", spectrum, runs=2, source=PAPER_SOURCE
        )
        assert out["ok"] and out["mode"] == "paths"
        top = client.hot_paths("spectrum", k=3)
        assert top["paths"]
        assert top["paths"][0]["count"] > 0


class TestFanout:
    def test_profiles_fanout_is_bit_identical_to_single_worker(
        self, client, ingested, tmp_path
    ):
        """The headline acceptance: merged fan-out == one process."""
        with ServiceThread(
            ServiceConfig(db=str(tmp_path / "single.json"))
        ) as single_handle:
            with ServiceClient(port=single_handle.port) as single:
                program = compile_source(PAPER_SOURCE)
                for key, runs in CORPUS:
                    profile, _ = profile_program(program, runs=runs)
                    single.ingest(key, profile, source=PAPER_SOURCE)
                want = single.profiles(analyze=True, raw=True)
        got = client.profiles(analyze=True, raw=True)
        # The sharded corpus has extra keys from other tests; compare
        # the original corpus slice, raw dumps and analyses included.
        for key, _ in CORPUS:
            if key == "prog-0":  # re-ingested by the routing test
                continue
            assert got["profiles"][key] == want["profiles"][key]
        assert set(want["keys"]) <= set(got["keys"])

    def test_fanout_reports_per_shard_slices(self, client, ingested):
        result = client.profiles()
        assert [s["shard"] for s in result["shards"]] == [0, 1, 2]
        assert sum(len(s["keys"]) for s in result["shards"]) == len(
            result["keys"]
        )
        total = sum(s["runs"] for s in result["shards"])
        assert total == result["runs"]
