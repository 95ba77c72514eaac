"""The service's Ball–Larus path-mode surface.

Three contracts: ``POST /profile`` with ``mode: "paths"`` answers the
exact same reconstructed profile counter mode does; a raw path-count
delta POSTed to ``/profiles/{key}/ingest`` is validated id-by-id
against the program's path plan (422 on the first invalid entry,
nothing accumulated) and reconstructs into the same Definition-3
database counter deltas feed; ``GET /profiles/{key}/paths`` ranks the
accumulated spectrum and decodes each hot path.
"""

import pytest

from repro.paths import PathExecutor, path_program_plan
from repro.pipeline import compile_source, run_program
from repro.service import ServiceClient, ServiceConfig, ServiceThread
from repro.service.client import ServiceError
from repro.workloads.paper_example import PAPER_SOURCE

pytestmark = [pytest.mark.service, pytest.mark.paths]


@pytest.fixture(scope="module")
def server():
    with ServiceThread(ServiceConfig()) as handle:
        yield handle


@pytest.fixture()
def client(server):
    with ServiceClient(port=server.port) as c:
        yield c


@pytest.fixture(scope="module")
def spectrum():
    """Three paper-example runs recorded locally, ready to POST."""
    program = compile_source(PAPER_SOURCE)
    plan = path_program_plan(program)
    executor = PathExecutor(plan)
    for _ in range(3):
        run_program(program, hooks=executor)
        executor.finalize_run()
    return {
        proc: {str(pid): count for pid, count in table.items()}
        for proc, table in executor.path_counts.items()
    }


class TestProfileMode:
    def test_paths_profile_matches_counters(self, client):
        counters = client.profile(PAPER_SOURCE, runs=3, mode="counters")
        paths = client.profile(PAPER_SOURCE, runs=3, mode="paths")
        assert paths["mode"] == "paths"
        assert paths["profile"] == counters["profile"]

    def test_mode_is_validated(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.profile(PAPER_SOURCE, mode="spectral")
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.profile(PAPER_SOURCE, mode="paths", plan="naive")
        assert excinfo.value.status == 400


class TestPathIngest:
    def test_delta_reconstructs_like_counters(self, client, spectrum):
        client.profile(
            PAPER_SOURCE, runs=3, mode="counters", ingest="by-counters"
        )
        out = client.ingest_paths(
            "by-paths", spectrum, runs=3, source=PAPER_SOURCE
        )
        assert out["ok"] and out["mode"] == "paths"
        assert out["runs"] == 3
        want = client.query("by-counters")
        got = client.query("by-paths")
        assert got["analysis"] == want["analysis"]

    def test_invalid_ids_answer_422(self, client, spectrum):
        cases = [
            {"NOPE": {"0": 1.0}},
            {"MAIN": {"8": 1.0}},  # num_paths is 8: ids are 0..7
            {"MAIN": {"four": 1.0}},
            {"MAIN": {"0": -2.0}},
        ]
        for bad in cases:
            with pytest.raises(ServiceError) as excinfo:
                client.ingest_paths("victim", bad, source=PAPER_SOURCE)
            assert excinfo.value.status == 422
        with pytest.raises(ServiceError) as excinfo:
            client.ingest_paths(
                "victim",
                {},
                partials=[["MAIN", 999, 0]],
                source=PAPER_SOURCE,
            )
        assert excinfo.value.status == 422
        # Nothing was accumulated by any rejected delta.
        with pytest.raises(ServiceError) as excinfo:
            client.hot_paths("victim")
        assert excinfo.value.status == 404

    def test_sourceless_key_answers_422(self, client, spectrum):
        with pytest.raises(ServiceError) as excinfo:
            client.ingest_paths("no-source-here", spectrum)
        assert excinfo.value.status == 422
        assert "cannot be validated" in str(excinfo.value)


class TestHotPaths:
    def test_top_k_ranked_and_decoded(self, client, spectrum):
        client.ingest_paths("hot", spectrum, runs=3, source=PAPER_SOURCE)
        body = client.hot_paths("hot", k=3)
        assert body["k"] == 3
        counts = [entry["count"] for entry in body["paths"]]
        assert counts == sorted(counts, reverse=True)
        top = body["paths"][0]
        # Figure 3: the hot path is the header-to-header iteration.
        assert top["proc"] in ("MAIN", "FOO")
        assert top["end"] in ("exit", "backedge")
        assert top["nodes"]
        assert 0 < top["fraction"] <= 1
        total = sum(
            float(c) for t in spectrum.values() for c in t.values()
        )
        assert body["total_count"] == total

    def test_unknown_key_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.hot_paths("never-ingested")
        assert excinfo.value.status == 404

    def test_k_is_validated(self, client, spectrum):
        client.ingest_paths("kv", spectrum, source=PAPER_SOURCE)
        for bad in (0, -1, 100000):
            with pytest.raises(ServiceError) as excinfo:
                client.hot_paths("kv", k=bad)
            assert excinfo.value.status == 400

    def test_metrics_count_path_ingests(self, client, spectrum):
        before = client.metrics()["database"]["path_ingests"]
        client.ingest_paths("metered", spectrum, source=PAPER_SOURCE)
        after = client.metrics()["database"]
        assert after["path_ingests"] == before + 1
        assert after["path_keys"] >= 1
        assert "repro_path_ingests_total" in client.metrics_text()
