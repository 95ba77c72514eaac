"""Service surface of the validation observatory: GET /calibration,
model=calibrated queries with drift tracking, and the Kruskal-Weiss
chunk advisor on GET /profiles/{key}/chunks."""

from __future__ import annotations

import json

import pytest

from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
)
from repro.validate import CalibrationProfile
from repro.workloads.paper_example import PAPER_SOURCE

pytestmark = [pytest.mark.service, pytest.mark.validate]


@pytest.fixture(scope="module")
def calibration_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cal") / "calibration.json"
    CalibrationProfile(
        coefficients_ns={
            "mem": 5.0,
            "int_alu": 1.0,
            "int_muldiv": 10.0,
            "fp_add": 3.0,
            "fp_muldiv": 8.0,
            "call": 50.0,
            "intrinsic": 20.0,
            "print": 400.0,
        },
        intercept_ns=15_000.0,
        r_squared=0.93,
    ).save(path)
    return path


@pytest.fixture(scope="module")
def server(calibration_path):
    config = ServiceConfig(calibration=str(calibration_path))
    with ServiceThread(config) as handle:
        yield handle


@pytest.fixture()
def client(server):
    with ServiceClient(port=server.port) as c:
        yield c


@pytest.fixture(scope="module")
def ingested(server):
    """The paper program ingested once, under a module-unique key."""
    with ServiceClient(port=server.port) as c:
        c.profile(PAPER_SOURCE, runs=3, ingest="paper-validate")
    return "paper-validate"


class TestCalibrationEndpoint:
    def test_served_artifact_roundtrips(self, client, calibration_path):
        body = client.calibration()
        assert body["ok"] is True
        on_disk = json.loads(calibration_path.read_text())
        assert body["calibration"] == on_disk

    def test_404_when_not_loaded(self):
        with ServiceThread(ServiceConfig()) as handle:
            with ServiceClient(port=handle.port) as c:
                with pytest.raises(ServiceError) as excinfo:
                    c.calibration()
        assert excinfo.value.status == 404
        assert "--calibration" in str(excinfo.value)


class TestCalibratedQueries:
    def test_calibrated_model_reports_ns_units(self, client, ingested):
        body = client.query(ingested, model="calibrated")
        assert body["calibration"]["units"] == "ns"
        assert body["calibration"]["intercept_ns"] == pytest.approx(15_000.0)
        assert body["calibration"]["r_squared"] == pytest.approx(0.93)
        assert body["analysis"]["time"] > 0

    def test_plain_models_have_no_calibration_block(self, client, ingested):
        body = client.query(ingested, model="scalar")
        assert "calibration" not in body

    def test_calibrated_rejected_without_artifact(self):
        with ServiceThread(ServiceConfig()) as handle:
            with ServiceClient(port=handle.port) as c:
                c.profile(PAPER_SOURCE, runs=1, ingest="k")
                with pytest.raises(ServiceError) as excinfo:
                    c.query("k", model="calibrated")
        assert excinfo.value.status == 400

    def test_unknown_model_still_rejected(self, client, ingested):
        with pytest.raises(ServiceError) as excinfo:
            client.query(ingested, model="vector")
        assert excinfo.value.status == 400


class TestDrift:
    def test_first_query_has_no_baseline(self, client):
        client.profile(PAPER_SOURCE, runs=2, ingest="drift-key")
        body = client.query("drift-key")
        drift = body["drift"]
        assert drift["runs"] == 2
        assert drift["previous_runs"] is None
        assert drift["time_drift"] is None and drift["var_drift"] is None

    def test_consecutive_queries_measure_drift(self, client):
        client.profile(PAPER_SOURCE, runs=2, ingest="drift-key2")
        client.query("drift-key2")
        client.profile(PAPER_SOURCE, runs=3, ingest="drift-key2")
        drift = client.query("drift-key2")["drift"]
        assert drift["previous_runs"] == 2
        assert drift["runs"] == 5
        # The paper program is deterministic: more runs, same averages.
        assert drift["time_drift"] == pytest.approx(0.0, abs=1e-12)
        assert drift["var_drift"] == pytest.approx(0.0, abs=1e-12)

    def test_changing_params_resets_the_baseline(self, client):
        client.profile(PAPER_SOURCE, runs=1, ingest="drift-key3")
        client.query("drift-key3", model="scalar")
        drift = client.query("drift-key3", model="optimizing")["drift"]
        assert drift["previous_runs"] is None

    def test_drift_gauges_reach_prometheus(self, client):
        client.profile(PAPER_SOURCE, runs=1, ingest="drift-prom")
        client.query("drift-prom")
        client.query("drift-prom")
        text = client.metrics_text()
        assert 'repro_validation_time_drift{key="drift-prom"}' in text
        assert 'repro_validation_var_drift{key="drift-prom"}' in text


class TestChunksEndpoint:
    def test_advice_for_a_profiled_loop(self, client, ingested):
        body = client.chunks(ingested, processors=4, overhead=25.0)
        assert body["key"] == ingested
        assert body["processors"] == 4
        assert body["overhead"] == pytest.approx(25.0)
        assert body["units"] == "cycles"
        assert body["loops"], "paper program has a profiled loop"
        loop = body["loops"][0]
        assert loop["proc"] == "MAIN"
        assert loop["iterations"] >= 1
        assert 1 <= loop["chunk"] <= loop["iterations"]
        assert loop["makespan"] <= loop["naive_makespan"] + 1e-9

    def test_calibrated_chunks_report_ns(self, client, ingested):
        body = client.chunks(ingested, model="calibrated")
        assert body["units"] == "ns"

    def test_unknown_key_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.chunks("never-ingested")
        assert excinfo.value.status == 404

    def test_bad_parameters_rejected(self, client, ingested, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            conn.request(
                "GET", f"/profiles/{ingested}/chunks?processors=0"
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert "processors" in payload["error"]["message"]
