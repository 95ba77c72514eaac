"""Observability surface of the service: request ids, Prometheus
exposition, atomic JSON metrics, and trace propagation."""

import http.client
import json

import pytest

from repro.obs import (
    RingBufferSink,
    configure_tracing,
    disable_tracing,
    format_traceparent,
)
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
)
from repro.workloads.paper_example import PAPER_SOURCE

pytestmark = [pytest.mark.service, pytest.mark.obs]


@pytest.fixture(scope="module")
def server():
    with ServiceThread(ServiceConfig()) as handle:
        yield handle


@pytest.fixture()
def client(server):
    with ServiceClient(port=server.port) as c:
        yield c


def unique_source(tag: str) -> str:
    """A source no other test compiled, so it cannot hit the cache."""
    value = sum((i + 1) * ord(ch) for i, ch in enumerate(tag))
    return (
        "      PROGRAM MAIN\n"
        "      INTEGER X, Y\n"
        f"      X = {value}\n"
        "      Y = X + 1\n"
        "      PRINT *, Y\n"
        "      END\n"
    )


class TestRequestIds:
    def test_every_response_carries_a_request_id(self, client):
        client.healthz()
        assert client.last_request_id
        int(client.last_request_id, 16)  # hex-shaped

    def test_client_supplied_id_is_echoed(self, client):
        client.compile(
            PAPER_SOURCE, request_id="deadbeefcafe0001"
        )
        assert client.last_request_id == "deadbeefcafe0001"

    def test_service_error_carries_request_id(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.query("never-ingested", request_id="feed0000feed0000")
        assert excinfo.value.status == 404
        assert excinfo.value.request_id == "feed0000feed0000"
        assert "feed0000feed0000" in str(excinfo.value)

    def test_protocol_errors_also_get_an_id(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            conn.request(
                "POST",
                "/compile",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            response.read()
            assert response.status == 400
            assert response.getheader("X-Request-Id")
        finally:
            conn.close()


class TestMetricsJson:
    def test_uptime_and_build_info(self, client):
        metrics = client.metrics()
        assert metrics["uptime_seconds"] >= 0
        assert metrics["uptime_s"] >= 0  # backwards-compatible alias
        build = metrics["build"]
        assert build["version"]
        assert build["python"].count(".") == 2

    def test_cache_section_is_a_consistent_snapshot(self, client):
        client.compile(unique_source("snapshot"))
        metrics = client.metrics()
        cache = metrics["cache"]
        # published at a flush boundary: hits+misses == lookups exactly
        lookups = (
            cache["memory_hits"] + cache["disk_hits"] + cache["misses"]
        )
        assert lookups >= 1
        for value in cache.values():
            assert value >= 0


class TestPrometheusExposition:
    def test_text_scrape_has_key_series(self, client):
        client.compile(unique_source("prom"))
        text = client.metrics_text()
        assert "# TYPE repro_http_requests_total counter" in text
        assert 'repro_http_requests_total{route="compile"' in text
        assert "repro_http_request_seconds_bucket" in text
        assert 'le="+Inf"' in text
        assert "repro_uptime_seconds" in text
        assert "repro_build_info{" in text
        assert "repro_cache_lookups_total" in text
        assert "repro_queue_depth" in text

    def test_json_is_still_the_default(self, client):
        metrics = client.metrics()
        assert isinstance(metrics, dict)
        assert "batcher" in metrics

    def test_exposition_parses_line_by_line(self, client):
        client.healthz()
        text = client.metrics_text()
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
                continue
            name_and_labels, _, value = line.rpartition(" ")
            assert name_and_labels
            float(value)  # every sample value is a number


class TestTracePropagation:
    def test_traceparent_continues_into_engine_spans(self, server):
        ring = RingBufferSink()
        configure_tracing(ring)
        try:
            trace_id = "1234567890abcdef1234567890abcdef"
            header = format_traceparent((trace_id, "aaaabbbbccccdddd"))
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30
            )
            try:
                body = json.dumps(
                    {"source": unique_source("traceparent")}
                ).encode()
                conn.request(
                    "POST",
                    "/compile",
                    body=body,
                    headers={
                        "Content-Type": "application/json",
                        "traceparent": header,
                    },
                )
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            finally:
                conn.close()
        finally:
            disable_tracing()
        spans = ring.drain()
        by_name = {}
        for record in spans:
            by_name.setdefault(record.name, []).append(record)
        (http_span,) = by_name["http.compile"]
        assert http_span.trace_id == trace_id
        assert http_span.parent_id == "aaaabbbbccccdddd"
        # the flush thread attached the engine work to the same trace
        compile_spans = [
            r for r in by_name.get("service.compile", [])
            if r.trace_id == trace_id
        ]
        assert compile_spans
        # and the pipeline's own stages nested under it
        pipeline_spans = [
            r for r in by_name.get("compile", [])
            if r.trace_id == trace_id
        ]
        assert pipeline_spans
