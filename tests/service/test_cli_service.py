"""The ``repro call`` CLI against a live service."""

import json

import pytest

from repro.cli import main
from repro.service import ServiceConfig, ServiceThread
from repro.workloads.paper_example import PAPER_SOURCE

pytestmark = pytest.mark.service


@pytest.fixture(scope="module")
def server():
    with ServiceThread(ServiceConfig()) as handle:
        yield handle


@pytest.fixture()
def paper_file(tmp_path):
    path = tmp_path / "paper.f"
    path.write_text(PAPER_SOURCE)
    return str(path)


def call(server, *argv):
    return main(["call", "--port", str(server.port), *argv])


class TestCallCli:
    def test_health(self, server, capsys):
        assert call(server, "health") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"

    def test_compile_profile_ingest_query_roundtrip(
        self, server, paper_file, capsys
    ):
        assert call(server, "compile", paper_file, "--key", "cli-paper") == 0
        compiled = json.loads(capsys.readouterr().out)
        assert compiled["procedures"] == ["FOO", "MAIN"]

        assert call(server, "ingest", "cli-paper", paper_file, "--runs", "2") == 0
        ingested = json.loads(capsys.readouterr().out)
        assert ingested["runs"] == 2

        assert call(server, "query", "cli-paper") == 0
        queried = json.loads(capsys.readouterr().out)
        assert queried["analysis"]["procedures"]["MAIN"]["invocations"] == 2.0

    def test_profile_with_server_side_ingest(self, server, paper_file, capsys):
        assert (
            call(
                server, "profile", paper_file,
                "--runs", "3", "--ingest", "cli-remote",
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["ingested"]["key"] == "cli-remote"
        assert "profile" not in payload  # trimmed without --full

    def test_metrics(self, server, capsys):
        assert call(server, "metrics") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["database"]["ingests"] >= 1

    def test_connection_refused_is_reported(self, capsys, paper_file):
        # Port 1 is never listening.
        code = main(["call", "--port", "1", "health"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestServeParser:
    def test_serve_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve", "--port", "0", "--max-batch", "4",
                "--queue-limit", "9",
                "--timeout", "2.5", "--save-every", "10",
            ]
        )
        assert args.func.__name__ == "_cmd_serve"
        assert args.max_batch == 4
        assert args.queue_limit == 9

    def test_linger_flag_is_gone(self, capsys):
        # The batcher flushes whenever it is free; there is no wait
        # left to configure.
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--linger-ms", "1.5"])
        assert "--linger-ms" in capsys.readouterr().err
