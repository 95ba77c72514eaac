"""The shared measurement path itself: no wall-clock thresholds here."""

from __future__ import annotations

import json

import pytest

import conftest
from conftest import enforce, gate, interleaved, record


def test_interleaved_returns_one_measurement_per_leg():
    calls = []
    legs = interleaved(
        {leg: lambda i, leg=leg: calls.append((leg, i)) for leg in "ab"},
        trials=4,
    )
    for name, measurement in legs.items():
        assert (measurement.label, measurement.trials) == (name, 4)
        low, high = measurement.mean_ci()  # Student-t, validate.stats
        assert low <= measurement.mean_ns <= high
    # One warmup trial (index -1), then the first leg alternates.
    assert [i for leg, i in calls if leg == "a"] == [-1, 0, 1, 2, 3]
    assert [leg for leg, _ in calls[::2]] == ["b", "a", "b", "a", "b"]


def test_record_writes_exactly_the_schema(tmp_path, monkeypatch):
    monkeypatch.setattr(conftest, "RESULTS_DIR", tmp_path)
    leg = interleaved({"exec.x": lambda _i: None}, trials=2)["exec.x"]
    entry = gate(1.0, 2.0, "lower")
    record("probe", end_to_end={"g": entry}, layers={"exec.x": leg})
    payload = json.loads((tmp_path / "BENCH_probe.json").read_text())
    assert set(payload) == {"env", "end_to_end", "layers"}
    assert {"cpu_count", "python", "git_sha", "backend"} <= set(payload["env"])
    assert payload["end_to_end"] == {"g": entry}
    assert entry == dict(value=1.0, gate=2.0, better="lower", status="pass")
    assert payload["layers"]["exec.x"] == leg.as_dict()


def test_gate_status_and_enforcement():
    over = gate(1.6, 1.5, "lower")
    unarmed = gate(3.0, 2.5, "higher", armed=False)
    assert over["status"] == "fail"
    assert gate(1.9, 2.0, "higher")["status"] == "fail"
    assert unarmed["status"] == "unmeasured"
    env = {"cpu_count": 2}
    with pytest.raises(AssertionError, match="gates failed"):
        enforce({"env": env, "end_to_end": {"g": over}})
    with pytest.raises(pytest.skip.Exception, match="unmeasured on 2 cores"):
        enforce({"env": env, "end_to_end": {"g": unarmed}})
