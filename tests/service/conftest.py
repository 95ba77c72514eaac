"""Fixtures shared by the service tests."""

import threading
from types import SimpleNamespace

import pytest

from repro.service import ProfilingService


@pytest.fixture
def held_flush(monkeypatch):
    """Hold every service flush until ``release`` is set.

    The first flush blocks in its worker thread (``entered`` is set
    once it has started), so later requests queue behind it
    deterministically.  A drain sets ``release`` as it starts, so a
    drain test still proves that queued work is flushed, not dropped.
    Request the fixture before the ``ServiceThread`` starts: the
    batcher binds ``ProfilingService._flush`` when the service is
    built.
    """
    gate = SimpleNamespace(
        entered=threading.Event(), release=threading.Event()
    )
    flush = ProfilingService._flush
    shutdown = ProfilingService.shutdown

    def held(self, tasks):
        gate.entered.set()
        assert gate.release.wait(timeout=60), "held flush never released"
        return flush(self, tasks)

    async def releasing_shutdown(self):
        gate.release.set()
        await shutdown(self)

    monkeypatch.setattr(ProfilingService, "_flush", held)
    monkeypatch.setattr(ProfilingService, "shutdown", releasing_shutdown)
    yield gate
    gate.release.set()
